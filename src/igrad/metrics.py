"""Faithfulness (Average Drop/Gain/Increase) and causal (insertion/deletion)
metrics for saliency methods over a dataset split.

Masking, insertion, and deletion all act in raw pixel space [0,1]; images are
normalized just before every forward pass. Scores are softmax probabilities.
A split is evaluated CHUNK_IMAGES images at a time, with one forward per step
for the whole chunk.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .saliency import compose_saliency, pick_classes

# Images per chunk. A forward's fixed cost dominates at a few images, and
# the curve forwards of a chunk hold CHUNK_IMAGES * (steps + 1) images.
CHUNK_IMAGES = 8
CLASS_POLICIES = ("predicted", "ground_truth")
# Curve pixels are ranked on a grid of 1 / RANK_GRID (1.5e-11 of a map's
# [0, 1] range). Upsampled CAM maps hold exact ties and 1e-17 near-ties;
# ranked exactly, a rounding-level change of a map could swap two of them
# across a step and move a curve far more than the rounding.
RANK_GRID = 2.0**36


@dataclass(frozen=True)
class CurveConfig:
    pixels_per_step: int
    blur_kernel: int = 5
    blur_sigma: float = 2.0

    def __post_init__(self):
        if self.pixels_per_step < 1:
            raise ValueError(f"pixels_per_step must be >= 1, got {self.pixels_per_step}")
        if self.blur_kernel < 1 or self.blur_kernel % 2 != 1:
            raise ValueError(f"blur_kernel must be odd and >= 1, got {self.blur_kernel}")
        if not self.blur_sigma > 0.0:  # NaN fails too
            raise ValueError(f"blur_sigma must be > 0, got {self.blur_sigma}")


@dataclass
class ImageRecord:
    index: int
    target: int
    p_original: float
    p_masked: float
    insertion: float | None = None
    deletion: float | None = None


@dataclass
class MetricsReport:
    method: str
    class_policy: str
    n: int
    ad: float
    ag: float
    ai: float
    insertion: float | None = None
    deletion: float | None = None
    per_image: list[ImageRecord] | None = None


def gaussian_blur(x: np.ndarray, kernel: int, sigma: float) -> np.ndarray:
    """Separable Gaussian blur over the last two axes of a (C,H,W) image or
    (N,C,H,W) batch, with reflect borders."""
    rad = kernel // 2
    t = np.arange(kernel, dtype=np.float64) - rad
    k1 = np.exp(-(t**2) / (2.0 * sigma**2))
    k1 /= k1.sum()
    out = x
    for axis in (x.ndim - 2, x.ndim - 1):
        pads = [(0, 0)] * x.ndim
        pads[axis] = (rad, rad)
        padded = np.pad(out, pads, mode="reflect")
        acc = np.zeros_like(out)
        for i in range(kernel):
            sl = [slice(None)] * x.ndim
            sl[axis] = slice(i, i + out.shape[axis])
            acc += k1[i] * padded[tuple(sl)]
        out = acc
    return out


def causal_curves(model, x_raw, sal, cfg: CurveConfig, cs, prep, p_orig):
    """Insertion and deletion AUCs (x100) of a batch, as two (N,) arrays.

    x_raw is the (N,C,H,W) batch, sal its (N,H,W) normalized saliency maps,
    cs the classes and p_orig each original image's nonzero class
    probability. Pixels are ranked by decreasing saliency rounded to a grid
    of 1 / RANK_GRID, ties to the lowest linear index. Insertion reveals
    original pixels over a blurred copy; deletion replaces them with 0. Each
    step's score is the probability ratio against p_orig; AUC is the
    trapezoid over the revealed fraction in [0,1]. A curve takes
    ceil(H*W / pixels_per_step) steps; one forward per curve kind runs all
    N * (steps + 1) states, image by image. The states are composed from the
    prepped image, blurred copy and black image: as prep acts pixel by pixel,
    that equals prepping each state.
    """
    n, c_img, h, w = x_raw.shape
    total = h * w
    order = np.argsort(-np.round(sal.reshape(n, total) * RANK_GRID), axis=1, kind="stable")
    rank = np.empty((n, total), dtype=np.int64)
    np.put_along_axis(rank, order, np.arange(total)[None], axis=1)
    n_steps = -(-total // cfg.pixels_per_step)
    counts = np.minimum(np.arange(n_steps + 1) * cfg.pixels_per_step, total)
    fractions = counts / total
    # state s shows the source at the counts[s] highest-ranked pixels
    revealed = (rank[:, None, :] < counts[None, :, None])[:, :, None, :]
    p_orig = np.asarray(p_orig, dtype=np.float64)[:, None]

    def run(start_img: np.ndarray, source: np.ndarray) -> np.ndarray:
        flat = (n, 1, c_img, total)
        states = np.where(revealed, source.reshape(flat), start_img.reshape(flat))
        probs = model.forward(states.reshape(-1, c_img, h, w)).probs.data
        ratios = pick_classes(probs, cs) / p_orig
        return np.trapezoid(ratios, fractions, axis=1) * 100.0

    x = prep(x_raw)
    insertion = run(prep(gaussian_blur(x_raw, cfg.blur_kernel, cfg.blur_sigma)), x)
    deletion = run(x, prep(np.zeros_like(x_raw)))
    return insertion, deletion


def target_class(model, split, indices, class_policy) -> tuple[np.ndarray, np.ndarray]:
    """The classes images `indices` are explained for, the model's top class
    under the "predicted" policy and the label under "ground_truth", with
    the model's probability for each, from one forward."""
    if class_policy not in CLASS_POLICIES:
        raise ValueError(f"class_policy {class_policy!r} not one of {CLASS_POLICIES}")
    probs = model.forward(split.normalize(split.pixels[indices])).probs.data
    if class_policy == "predicted":
        cs = np.argmax(probs, axis=1)
    else:
        cs = split.labels[indices]
    return cs, pick_classes(probs, cs)[:, 0]


def _aggregate(p_original, p_masked):
    """AD, AG and AI in percent from (N,) arrays of each image's original
    and masked class probability."""
    ad = 100.0 * np.mean(np.maximum(0.0, p_original - p_masked) / p_original)
    ag = 100.0 * np.mean(np.maximum(0.0, p_masked - p_original) / p_original)
    ai = 100.0 * np.mean(p_original < p_masked)
    return float(ad), float(ag), float(ai)


def faithfulness_report(
    model,
    dataset,
    method,
    layer="last_conv",
    class_policy="predicted",
    curve_cfg: CurveConfig | None = None,
    keep_per_image=False,
) -> MetricsReport:
    """AD/AG/AI percentages over the split for one saliency method, plus the
    mean insertion/deletion AUCs when `curve_cfg` is given. An image whose
    probability for its class is zero fails the whole report, naming it."""
    chunks = []
    for start in range(0, len(dataset), CHUNK_IMAGES):
        idx = np.arange(start, min(start + CHUNK_IMAGES, len(dataset)))
        cs, ps = target_class(model, dataset, idx, class_policy)
        if (ps == 0.0).any():
            i = np.argmax(ps == 0.0)
            raise ValueError(f"image {idx[i]}: original probability for class {cs[i]} is zero")
        x_raw = dataset.pixels[idx]
        alpha, amap = method.weights_and_maps(model, x_raw, cs, layer, prep=dataset.normalize)
        _, sal = compose_saliency(alpha, amap, x_raw.shape[2:])
        probs = model.forward(dataset.normalize(x_raw * sal[:, None])).probs.data
        chunk = (cs, ps, pick_classes(probs, cs)[:, 0])
        if curve_cfg is not None:
            chunk += causal_curves(model, x_raw, sal, curve_cfg, cs, dataset.normalize, ps)
        chunks.append(chunk)
    cs, po, pm, *curves = (np.concatenate(c) for c in zip(*chunks))
    ins, dele = (float(np.mean(c)) for c in curves) if curves else (None, None)
    per_image = None
    if keep_per_image:
        rows = zip(cs.tolist(), po.tolist(), pm.tolist(), *(c.tolist() for c in curves))
        per_image = [ImageRecord(i, *row) for i, row in enumerate(rows)]
    return MetricsReport(
        method.name, class_policy, len(cs), *_aggregate(po, pm),
        insertion=ins, deletion=dele, per_image=per_image,
    )


def write_reports_csv(path, reports):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "class_policy", "n", "ad", "ag", "ai", "insertion", "deletion"])
        for r in reports:
            w.writerow(
                [
                    r.method,
                    r.class_policy,
                    r.n,
                    repr(r.ad),
                    repr(r.ag),
                    repr(r.ai),
                    "" if r.insertion is None else repr(r.insertion),
                    "" if r.deletion is None else repr(r.deletion),
                ]
            )


def write_per_image_jsonl(path, labels, reports):
    """One JSON line per image of the split the reports scored, each kept per
    image: its index, label and class, and per method its p_original,
    p_masked, insertion and deletion."""
    keys = ("p_original", "p_masked", "insertion", "deletion")
    with open(path, "w") as f:
        for recs in zip(*(r.per_image for r in reports)):
            i, c = recs[0].index, recs[0].target
            methods = {r.method: {k: getattr(rec, k) for k in keys} for r, rec in zip(reports, recs)}
            row = {"index": i, "label": int(labels[i]), "class": c, "methods": methods}
            f.write(json.dumps(row) + "\n")
