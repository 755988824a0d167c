"""Faithfulness (Average Drop/Gain/Increase) and causal (insertion/deletion)
metrics for saliency methods over a dataset split.

Masking, insertion, and deletion all act in raw pixel space [0,1]; images are
normalized just before every forward pass. Scores are softmax probabilities.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .saliency import saliency_for


@dataclass(frozen=True)
class CurveConfig:
    pixels_per_step: int
    steps: int
    blur_kernel: int = 5
    blur_sigma: float = 2.0
    fill: float = 0.0

    def __post_init__(self):
        if self.pixels_per_step < 1 or self.steps < 1:
            raise ValueError("steps and pixels_per_step must be >= 1")
        if self.blur_kernel % 2 != 1:
            raise ValueError("blur_kernel must be odd")


def default_curve_config(hw: int) -> CurveConfig:
    """One image-row worth of pixels per step."""
    return CurveConfig(pixels_per_step=hw, steps=hw)


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


def masked_image(x: np.ndarray, smap) -> np.ndarray:
    """Element-wise product of the image with the normalized saliency map."""
    sal = smap.normalized if hasattr(smap, "normalized") else np.asarray(smap)
    if x.shape[1:] != sal.shape:
        raise ValueError(f"masked_image: {x.shape} does not match map {sal.shape}")
    return x * sal[None, :, :]


def gaussian_blur(x: np.ndarray, kernel: int = 5, sigma: float = 2.0) -> np.ndarray:
    """Separable Gaussian blur of a (C,H,W) image with reflect borders."""
    rad = kernel // 2
    t = np.arange(kernel, dtype=np.float64) - rad
    k1 = np.exp(-(t**2) / (2.0 * sigma**2))
    k1 /= k1.sum()
    out = x
    for axis in (1, 2):
        pads = [(0, 0), (0, 0), (0, 0)]
        pads[axis] = (rad, rad)
        padded = np.pad(out, pads, mode="reflect")
        acc = np.zeros_like(out)
        for i in range(kernel):
            sl = [slice(None)] * 3
            sl[axis] = slice(i, i + out.shape[axis])
            acc += k1[i] * padded[tuple(sl)]
        out = acc
    return out


def causal_curves(model, x_raw, smap, cfg: CurveConfig, c, prep, p_orig) -> tuple[float, float]:
    """Insertion and deletion AUCs (x100) for one image.

    Pixels are ranked by decreasing saliency, ties to the lowest linear
    index. Insertion reveals original pixels over a blurred copy; deletion
    replaces them with the fill value. Each step's score is the probability
    ratio against `p_orig`, the original image's nonzero class-c
    probability; AUC is the trapezoid over the revealed fraction in [0,1].
    """
    c_img, h, w = x_raw.shape
    total = h * w
    if cfg.steps * cfg.pixels_per_step < total:
        raise ValueError("steps * pixels_per_step must cover the image")
    order = np.argsort(-smap.normalized.reshape(-1), kind="stable")

    counts = [0]
    done = 0
    while done < total:
        done = min(done + cfg.pixels_per_step, total)
        counts.append(done)
    fractions = np.array(counts, dtype=np.float64) / total

    def run(start_img: np.ndarray, source: np.ndarray) -> float:
        flat_src = source.reshape(c_img, -1)
        img = start_img.copy().reshape(c_img, -1)
        states = np.empty((len(counts), c_img, total))
        states[0] = img
        for s in range(1, len(counts)):
            sel = order[counts[s - 1] : counts[s]]
            img[:, sel] = flat_src[:, sel]
            states[s] = img
        batch = np.stack([prep(st.reshape(c_img, h, w)) for st in states])
        ratios = model.forward(batch).probs.data[:, c] / p_orig
        return float(np.trapezoid(ratios, fractions) * 100.0)

    blurred = gaussian_blur(x_raw, cfg.blur_kernel, cfg.blur_sigma)
    insertion = run(blurred, x_raw)
    deletion = run(x_raw, np.full_like(x_raw, cfg.fill))
    return insertion, deletion


def _eval_image(model, split, i, method, layer, class_policy, curve_cfg):
    img = split.images[i]
    x_raw = img.pixels
    probs = model.forward(split.normalize(x_raw)[None]).probs.data[0]
    c = int(np.argmax(probs)) if class_policy == "predicted" else int(img.label)
    p = float(probs[c])
    if p == 0.0:
        raise ValueError(f"image {i}: original probability for class {c} is zero")
    smap = saliency_for(model, x_raw, c, layer, method, prep=split.normalize)
    o = float(
        model.forward(split.normalize(masked_image(x_raw, smap))[None]).probs.data[0, c]
    )
    rec = ImageRecord(i, c, p, o)
    if curve_cfg is not None:
        rec.insertion, rec.deletion = causal_curves(
            model, x_raw, smap, curve_cfg, c, split.normalize, p
        )
    return rec


def _aggregate(recs):
    n = len(recs)
    ad = 100.0 / n * sum(max(0.0, r.p_original - r.p_masked) / r.p_original for r in recs)
    ag = 100.0 / n * sum(max(0.0, r.p_masked - r.p_original) / r.p_original for r in recs)
    ai = 100.0 / n * sum(1.0 for r in recs if r.p_original < r.p_masked)
    ins = (
        sum(r.insertion for r in recs) / n if recs[0].insertion is not None else None
    )
    dele = sum(r.deletion for r in recs) / n if recs[0].deletion is not None else None
    return ad, ag, ai, ins, dele


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
    mean insertion/deletion AUCs when `curve_cfg` is given."""
    if len(dataset) == 0:
        raise ValueError("dataset must be nonempty")
    recs = [
        _eval_image(model, dataset, i, method, layer, class_policy, curve_cfg)
        for i in range(len(dataset))
    ]
    ad, ag, ai, ins, dele = _aggregate(recs)
    return MetricsReport(
        method=method.name,
        class_policy=class_policy,
        n=len(recs),
        ad=ad,
        ag=ag,
        ai=ai,
        insertion=ins,
        deletion=dele,
        per_image=recs if keep_per_image else None,
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
