"""CAM-family saliency maps and raw input-gradient visualization.

All maps are built as a rectified weighted sum of one layer's feature maps;
methods differ only in how the channel weights are computed. Gradient-based
weights use the pre-softmax logit of the target class. Each method's
`weights_and_maps` takes a batch of images, each with its own class, and
runs a fixed number of forwards whatever the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .losses import _gradient_pair
from .tensor import Tape, Tensor, backward


@dataclass
class SaliencyMap:
    raw: np.ndarray         # (Hf, Wf), nonnegative
    normalized: np.ndarray  # (H, W) in [0,1]; all zeros when raw is constant


def minmax_norm(a: np.ndarray) -> np.ndarray:
    """Min-max normalization of each map over the last two axes; a constant
    map normalizes to all zeros."""
    lo = a.min(axis=(-2, -1), keepdims=True)
    span = a.max(axis=(-2, -1), keepdims=True) - lo
    flat = span == 0.0
    return np.where(flat, 0.0, (a - lo) / np.where(flat, 1.0, span))


def bilinear_upsample(a: np.ndarray, out_hw) -> np.ndarray:
    """Corner-aligned bilinear interpolation of the maps in the last two axes,
    rows then columns, each in the lerp form a0 + (a1 - a0)*f, which is exact
    between equal neighbours: a constant map stays constant."""
    h, w = a.shape[-2:]
    hh, ww = out_hw
    ys = np.linspace(0.0, h - 1.0, hh) if hh > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, ww) if ww > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    rows = a[..., y0, :] + (a[..., y1, :] - a[..., y0, :]) * fy
    return rows[..., x0] + (rows[..., x1] - rows[..., x0]) * fx


def _identity(x):
    return x


def _check_targets(model, cs, n: int) -> np.ndarray:
    """The classes of a batch of n images as an index array, one per image."""
    cs = np.asarray(cs, dtype=np.int64)
    if cs.shape != (n,):
        raise ValueError(f"need one class per image: {cs.shape} for {n} images")
    for c in cs:
        if not 0 <= c < model.spec.num_classes:
            raise ValueError(f"class {c} out of range for {model.spec.num_classes} classes")
    return cs


def pick_classes(rows: np.ndarray, cs) -> np.ndarray:
    """Column cs[b] of image b's rows, from rows laid out image by image with
    the same count for each of the len(cs) images: (images, rows per image)."""
    n = len(cs)
    return rows.reshape(n, -1, rows.shape[-1])[np.arange(n), :, cs]


def _logit_and_activation_grad(model, x_norm, cs, layer):
    """Feature maps A and dy_c/dA for a batch, as (N,K,h,w) each, from one
    forward and one backward of the sum of each image's class logit: images
    do not interact, so each image's gradient is its own."""
    cs = _check_targets(model, cs, len(x_norm))
    layer = model.resolve_layer(layer)
    tape = Tape()
    fwd = model.forward(Tensor(x_norm), tape)
    amap = fwd.feature_maps[layer]
    onehot = np.zeros((len(cs), model.spec.num_classes))
    onehot[np.arange(len(cs)), cs] = 1.0
    y = T.reduce_sum(T.mul(fwd.logits, Tensor(onehot)))
    (grad,) = backward(y, [amap])
    return amap.data, grad.data


class GradCam:
    """Channel weights are the spatial average of dy_c/dA."""

    name = "gradcam"

    def weights_and_maps(self, model, x_raw, cs, layer, prep=_identity):
        amap, grad = _logit_and_activation_grad(model, prep(x_raw), cs, layer)
        return grad.mean(axis=(2, 3)), amap


class GradCamPP:
    """Positive-gradient weighting with the closed-form power substitution
    (g^2, g^3) for the higher-order terms; zero denominators give weight 0."""

    name = "gradcampp"

    def weights_and_maps(self, model, x_raw, cs, layer, prep=_identity):
        amap, grad = _logit_and_activation_grad(model, prep(x_raw), cs, layer)
        g2 = grad * grad
        g3 = g2 * grad
        sum_a = amap.sum(axis=(2, 3))
        denom = 2.0 * g2 + sum_a[:, :, None, None] * g3
        w = np.where(denom != 0.0, g2 / np.where(denom == 0.0, 1.0, denom), 0.0)
        alpha = (w * np.maximum(grad, 0.0)).sum(axis=(2, 3))
        return alpha, amap


class AxiomCam:
    """Activation-weighted gradient sums normalized per channel; 0/0 -> 0."""

    name = "axiomcam"

    def weights_and_maps(self, model, x_raw, cs, layer, prep=_identity):
        amap, grad = _logit_and_activation_grad(model, prep(x_raw), cs, layer)
        sum_a = amap.sum(axis=(2, 3))
        num = (amap * grad).sum(axis=(2, 3))
        alpha = np.where(sum_a != 0.0, num / np.where(sum_a == 0.0, 1.0, sum_a), 0.0)
        return alpha, amap


class ScoreCam:
    """Gradient-free weights: per channel, the probability change between the
    input masked by the channel's normalized upsampled map and a black
    image. One forward each gives the black baseline, the maps of the N
    images and all N*K scores; the baseline is computed on every call."""

    name = "scorecam"

    def weights_and_maps(self, model, x_raw, cs, layer, prep=_identity):
        cs = _check_targets(model, cs, len(x_raw))
        layer = model.resolve_layer(layer)
        black = prep(np.zeros((1,) + x_raw.shape[1:]))
        base = model.forward(black).probs.data[0, cs]
        amap = model.forward(prep(x_raw)).feature_maps[layer].data
        masks = minmax_norm(bilinear_upsample(amap, x_raw.shape[2:]))
        masked = (x_raw[:, None] * masks[:, :, None]).reshape((-1,) + x_raw.shape[1:])
        scores = pick_classes(model.forward(prep(masked)).probs.data, cs)
        return scores - base[:, None], amap


class AblationCam:
    """Weights are the relative logit drop when one channel is zeroed. The
    N*K maps, each with one channel of one image zeroed, are injected into
    one forward of the images, so a batch costs two forwards; a zero logit
    gives all-zero weights."""

    name = "ablationcam"

    def weights_and_maps(self, model, x_raw, cs, layer, prep=_identity):
        cs = _check_targets(model, cs, len(x_raw))
        layer = model.resolve_layer(layer)
        xn = prep(x_raw)
        fwd = model.forward(xn)
        amap = fwd.feature_maps[layer].data
        n, k = amap.shape[:2]
        y_c = pick_classes(fwd.logits.data, cs)
        ablated = np.repeat(amap[:, None], k, axis=1)
        ablated[:, np.arange(k), np.arange(k)] = 0.0
        ablated = ablated.reshape((n * k,) + amap.shape[1:])
        y_abl = pick_classes(model.forward(xn, inject={layer: ablated}).logits.data, cs)
        zero = y_c == 0.0
        return np.where(zero, 0.0, (y_c - y_abl) / np.where(zero, 1.0, y_c)), amap


METHODS = {m.name: m for m in (GradCam, GradCamPP, ScoreCam, AblationCam, AxiomCam)}


def make_method(name: str):
    if name not in METHODS:
        raise ValueError(f"unknown saliency method {name!r} (have {sorted(METHODS)})")
    return METHODS[name]()


def compose_saliency(weights, feature_maps, input_hw):
    """The saliency maps of a batch from its (N,K) channel weights and
    (N,K,h,w) feature maps: the ReLU-rectified weighted sums, (N,h,w), and
    those upsampled to input_hw and min-max normalized (a constant map
    normalizes to all zeros), (N,H,W)."""
    weights = np.asarray(weights, dtype=np.float64)
    n, k, h, w = feature_maps.shape
    if weights.shape != (n, k):
        raise ValueError(f"need one weight per channel: {weights.shape} vs {(n, k)}")
    raw = np.matmul(weights[:, None], feature_maps.reshape(n, k, h * w)).reshape(n, h, w)
    raw = np.maximum(0.0, raw)
    return raw, minmax_norm(bilinear_upsample(raw, input_hw))


def saliency_for(model, x_raw, c, layer, method, prep=_identity) -> SaliencyMap:
    """The saliency map of one (C,H,W) image for class c."""
    alpha, amap = method.weights_and_maps(model, x_raw[None], [c], layer, prep)
    raw, normalized = compose_saliency(alpha, amap, x_raw.shape[1:])
    return SaliencyMap(raw[0], normalized[0])


def input_gradient_maps(model, x, t) -> tuple[np.ndarray, np.ndarray]:
    """The standard and guided maps of one model-space (already normalized)
    (C,H,W) input for loss target t, from one forward: per pixel, the max
    over channels of |dL_C/dx|, min-max normalized to [0,1]."""
    _check_targets(model, [t], 1)
    _, _, d_std, d_guided = _gradient_pair(model, np.asarray(x)[None], [t])
    return tuple(minmax_norm(np.max(np.abs(g.data[0]), axis=0)) for g in (d_std, d_guided))
