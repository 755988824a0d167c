"""CAM-family saliency maps and raw input-gradient visualization.

All maps are built as a rectified weighted sum of one layer's feature maps;
methods differ only in how the channel weights are computed. Gradient-based
weights use the pre-softmax logit of the target class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .losses import _forward_ce
from .tensor import GradMode, Tape, Tensor, backward


@dataclass
class SaliencyMap:
    raw: np.ndarray         # (Hf, Wf), nonnegative
    upsampled: np.ndarray   # (H, W)
    normalized: np.ndarray  # (H, W) in [0,1]; all zeros when raw is constant
    target_class: int
    method: str


def minmax_norm(a: np.ndarray) -> np.ndarray:
    lo = float(a.min())
    hi = float(a.max())
    if hi == lo:
        return np.zeros_like(a)
    return (a - lo) / (hi - lo)


def bilinear_upsample(a: np.ndarray, out_hw) -> np.ndarray:
    """Corner-aligned bilinear interpolation of a 2-D map, rows then columns,
    each in the lerp form a0 + (a1 - a0)*f, which is exact between equal
    neighbours: a constant map stays constant."""
    h, w = a.shape
    hh, ww = out_hw
    ys = np.linspace(0.0, h - 1.0, hh) if hh > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, ww) if ww > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    rows = a[y0] + (a[y1] - a[y0]) * fy
    return rows[:, x0] + (rows[:, x1] - rows[:, x0]) * fx


def _identity(x):
    return x


def _check_target(model, c):
    if not 0 <= c < model.spec.num_classes:
        raise ValueError(f"class {c} out of range for {model.spec.num_classes} classes")


def _logit_and_activation_grad(model, x_norm, c, layer):
    """Feature maps A and dy_c/dA for one image; returns (A, G) as (K,h,w)."""
    _check_target(model, c)
    layer = model.resolve_layer(layer)
    tape = Tape()
    fwd = model.forward(Tensor(x_norm[None]), tape)
    amap = fwd.feature_maps[layer]
    onehot = np.zeros((1, model.spec.num_classes))
    onehot[0, c] = 1.0
    y_c = T.reduce_sum(T.mul(fwd.logits, Tensor(onehot, _copy=False)))
    (grad,) = backward(y_c, [amap])
    return amap.data[0], grad.data[0]


class GradCam:
    """Channel weights are the spatial average of dy_c/dA."""

    name = "gradcam"

    def weights_and_maps(self, model, x_raw, c, layer, prep=_identity):
        amap, grad = _logit_and_activation_grad(model, prep(x_raw), c, layer)
        return grad.mean(axis=(1, 2)), amap


class GradCamPP:
    """Positive-gradient weighting with the closed-form power substitution
    (g^2, g^3) for the higher-order terms; zero denominators give weight 0."""

    name = "gradcampp"

    def weights_and_maps(self, model, x_raw, c, layer, prep=_identity):
        amap, grad = _logit_and_activation_grad(model, prep(x_raw), c, layer)
        g2 = grad * grad
        g3 = g2 * grad
        sum_a = amap.sum(axis=(1, 2))
        denom = 2.0 * g2 + sum_a[:, None, None] * g3
        w = np.where(denom != 0.0, g2 / np.where(denom == 0.0, 1.0, denom), 0.0)
        alpha = (w * np.maximum(grad, 0.0)).sum(axis=(1, 2))
        return alpha, amap


class AxiomCam:
    """Activation-weighted gradient sums normalized per channel; 0/0 -> 0."""

    name = "axiomcam"

    def weights_and_maps(self, model, x_raw, c, layer, prep=_identity):
        amap, grad = _logit_and_activation_grad(model, prep(x_raw), c, layer)
        sum_a = amap.sum(axis=(1, 2))
        num = (amap * grad).sum(axis=(1, 2))
        alpha = np.where(sum_a != 0.0, num / np.where(sum_a == 0.0, 1.0, sum_a), 0.0)
        return alpha, amap


class ScoreCam:
    """Gradient-free weights: per channel, the probability change between the
    input masked by the channel's normalized upsampled map and a black
    image. One forward each gives the baseline, the maps and all K scores;
    the baseline is computed on every call."""

    name = "scorecam"

    def weights_and_maps(self, model, x_raw, c, layer, prep=_identity):
        _check_target(model, c)
        layer = model.resolve_layer(layer)
        black = prep(np.zeros(x_raw.shape))[None]
        base = model.forward(black).probs.data[0, c]
        fwd = model.forward(prep(x_raw)[None])
        amap = fwd.feature_maps[layer].data[0]
        k = amap.shape[0]
        hw = x_raw.shape[1:]
        masks = np.stack([minmax_norm(bilinear_upsample(amap[i], hw)) for i in range(k)])
        masked = x_raw[None, :, :, :] * masks[:, None, :, :]
        scores = model.forward(np.stack([prep(m) for m in masked])).probs.data[:, c]
        return scores - base, amap


class AblationCam:
    """Weights are the relative logit drop when one channel is zeroed. The K
    maps, each with one channel zeroed, are injected into one forward of the
    image, so an image costs two forwards; a zero logit gives all-zero weights."""

    name = "ablationcam"

    def weights_and_maps(self, model, x_raw, c, layer, prep=_identity):
        _check_target(model, c)
        layer = model.resolve_layer(layer)
        xn = prep(x_raw)[None]
        fwd = model.forward(xn)
        amap = fwd.feature_maps[layer].data[0]
        y_c = fwd.logits.data[0, c]
        k = amap.shape[0]
        if y_c == 0.0:
            return np.zeros(k), amap
        ablated = np.repeat(amap[None], k, axis=0)
        ablated[np.arange(k), np.arange(k)] = 0.0
        y_abl = model.forward(xn, inject={layer: ablated}).logits.data[:, c]
        return (y_c - y_abl) / y_c, amap


_METHODS = {m.name: m for m in (GradCam, GradCamPP, ScoreCam, AblationCam, AxiomCam)}


def make_method(name: str):
    if name not in _METHODS:
        raise ValueError(f"unknown saliency method {name!r} (have {sorted(_METHODS)})")
    return _METHODS[name]()


def cam_weights(method, model, x_raw, c, layer, prep=_identity) -> np.ndarray:
    alpha, _ = method.weights_and_maps(model, x_raw, c, layer, prep)
    return alpha


def compose_saliency(weights, feature_maps, input_hw, target_class=-1, method="") -> SaliencyMap:
    """ReLU-rectified weighted sum of feature maps, upsampled and min-max
    normalized (constant maps normalize to all zeros)."""
    weights = np.asarray(weights, dtype=np.float64)
    feature_maps = np.asarray(feature_maps, dtype=np.float64)
    if weights.shape != (feature_maps.shape[0],):
        raise ValueError(
            f"need one weight per channel: {weights.shape} vs {feature_maps.shape[0]}"
        )
    raw = np.maximum(0.0, np.tensordot(weights, feature_maps, axes=(0, 0)))
    upsampled = bilinear_upsample(raw, input_hw)
    return SaliencyMap(raw, upsampled, minmax_norm(upsampled), target_class, method)


def saliency_for(model, x_raw, c, layer, method, prep=_identity) -> SaliencyMap:
    alpha, amap = method.weights_and_maps(model, x_raw, c, layer, prep)
    smap = compose_saliency(alpha, amap, x_raw.shape[1:], target_class=c, method=method.name)
    return smap


def input_gradient_map(model, x, t, mode: GradMode = GradMode.STANDARD) -> np.ndarray:
    """Per-pixel max over channels of |dL_C/dx|, min-max normalized to [0,1].

    x is the model-space input (already normalized); t is the loss target.
    """
    _check_target(model, t)
    ce, _, xw = _forward_ce(model, np.asarray(x)[None], [t])
    (g,) = backward(ce, [xw], mode=mode)
    flat = np.max(np.abs(g.data[0]), axis=0)
    return minmax_norm(flat)
