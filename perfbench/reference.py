"""A tinycnn written with plain numpy, used to check the program's outputs.

It knows the tinycnn layout (3x3 same-padded conv + bias, ReLU and 2x2 max
pool per block, global average pool, linear head) and the parameter names
`block{i}.conv0.w/b` and `head.w/b`, and nothing else of the program.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

POOL = 2
NORM_GUARD = 1e-12  # per-example cosine terms with a smaller norm count as 0


def params_of(model) -> dict[str, np.ndarray]:
    return {p.name: p.data for p in model.params}


def _n_blocks(params) -> int:
    n = 0
    while f"block{n + 1}.conv0.w" in params:
        n += 1
    return n


def _windows(a, k):
    p = k // 2
    padded = np.pad(a, ((0, 0), (0, 0), (p, p), (p, p)))
    return sliding_window_view(padded, (k, k), axis=(2, 3))  # (n, c, h, w, k, k)


def _conv(x, w, b):
    return np.einsum("nchwij,ocij->nohw", _windows(x, w.shape[-1]), w) + b[None, :, None, None]


def _conv_input_grad(g, w):
    return np.einsum("nohwij,ocij->nchw", _windows(g, w.shape[-1]), w[:, :, ::-1, ::-1])


def _pool(a):
    n, c, h, w = a.shape
    ho, wo = h // POOL, w // POOL
    win = (
        a[:, :, : ho * POOL, : wo * POOL]
        .reshape(n, c, ho, POOL, wo, POOL)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, ho, wo, POOL * POOL)
    )
    pick = win.argmax(axis=-1)  # first maximum in row-major window order
    return np.take_along_axis(win, pick[..., None], axis=-1)[..., 0], pick


def _unpool(g, pick, shape):
    n, c, h, w = shape
    ho, wo = g.shape[2:]
    win = np.zeros((n, c, ho, wo, POOL * POOL))
    np.put_along_axis(win, pick[..., None], g[..., None], axis=-1)
    out = np.zeros(shape)
    out[:, :, : ho * POOL, : wo * POOL] = (
        win.reshape(n, c, ho, wo, POOL, POOL).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho * POOL, wo * POOL)
    )
    return out


def forward(params, x):
    """Logits, the map that feeds global average pooling, and the per-block
    cache (pre-activation, pool choice) that the backward pass needs."""
    h = x
    cache = []
    for i in range(1, _n_blocks(params) + 1):
        z = _conv(h, params[f"block{i}.conv0.w"], params[f"block{i}.conv0.b"])
        h, pick = _pool(np.maximum(z, 0.0))
        cache.append((z, pick))
    logits = h.mean(axis=(2, 3)) @ params["head.w"].T + params["head.b"]
    return logits, h, cache


def softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def probs(params, x):
    return softmax(forward(params, x)[0])


def input_grad(params, x, targets, guided=False):
    """Mean cross-entropy over the batch, its gradient with respect to the
    input, and the activation pattern (ReLU gates and pool choices) at x.

    guided=True applies the guided-backprop rule at every ReLU: only positive
    gradients pass a gate that is open.
    """
    logits, gap_input, cache = forward(params, x)
    n = x.shape[0]
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    ce = float(np.mean(lse - shifted[rows, targets]))
    g_logits = softmax(logits)
    g_logits[rows, targets] -= 1.0
    g_logits /= n
    hw = gap_input.shape[2] * gap_input.shape[3]
    g = np.broadcast_to((g_logits @ params["head.w"])[:, :, None, None] / hw, gap_input.shape)
    pattern = []
    for i in range(len(cache), 0, -1):
        z, pick = cache[i - 1]
        g = _unpool(g, pick, z.shape)
        gate = z > 0
        g = (np.maximum(g, 0.0) if guided else g) * gate
        g = _conv_input_grad(g, params[f"block{i}.conv0.w"])
        pattern.append((gate, pick))
    return ce, g, pattern


def total_loss(params, x, targets, lam, guided_ref):
    """Cross-entropy plus lam times the mean negative cosine between the
    standard input-gradient at `params` and the fixed guided gradient."""
    ce, d, pattern = input_grad(params, x, targets)
    if lam == 0.0:
        return ce, d, pattern
    n = x.shape[0]
    a = d.reshape(n, -1)
    b = guided_ref.reshape(n, -1)
    sq_a = (a * a).sum(axis=1)
    sq_b = (b * b).sum(axis=1)
    keep = (np.sqrt(sq_a) >= NORM_GUARD) & (np.sqrt(sq_b) >= NORM_GUARD)
    cos = np.where(keep, (a * b).sum(axis=1) / np.sqrt(np.where(keep, sq_a * sq_b, 1.0)), 0.0)
    return ce + lam * float(np.mean(-cos)), d, pattern


def same_pattern(p, q) -> bool:
    return all(np.array_equal(a1, a2) and np.array_equal(b1, b2) for (a1, b1), (a2, b2) in zip(p, q))
