"""Dense float64 tensors with a tape-based reverse-mode autodiff engine.

The backward pass is itself built from the same primitive ops, so gradients
can be differentiated again (create_graph). In guided mode (GradMode) the
sweep passes only the positive part of the gradient into each ReLU.

Each op is one public function that computes its forward in numpy and
records its output tensor as a tape node, followed by its backward rule
`bwd(node, g)`, which returns one zero-argument thunk per input. `backward`
computes only the adjoints it returns: a scan of the tape marks the nodes
that are, or depend on, a `wrt` tensor, and the sweep calls the thunks of
those live inputs only.

A tape holds its nodes weakly and a node holds its inputs, so a step's tape
and every array on it are freed with the last tensor that reaches them.
"""

from __future__ import annotations

import enum
import weakref
from contextlib import contextmanager

import numpy as np


class GradMode(enum.Enum):
    STANDARD = "standard"
    GUIDED = "guided"


class Tape:
    """Append-only record of primitive ops; one tape per thread of execution.
    `nodes[i]` weakly references the i-th recorded tensor, after its inputs."""

    def __init__(self):
        self.nodes: list[weakref.ref] = []
        self._recording = True

    def __len__(self):
        return len(self.nodes)

    def _record(self, out: "Tensor", op, inputs, attrs) -> "Tensor":
        out.tape, out.op, out.inputs, out.attrs = self, op, inputs, attrs
        out.idx = len(self.nodes)
        self.nodes.append(weakref.ref(out))
        return out

    def watch(self, t: "Tensor") -> "Tensor":
        """Return an alias of t registered as a differentiable leaf on this tape."""
        return self._record(Tensor(t.data), "leaf", (), None)

    @contextmanager
    def paused(self):
        prev = self._recording
        self._recording = False
        try:
            yield
        finally:
            self._recording = prev


class Tensor:
    """N-d array of float64, optionally on a tape; a float64 array is held
    without a copy, so its owner must not mutate it. A recorded tensor is its
    own tape node, with `op`, `inputs`, `attrs` and index `idx`."""

    __slots__ = ("data", "tape", "op", "inputs", "attrs", "idx", "__weakref__")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape: Tape | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        tag = "" if self.tape is None else f", tape@{self.idx}"
        return f"Tensor(shape={self.shape}{tag})"


def detach(t: Tensor) -> Tensor:
    """Same data and shape, no tape node: a stop-gradient constant."""
    return Tensor(t.data)


# --------------------------------------------------------------------------
# ops: each public op computes its forward in numpy and records one node
# --------------------------------------------------------------------------

# kind -> bwd(node, g), which returns one zero-argument thunk per input that
# builds that input's adjoint
_REGISTRY: dict = {}


def _rule(kind):
    def register(bwd):
        _REGISTRY[kind] = bwd
        return bwd

    return register


def _tape_of(inputs) -> Tape | None:
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("inputs recorded on different tapes")
    if tape is not None and not tape._recording:
        return None
    return tape


def _apply(kind: str, out_data, inputs, attrs=None) -> Tensor:
    out = Tensor(out_data)
    tape = _tape_of(inputs)
    if tape is not None:
        tape._record(out, kind, tuple(inputs), attrs)
    return out


def _shape_err(kind, *extents):
    return ValueError(f"{kind}: incompatible shapes {' vs '.join(map(str, extents))}")


def _same_shape(kind, a, b):
    if a.shape != b.shape:
        raise _shape_err(kind, a.shape, b.shape)


# ---- elementwise arithmetic (operands of equal shape) ----

def add(a, b):
    _same_shape("add", a, b)
    return _apply("add", a.data + b.data, [a, b])


@_rule("add")
def _add_bwd(node, g):
    return [lambda: g, lambda: g]


def sub(a, b):
    _same_shape("sub", a, b)
    return _apply("sub", a.data - b.data, [a, b])


@_rule("sub")
def _sub_bwd(node, g):
    return [lambda: g, lambda: neg(g)]


def mul(a, b):
    _same_shape("mul", a, b)
    return _apply("mul", a.data * b.data, [a, b])


@_rule("mul")
def _mul_bwd(node, g):
    a, b = node.inputs
    return [lambda: mul(g, b), lambda: mul(g, a)]


def div(a, b):
    _same_shape("div", a, b)
    return _apply("div", a.data / b.data, [a, b])


@_rule("div")
def _div_bwd(node, g):
    b = node.inputs[1]
    return [lambda: div(g, b), lambda: neg(div(mul(g, node), b))]


def scale(a, factor: float):
    factor = float(factor)
    return _apply("scale", a.data * factor, [a], {"factor": factor})


@_rule("scale")
def _scale_bwd(node, g):
    return [lambda: scale(g, node.attrs["factor"])]


def neg(a):
    return scale(a, -1.0)


def minimum(a, b):
    _same_shape("minimum", a, b)
    return _apply("minimum", np.minimum(a.data, b.data), [a, b])


@_rule("minimum")
def _minimum_bwd(node, g):
    a, b = node.inputs
    # ties route to the first argument
    return [
        lambda: mul(g, Tensor((a.data <= b.data).astype(np.float64))),
        lambda: mul(g, Tensor((b.data < a.data).astype(np.float64))),
    ]


# ---- elementwise functions ----

def relu(a):
    return _apply("relu", np.maximum(a.data, 0.0), [a])


@_rule("relu")
def _relu_bwd(node, g):
    gate = Tensor((node.inputs[0].data > 0).astype(np.float64))
    return [lambda: mul(g, gate)]


def absolute(a):
    return _apply("abs", np.abs(a.data), [a])


@_rule("abs")
def _abs_bwd(node, g):
    # subgradient 0 at exactly 0
    sign = Tensor(np.sign(node.inputs[0].data))
    return [lambda: mul(g, sign)]


def sqrt(a):
    return _apply("sqrt", np.sqrt(a.data), [a])


@_rule("sqrt")
def _sqrt_bwd(node, g):
    return [lambda: div(g, scale(node, 2.0))]


# ---- shape movement ----

def reshape(a, shape):
    return _apply("reshape", np.reshape(a.data, tuple(shape)), [a])


@_rule("reshape")
def _reshape_bwd(node, g):
    return [lambda: reshape(g, node.inputs[0].shape)]


def broadcast_to(a, shape):
    shape = tuple(shape)
    if len(a.shape) != len(shape) or any(s not in (1, t) for s, t in zip(a.shape, shape)):
        raise _shape_err("broadcast_to", a.shape, shape)
    return _apply("broadcast_to", np.ascontiguousarray(np.broadcast_to(a.data, shape)), [a])


@_rule("broadcast_to")
def _broadcast_to_bwd(node, g):
    x = node.inputs[0]
    axes = tuple(
        i for i, (s, t) in enumerate(zip(x.shape, g.shape)) if s == 1 and t != 1
    )
    return [lambda: reduce_sum(g, axis=axes, keepdims=True) if axes else g]


def reduce_sum(a, axis=None, keepdims=False):
    out = np.asarray(np.sum(a.data, axis=axis, keepdims=keepdims))
    return _apply("sum", out, [a], {"axis": axis, "keepdims": keepdims})


@_rule("sum")
def _sum_bwd(node, g):
    x = node.inputs[0]
    axis = node.attrs["axis"]
    if axis is None:
        axes = tuple(range(len(x.shape)))
    elif isinstance(axis, int):
        axes = (axis,)
    else:
        axes = tuple(axis)
    kshape = tuple(1 if i in axes else s for i, s in enumerate(x.shape))

    def make():
        gk = g if node.attrs["keepdims"] else reshape(g, kshape)
        return broadcast_to(gk, x.shape) if x.shape else gk

    return [make]


def mean(a, axis=None):
    """Mean over every element, or over the axes in the tuple `axis`."""
    count = a.size if axis is None else int(np.prod([a.shape[i] for i in axis]))
    return scale(reduce_sum(a, axis=axis), 1.0 / count)


# ---- linear algebra ----

def transpose(a):
    return _apply("transpose", a.data.T, [a])


@_rule("transpose")
def _transpose_bwd(node, g):
    return [lambda: transpose(g)]


def linear(x, w, b=None):
    if len(x.shape) != 2 or len(w.shape) != 2 or x.shape[1] != w.shape[1]:
        raise _shape_err("linear", x.shape, w.shape)
    out = x.data @ w.data.T
    if b is None:
        return _apply("linear", out, [x, w])
    if b.shape != (w.shape[0],):
        raise _shape_err("linear bias", b.shape, (w.shape[0],))
    return _apply("linear", out + b.data, [x, w, b])


@_rule("linear")
def _linear_bwd(node, g):
    x, w = node.inputs[:2]
    # g @ w and g.T @ x, each a linear against a transposed view; a thunk past
    # the node's inputs (an absent bias) is never called
    return [
        lambda: linear(g, transpose(w)),
        lambda: linear(transpose(g), transpose(x)),
        lambda: reduce_sum(g, axis=0),
    ]


# ---- convolution family (a mutually adjoint triple). conv2d and
# conv2d_input_grad build the zero-padded columns of their operand one block
# of images at a time and contract each block with one matmul;
# conv2d_kernel_grad contracts over the images, so it builds all their
# columns at once. Every matmul operand is C-contiguous, so the bytes do not
# depend on the memory layout of the inputs ----

# bytes of columns per block in _correlate: half of a 2 MiB per-core L2
# cache, so each block's matmul reads its columns from cache, not memory
COL_BUDGET = 1 << 20


def _span(size, out, pad, i):
    """The output positions [lo, hi) whose input position o + i - pad lies in
    [0, size): the rows or columns that kernel offset i reads from the input."""
    lo = max(0, pad - i)
    return lo, max(lo, min(out, size + pad - i))


def _fill_columns(cols, a, ph, pw):
    """Write the im2col of an (n, c, H, W) stack, padded by (ph, pw), into
    cols, a C-contiguous (c, kh, kw, n, ho, wo) buffer: its [:, i, j] slab is
    the input shifted by (i - ph, j - pw). Only positions inside the input
    are written, so a zero-filled buffer keeps its zero border, the padding."""
    hh, ww = a.shape[2:]
    _, kh, kw, _, ho, wo = cols.shape
    src = a.transpose(1, 0, 2, 3)
    for i in range(kh):
        y0, y1 = _span(hh, ho, ph, i)
        for j in range(kw):
            x0, x1 = _span(ww, wo, pw, j)
            cols[:, i, j, :, y0:y1, x0:x1] = src[:, :, y0 + i - ph : y1 + i - ph, x0 + j - pw : x1 + j - pw]
    return cols


def _correlate(a, k, ph, pw):
    """Cross-correlation of an (n, c, H, W) stack, zero-padded by (ph, pw),
    with an (o, c, kh, kw) bank: out[n, o, y, x] = sum over c, i, j of
    a[n, c, y + i - ph, x + j - pw] k[o, c, i, j]. Each block of images'
    matmul writes its own images of one (o, n, ho, wo) output."""
    o, c, kh, kw = k.shape
    n, _, hh, ww = a.shape
    ho, wo = hh + 2 * ph - kh + 1, ww + 2 * pw - kw + 1
    km = np.ascontiguousarray(k).reshape(o, -1)
    m = max(1, COL_BUDGET // (8 * c * kh * kw * ho * wo))
    out = np.empty((o, n * ho * wo))
    # zero-filled once and reused by every full block; a shorter last
    # block takes a buffer of its own size
    cols = np.zeros((c, kh, kw, min(m, n), ho, wo))
    for s in range(0, n, m):
        blk = a[s : s + m]
        if len(blk) < cols.shape[3]:
            cols = np.zeros((c, kh, kw, len(blk), ho, wo))
        _fill_columns(cols, blk, ph, pw)
        np.matmul(km, cols.reshape(c * kh * kw, -1), out=out[:, s * ho * wo : (s + len(blk)) * ho * wo])
    return out.reshape(o, n, ho, wo).transpose(1, 0, 2, 3)


def _check_conv(kind, a, k, ph, pw):
    """Raise, naming the op, unless the (n, c, H, W) stack a meets the
    (o, c, kh, kw) bank k in its channels and covers the kernel once padded."""
    if a.ndim != 4 or a.shape[1] != k.shape[1]:
        raise _shape_err(kind, a.shape, k.shape)
    if a.shape[2] + 2 * ph < k.shape[2] or a.shape[3] + 2 * pw < k.shape[3]:
        raise ValueError(f"{kind}: kernel {k.shape[2:]} larger than padded input "
                         f"{(a.shape[2] + 2 * ph, a.shape[3] + 2 * pw)}")


def conv2d(x, w, b=None, padding=0):
    padding = int(padding)
    if len(w.shape) != 4:
        raise _shape_err("conv2d", x.shape, w.shape)
    co, _, kh, kw = w.shape
    # the input adjoint pads g by k - 1 - padding, which must not be negative
    if not 0 <= padding < min(kh, kw):
        raise ValueError(f"conv2d: padding {padding} outside 0..{min(kh, kw) - 1}")
    _check_conv("conv2d", x.data, w.data, padding, padding)
    out = _correlate(x.data, w.data, padding, padding)
    if b is None:
        return _apply("conv2d", out, [x, w], {"padding": padding})
    if b.shape != (co,):
        raise _shape_err("conv2d bias", b.shape, (co,))
    out += b.data[None, :, None, None]
    return _apply("conv2d", out, [x, w, b], {"padding": padding})


@_rule("conv2d")
def _conv2d_bwd(node, g):
    x, w = node.inputs[:2]
    p = node.attrs["padding"]
    return [
        lambda: conv2d_input_grad(g, w, p),
        lambda: conv2d_kernel_grad(x, g, p),
        lambda: reduce_sum(g, axis=(0, 2, 3)),
    ]


def conv2d_input_grad(g, w, padding):
    """Adjoint of conv2d in x: the gradient of sum(conv2d(x, w) * g) w.r.t. x,
    the full correlation of g with the flipped, channel-swapped kernel."""
    if len(w.shape) != 4:
        raise _shape_err("conv2d_input_grad", g.shape, w.shape)
    kh, kw = w.shape[2:]
    flipped = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    ph, pw = kh - 1 - padding, kw - 1 - padding
    _check_conv("conv2d_input_grad", g.data, flipped, ph, pw)
    gx = _correlate(g.data, flipped, ph, pw)
    return _apply("conv2d_input_grad", gx, [g, w], {"padding": padding})


@_rule("conv2d_input_grad")
def _conv2d_input_grad_bwd(node, g):
    # bilinear in (gout, w): adjoints swap back through conv2d / kernel-corr
    gout, w = node.inputs
    p = node.attrs["padding"]
    return [lambda: conv2d(g, w, padding=p), lambda: conv2d_kernel_grad(g, gout, p)]


def conv2d_kernel_grad(x, g, padding):
    """Adjoint of conv2d in w: the gradient of sum(conv2d(x, w) * g) w.r.t. w,
    the correlation of the padded input with g over the batch."""
    xd, gd = x.data, g.data
    if xd.ndim != 4 or gd.ndim != 4 or xd.shape[0] != gd.shape[0]:
        raise _shape_err("conv2d_kernel_grad", xd.shape, gd.shape)
    kh, kw = xd.shape[2] + 2 * padding - gd.shape[2] + 1, xd.shape[3] + 2 * padding - gd.shape[3] + 1
    if kh < 1 or kw < 1:
        raise _shape_err("conv2d_kernel_grad", xd.shape, gd.shape)
    c, o = xd.shape[1], gd.shape[1]
    cols = _fill_columns(np.zeros((c, kh, kw, xd.shape[0], *gd.shape[2:])), xd, padding, padding)
    gmat = np.ascontiguousarray(gd.transpose(0, 2, 3, 1)).reshape(-1, o)
    gw = (cols.reshape(c * kh * kw, -1) @ gmat).reshape(c, kh, kw, o).transpose(3, 0, 1, 2)
    return _apply("conv2d_kernel_grad", gw, [x, g], {"padding": padding})


@_rule("conv2d_kernel_grad")
def _conv2d_kernel_grad_bwd(node, g):
    x, gout = node.inputs
    p = node.attrs["padding"]
    return [lambda: conv2d_input_grad(gout, g, p), lambda: conv2d(x, g, padding=p)]


# ---- pooling (non-overlapping POOL x POOL windows). On a recording tape the
# forward gathers at argmax indices, which its backward rules hold as
# constants under differentiation; off a tape no backward reads them, so the
# forward takes each window's maximum directly and records no node ----

POOL = 2


def _pool_slices(x):
    """The POOL*POOL strided slices of an (n, c, H, W) array, one per window
    offset (i, j) in row-major order, each shaped like the pooled map; an odd
    last row or column is cropped."""
    hh, ww = x.shape[2:]
    ho, wo = hh // POOL, ww // POOL
    if ho < 1 or wo < 1:
        raise ValueError(f"maxpool2d: pool {POOL} larger than input {(hh, ww)}")
    return {
        (i, j): x[:, :, i : POOL * ho : POOL, j : POOL * wo : POOL]
        for i in range(POOL)
        for j in range(POOL)
    }


def _pool_argmax(x):
    """Flat h*w index of each window's maximum, shaped like the pooled map."""
    slices = _pool_slices(x)
    # the first maximum, the lowest linear index, wins a tie
    pick = np.argmax(np.stack(list(slices.values()), axis=-1), axis=-1)
    ho, wo, ww = pick.shape[2], pick.shape[3], x.shape[3]
    offsets = np.array([i * ww + j for i, j in slices])
    base = np.arange(ho)[:, None] * POOL * ww + np.arange(wo)[None, :] * POOL
    return base + offsets[pick]


def maxpool2d(x):
    """Maxima of non-overlapping POOL x POOL windows. On a recording tape, a
    pool_gather at argmax indices taken once, here; off one, the elementwise
    maximum of the window slices, with no node and no indices. Both keep the
    first of tied values (so -0.0 vs +0.0 resolve alike), which makes their
    outputs bit-identical on NaN-free input; with NaNs, the same outputs are
    NaN, but a window holding both +nan and -nan may keep either sign."""
    if _tape_of([x]) is not None:
        return pool_gather(x, _pool_argmax(x.data))
    first, *rest = _pool_slices(x.data).values()
    out = first.copy()
    for s in rest:
        # the running maximum is the second operand: np.maximum returns its
        # second operand on ties, so an earlier window value is kept
        np.maximum(s, out, out=out)
    return Tensor(out)


def pool_gather(x, indices):
    n, c, hh, ww = x.shape
    flat = x.data.reshape(n, c, hh * ww)
    picked = np.take_along_axis(flat, indices.reshape(n, c, -1), axis=2)
    return _apply("pool_gather", picked.reshape(indices.shape), [x], {"indices": indices})


@_rule("pool_gather")
def _pool_gather_bwd(node, g):
    return [lambda: pool_scatter(g, node.attrs["indices"], node.inputs[0].shape[2:])]


def pool_scatter(g, indices, in_hw):
    """Adjoint of pool_gather: g at the flat indices of an in_hw map, zeros elsewhere."""
    hh, ww = in_hw
    n, c = g.shape[0], g.shape[1]
    out = np.zeros((n, c, hh * ww))
    np.put_along_axis(out, indices.reshape(n, c, -1), g.data.reshape(n, c, -1), axis=2)
    return _apply("pool_scatter", out.reshape(n, c, hh, ww), [g], {"indices": indices})


@_rule("pool_scatter")
def _pool_scatter_bwd(node, g):
    return [lambda: pool_gather(g, node.attrs["indices"])]


def global_avg_pool(x):
    if len(x.shape) != 4:
        raise _shape_err("global_avg_pool", x.shape)
    return mean(x, axis=(2, 3))


# ---- softmax / cross-entropy ----

def softmax(x):
    """Row-wise softmax of a 2-D input."""
    if len(x.shape) != 2:
        raise _shape_err("softmax", x.shape)
    e = np.exp(x.data - np.max(x.data, axis=1, keepdims=True))
    return _apply("softmax", e / np.sum(e, axis=1, keepdims=True), [x])


@_rule("softmax")
def _softmax_bwd(node, g):
    p = node

    def make():
        inner = reduce_sum(mul(p, g), axis=1, keepdims=True)
        return mul(p, sub(g, broadcast_to(inner, g.shape)))

    return [make]


def cross_entropy_logits(logits, targets):
    y = logits.data
    if y.ndim != 2:
        raise _shape_err("cross_entropy_logits", y.shape)
    t = np.asarray(targets, dtype=np.int64)
    if t.ndim != 1 or t.shape[0] != y.shape[0]:
        raise _shape_err("cross_entropy_logits targets", t.shape, y.shape)
    if t.size and (t.min() < 0 or t.max() >= y.shape[1]):
        raise ValueError(
            f"cross_entropy_logits: target out of range for {y.shape[1]} classes"
        )
    m = np.max(y, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(y - m), axis=1)) + m[:, 0]
    out = lse - y[np.arange(y.shape[0]), t]
    return _apply("cross_entropy_logits", out, [logits], {"targets": t})


@_rule("cross_entropy_logits")
def _cross_entropy_logits_bwd(node, g):
    y = node.inputs[0]

    def make():
        onehot = np.zeros(y.shape)
        onehot[np.arange(y.shape[0]), node.attrs["targets"]] = 1.0
        p = softmax(y)
        gcol = broadcast_to(reshape(g, (y.shape[0], 1)), y.shape)
        return mul(sub(p, Tensor(onehot)), gcol)

    return [make]


# --------------------------------------------------------------------------
# backward
# --------------------------------------------------------------------------

def backward(
    output: Tensor,
    wrt,
    *,
    mode: GradMode = GradMode.STANDARD,
    create_graph: bool = False,
):
    """Reverse-mode gradients of a scalar output w.r.t. each tensor in wrt.

    With create_graph the returned gradients carry tape nodes and can be
    differentiated again; guided mode always returns detached tensors.
    """
    if mode is GradMode.GUIDED and create_graph:
        raise ValueError(
            "guided backward is always detached; create_graph=True is not allowed"
        )
    if output.data.size != 1:
        raise ValueError(f"backward: output must be scalar, got shape {output.shape}")
    tape = output.tape
    if tape is None:
        raise ValueError("backward: output is not on a tape")
    wrt = list(wrt)
    for t in wrt:
        if t.tape is not tape:
            raise ValueError("backward: wrt tensor is not on the output's tape")

    start = output.idx
    # inputs precede their node: once the sweep is down to the lowest wrt
    # node, every wrt adjoint is complete and the nodes below feed none of them
    stop = min((t.idx for t in wrt), default=start)

    # a node is live when it is a wrt node or has a live input; only live
    # nodes' adjoints are computed and kept. A freed node reaches no output.
    live = {t.idx for t in wrt}
    for ref in tape.nodes[stop + 1 : start + 1]:
        node = ref()
        if node is not None and any(t.tape is not None and t.idx in live for t in node.inputs):
            live.add(node.idx)
    adjoint = {start: Tensor(np.ones(output.shape))} if start in live else {}

    def sweep():
        for idx in range(start, stop, -1):
            g = adjoint.get(idx)
            if g is None:
                continue
            node = tape.nodes[idx]()
            if node.op == "leaf":
                continue
            if mode is GradMode.GUIDED and node.op == "relu":
                g = relu(g)
            thunks = _REGISTRY[node.op](node, g)
            # build every live adjoint, in input order, before summing any, so
            # the tape records a node's adjoints ahead of their accumulation
            built = [
                (t.idx, make())
                for t, make in zip(node.inputs, thunks)
                if t.tape is not None and t.idx in live
            ]
            for j, gi in built:
                prev = adjoint.get(j)
                adjoint[j] = gi if prev is None else add(prev, gi)

    if create_graph:
        sweep()
    else:
        with tape.paused():
            sweep()

    results = []
    for t in wrt:
        g = adjoint.get(t.idx)
        results.append(Tensor(np.zeros(t.shape)) if g is None else g)
    return results
