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


def _relu_gate(x):
    """The 0/1 derivative of relu at x, a constant under differentiation."""
    return Tensor((x.data > 0).astype(np.float64))


@_rule("relu")
def _relu_bwd(node, g):
    # built once per node, so every backward sweep through it shares the gate
    node.attrs = node.attrs or {"gate": _relu_gate(node.inputs[0])}
    return [lambda: mul(g, node.attrs["gate"])]


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
    # numpy adds in memory order, so the sum of a C-ordered copy gives the
    # same bytes whatever the layout of a (a conv output is channel-major)
    out = np.asarray(np.sum(np.ascontiguousarray(a.data), axis=axis, keepdims=keepdims))
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


# ---- convolution family (a mutually adjoint triple). Every kernel is odd
# and square, k = 2p + 1, at padding p, so each output map keeps its input's
# (H, W). Each op works one block of images at a time, all blocks cut from
# one buffer per call. conv2d and conv2d_kernel_grad build the zero-padded
# columns of their input (im2col); conv2d_input_grad contracts the kernel
# with each block of g first and adds each kernel offset's slab of the
# product into the output (col2im). Every matmul operand is C-contiguous, so
# the bytes do not depend on the memory layout of the inputs ----

# bytes of columns per block: half of a 2 MiB per-core L2 cache, so each
# block's matmul reads its columns from cache, not memory
COL_BUDGET = 1 << 20


def _block_images(n, image):
    """Images per block of n, image floats each: the ceil(n / m) blocks,
    where m images fit in COL_BUDGET bytes, hold equal counts but a shorter
    last."""
    blocks = max(1, -(-n // max(1, COL_BUDGET // (8 * image))))
    return max(1, -(-n // blocks))


def _span(size, p, i):
    """The positions [lo, hi) on an axis of `size` whose input position
    o + i - p lies in [0, size): the rows or columns kernel offset i reads."""
    lo = max(0, p - i)
    return lo, max(lo, min(size, size + p - i))


def _fill_columns(cols, a, p):
    """Write the im2col of an (n, c, H, W) stack, padded by p, into cols, a
    C-contiguous (c, k, k, n, H, W) buffer, k = 2p + 1: its [:, i, j] slab
    is the input shifted by (i - p, j - p). Only positions inside the input
    are written, so a zero-filled buffer keeps its zero border, the padding."""
    hh, ww = a.shape[2:]
    k = cols.shape[1]
    src = a.transpose(1, 0, 2, 3)
    for i in range(k):
        y0, y1 = _span(hh, p, i)
        for j in range(k):
            x0, x1 = _span(ww, p, j)
            cols[:, i, j, :, y0:y1, x0:x1] = src[:, :, y0 + i - p : y1 + i - p, x0 + j - p : x1 + j - p]
    return cols


def _blocks(a, p):
    """Yield (s, e, cols) over an (n, c, H, W) stack padded by p: cols is the
    C-contiguous (c, k, k, e - s, H, W) im2col of images [s, e), k = 2p + 1,
    in blocks of _block_images. All are cut from one zero-filled buffer; a
    shorter last block zeroes its prefix again, because its padding lies
    elsewhere in the smaller shape."""
    n, c, hh, ww = a.shape
    k = 2 * p + 1
    image = c * k * k * hh * ww
    m = _block_images(n, image)
    flat = np.zeros(image * m)
    for s in range(0, n, m):
        e = min(n, s + m)
        cols = flat[: image * (e - s)].reshape(c, k, k, e - s, hh, ww)
        if e - s < m:
            cols.fill(0.0)
        yield s, e, _fill_columns(cols, a[s:e], p)


def _check_conv(kind, a, w, axis):
    """p of the (o, c, k, k) bank w, k = 2p + 1, whose axis `axis` meets the
    channels of the (n, ch, H, W) stack a, H and W at least 1; otherwise
    raise, naming the op."""
    if len(a.shape) != 4 or len(w.shape) != 4 or a.shape[1] != w.shape[axis] or 0 in a.shape[2:]:
        raise _shape_err(kind, a.shape, w.shape)
    k = w.shape[2]
    if w.shape[3] != k or k % 2 == 0:
        raise ValueError(f"{kind}: kernel {k}x{w.shape[3]} is not odd and square")
    return k // 2


def conv2d(x, w, b=None):
    """Cross-correlation of an (n, c, H, W) stack, zero-padded by p, with an
    (o, c, k, k) bank, k = 2p + 1: out[n, o, y, x] = sum over c, i, j of
    x[n, c, y + i - p, x + j - p] w[o, c, i, j], plus b[o]. Each block's
    matmul writes its own images of one (o, n, H, W) output."""
    p = _check_conv("conv2d", x, w, 1)
    (n, _, hh, ww), (o, c, k, _) = x.shape, w.shape
    if b is not None and b.shape != (o,):
        raise _shape_err("conv2d bias", b.shape, (o,))
    hw = hh * ww
    wm = np.ascontiguousarray(w.data).reshape(o, -1)
    out = np.empty((o, n * hw))
    for s, e, cols in _blocks(x.data, p):
        np.matmul(wm, cols.reshape(c * k * k, -1), out=out[:, s * hw : e * hw])
    out = out.reshape(o, n, hh, ww).transpose(1, 0, 2, 3)
    if b is None:
        return _apply("conv2d", out, [x, w])
    out += b.data[None, :, None, None]
    return _apply("conv2d", out, [x, w, b])


@_rule("conv2d")
def _conv2d_bwd(node, g):
    x, w = node.inputs[:2]
    return [
        lambda: conv2d_input_grad(g, w),
        lambda: conv2d_kernel_grad(x, g, w.shape[2]),
        lambda: reduce_sum(g, axis=(0, 2, 3)),
    ]


def conv2d_input_grad(g, w):
    """Adjoint of conv2d in x: the gradient of sum(conv2d(x, w) * g) w.r.t. x
    for an odd square (o, c, k, k) bank, k = 2p + 1, so it has g's (H, W).
    It takes one form, col2im: per block of images, one matmul takes the
    slabs Y[i, j] = sum over o of w[o, :, i, j] g[:, o], c k k rows rather
    than the o k k of g's columns, and slab (i, j) adds at the targets
    (y + i - p, x + j - p). Its rows and columns whose target
    lies outside the image are zeroed, so it adds into the centre slab as
    one flat shift of the whole (c, images, H, W) stack by (i - p) W + (j - p):
    whatever the shift carries into another row, image or channel is zero.
    Each block's sum fills its images of one (c, n, H, W) output."""
    p = _check_conv("conv2d_input_grad", g, w, 0)
    (n, o, hh, ww), (_, c, k, _) = g.shape, w.shape
    hw = hh * ww
    # rows ordered (i, j, c), so each slab is one C-contiguous stack
    wt = np.ascontiguousarray(w.data.transpose(2, 3, 1, 0)).reshape(-1, o)
    out = np.empty((c, n * hw))
    m = _block_images(n, c * k * k * hw)
    flat = np.empty(c * k * k * hw * m)
    for s in range(0, n, m):
        e = min(n, s + m)
        size = c * (e - s) * hw
        y = flat[: k * k * size].reshape(k, k, c, e - s, hh, ww)
        g_blk = np.ascontiguousarray(g.data[s:e].transpose(1, 0, 2, 3)).reshape(o, -1)
        np.matmul(wt, g_blk, out=y.reshape(k * k * c, -1))
        acc = y[p, p].reshape(-1)
        for i in range(k):
            y0, y1 = _span(hh, p, i)
            for j in range(k):
                d = (i - p) * ww + (j - p)
                # past the stack's length every target lies outside the image
                if (i, j) == (p, p) or abs(d) >= size:
                    continue
                x0, x1 = _span(ww, p, j)
                slab = y[i, j]
                slab[:, :, :y0], slab[:, :, y1:] = 0.0, 0.0
                slab[..., :x0], slab[..., x1:] = 0.0, 0.0
                acc[max(0, d) : size + min(0, d)] += slab.reshape(-1)[max(0, -d) : size - max(0, d)]
        out[:, s * hw : e * hw] = acc.reshape(c, -1)
    return _apply("conv2d_input_grad", out.reshape(c, n, hh, ww).transpose(1, 0, 2, 3), [g, w])


@_rule("conv2d_input_grad")
def _conv2d_input_grad_bwd(node, g):
    # bilinear in (gout, w): adjoints swap back through conv2d / kernel-corr
    gout, w = node.inputs
    return [lambda: conv2d(g, w), lambda: conv2d_kernel_grad(g, gout, w.shape[2])]


def conv2d_kernel_grad(x, g, k):
    """Adjoint of conv2d in w for a k x k kernel, k = 2p + 1: the gradient of
    sum(conv2d(x, w) * g) w.r.t. w, the correlation of the padded input with
    g over the batch: the sum of each block of images' contraction."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"conv2d_kernel_grad: kernel side {k} is not odd")
    xd, gd = x.data, g.data
    # the same batch and map size, which conv2d keeps; no empty map
    if xd.ndim != 4 or 0 in xd.shape[2:] or xd.shape[:1] + xd.shape[2:] != gd.shape[:1] + gd.shape[2:]:
        raise _shape_err("conv2d_kernel_grad", xd.shape, gd.shape)
    c, o = xd.shape[1], gd.shape[1]
    acc = np.zeros((c * k * k, o))
    for s, e, cols in _blocks(xd, k // 2):
        # the block's C-ordered cotangent is a temporary of this statement,
        # so one block's is alive at a time
        g_blk = gd[s:e].transpose(0, 2, 3, 1)
        acc += cols.reshape(c * k * k, -1) @ np.ascontiguousarray(g_blk).reshape(-1, o)
    gw = acc.reshape(c, k, k, o).transpose(3, 0, 1, 2)
    return _apply("conv2d_kernel_grad", gw, [x, g])


@_rule("conv2d_kernel_grad")
def _conv2d_kernel_grad_bwd(node, g):
    x, gout = node.inputs
    return [lambda: conv2d_input_grad(gout, g), lambda: conv2d(x, g)]


# ---- pooling (non-overlapping POOL x POOL windows). The forward takes each
# window's maximum; on a recording tape it records them as a pool_gather at
# argmax positions in the flattened input, constants to its backward rules ----

POOL = 2


def _pool_slices(x):
    """The POOL*POOL strided slices of an (n, c, H, W) array, one per window
    offset (i, j) in row-major order, each shaped like the pooled map; an odd
    last row or column is cropped."""
    hh, ww = x.shape[2:]
    ho, wo = hh // POOL, ww // POOL
    if ho < 1 or wo < 1:
        raise ValueError(f"maxpool2d: pool {POOL} larger than input {(hh, ww)}")
    return [x[:, :, i : POOL * ho : POOL, j : POOL * wo : POOL] for i in range(POOL) for j in range(POOL)]


def _pool_max(slices):
    """The elementwise maximum of the window slices, NaN where any is NaN."""
    first, *rest = slices
    out = first.copy()
    for s in rest:
        # np.maximum returns its second operand on ties: an earlier value stays
        np.maximum(s, out, out=out)
    return out


def _pool_argmax(x, slices, top):
    """Position, in the flattened (n, c, H, W) array x, of each window's first
    maximum in top, or first NaN as np.argmax picks; slices are x's windows."""
    n, c, hh, ww = x.shape
    nan, (ho, wo) = np.isnan(top).any(), top.shape[2:]
    # each position steps on from its window's first slice while every slice so
    # far misses the maximum; in a NaN window all miss, and a NaN stops it
    corner = np.arange(ho)[:, None] * (POOL * ww) + np.arange(wo) * POOL
    pos = np.add.outer(np.arange(n * c) * (hh * ww), corner).reshape(top.shape)
    miss = np.ones(top.shape, dtype=bool)
    for s, step in zip(slices, np.diff([i * ww + j for i in range(POOL) for j in range(POOL)])):
        miss &= s != top
        if nan:
            miss &= s == s
        pos += miss * step
    return pos


def maxpool2d(x):
    """Maxima of non-overlapping POOL x POOL windows: the elementwise maximum of
    the window slices, which keeps the first of tied values (so -0.0 vs +0.0
    resolve alike). On a recording tape the same array is the output of a
    pool_gather node at argmax indices taken once, here; off one, no node."""
    slices = _pool_slices(x.data)
    top = _pool_max(slices)
    if _tape_of([x]) is None:
        return Tensor(top)
    return _apply("pool_gather", top, [x], {"indices": _pool_argmax(x.data, slices, top)})


def pool_gather(x, indices):
    return _apply("pool_gather", np.take(x.data, indices), [x], {"indices": indices})


@_rule("pool_gather")
def _pool_gather_bwd(node, g):
    return [lambda: pool_scatter(g, node.attrs["indices"], node.inputs[0].shape[2:])]


def pool_scatter(g, indices, in_hw):
    """Adjoint of pool_gather: g at flat positions of an (n, c, *in_hw) array, 0 elsewhere."""
    n, c = g.shape[:2]
    out = np.zeros((n, c, *in_hw))
    out.reshape(-1)[indices] = g.data
    return _apply("pool_scatter", out, [g], {"indices": indices})


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
