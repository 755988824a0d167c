"""Dense float64 tensors with a tape-based reverse-mode autodiff engine.

The backward pass is itself built from the same primitive ops, so gradients
can be differentiated again (create_graph). Guided backpropagation is a
per-ReLU rule override selected through GradMode.

`backward` computes only the adjoints it returns: a scan of the tape marks
the nodes that are, or depend on, a `wrt` tensor, and each op's backward
`bwd(node, g, mode, need)` receives `need`, one bool per input, and may
return None for an input that is not needed. The sweep keeps adjoints of
needed inputs only.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager

import numpy as np


class GradMode(enum.Enum):
    STANDARD = "standard"
    GUIDED = "guided"


class Node:
    """One recorded primitive op. Inputs always precede the node on the tape."""

    __slots__ = ("tape", "op", "inputs", "attrs", "out", "idx")

    def __init__(self, tape, op, inputs, attrs, out, idx):
        self.tape = tape
        self.op = op
        self.inputs = inputs
        self.attrs = attrs
        self.out = out
        self.idx = idx


class Tape:
    """Append-only record of primitive ops; one tape per thread of execution."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._recording = True

    def __len__(self):
        return len(self.nodes)

    def watch(self, t: "Tensor") -> "Tensor":
        """Return an alias of t registered as a differentiable leaf on this tape."""
        out = Tensor(t.data, _copy=False)
        node = Node(self, "leaf", (), None, out, len(self.nodes))
        self.nodes.append(node)
        out.node = node
        return out

    @contextmanager
    def paused(self):
        prev = self._recording
        self._recording = False
        try:
            yield
        finally:
            self._recording = prev


class Tensor:
    """N-d array of float64 in row-major order, optionally on a tape."""

    __slots__ = ("data", "node")

    def __init__(self, data, _copy=True):
        arr = np.asarray(data, dtype=np.float64)
        if _copy:
            arr = np.ascontiguousarray(arr).copy()
        self.data = arr
        self.node: Node | None = None

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
        tag = "" if self.node is None else f", tape@{self.node.idx}"
        return f"Tensor(shape={self.shape}{tag})"

    # arithmetic sugar; python scalars go through the cheaper scale path
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), _copy=False)


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape), _copy=False)


def detach(t: Tensor) -> Tensor:
    """Same data and shape, no tape node: a stop-gradient constant."""
    out = Tensor(t.data, _copy=False)
    return out


# --------------------------------------------------------------------------
# op registry
# --------------------------------------------------------------------------

class _OpSpec:
    __slots__ = ("forward", "backward")

    def __init__(self, forward, backward):
        self.forward = forward
        self.backward = backward


_REGISTRY: dict[str, _OpSpec] = {}


def _op(name):
    def register(pair):
        fwd, bwd = pair()
        _REGISTRY[name] = _OpSpec(fwd, bwd)
        return pair

    return register


def _tape_of(inputs) -> Tape | None:
    tape = None
    for t in inputs:
        if t.node is not None:
            if tape is None:
                tape = t.node.tape
            elif tape is not t.node.tape:
                raise ValueError("inputs recorded on different tapes")
    if tape is not None and not tape._recording:
        return None
    return tape


def _apply(kind: str, inputs, attrs=None) -> Tensor:
    spec = _REGISTRY[kind]
    out_data = spec.forward([t.data for t in inputs], attrs)
    out = Tensor(out_data, _copy=False)
    tape = _tape_of(inputs)
    if tape is not None:
        node = Node(tape, kind, tuple(inputs), attrs, out, len(tape.nodes))
        tape.nodes.append(node)
        out.node = node
    return out


def _adjoints(need, *makers):
    """One adjoint per input: makers[i]() where need[i], else None. A maker
    past the node's input count (an absent bias) is never called."""
    return [make() if n else None for n, make in zip(need, makers)]


def _shape_err(kind, *extents):
    return ValueError(f"{kind}: incompatible shapes {' vs '.join(map(str, extents))}")


def _same_shape(kind, xs):
    if xs[0].shape != xs[1].shape:
        raise _shape_err(kind, xs[0].shape, xs[1].shape)


# ---- elementwise arithmetic (operands of equal shape) ----

@_op("add")
def _add_spec():
    def fwd(xs, attrs):
        _same_shape("add", xs)
        return xs[0] + xs[1]

    def bwd(node, g, mode, need):
        return [g, g]

    return fwd, bwd


@_op("sub")
def _sub_spec():
    def fwd(xs, attrs):
        _same_shape("sub", xs)
        return xs[0] - xs[1]

    def bwd(node, g, mode, need):
        return [g, neg(g)]

    return fwd, bwd


@_op("mul")
def _mul_spec():
    def fwd(xs, attrs):
        _same_shape("mul", xs)
        return xs[0] * xs[1]

    def bwd(node, g, mode, need):
        a, b = node.inputs
        return [mul(g, b), mul(g, a)]

    return fwd, bwd


@_op("div")
def _div_spec():
    def fwd(xs, attrs):
        _same_shape("div", xs)
        return xs[0] / xs[1]

    def bwd(node, g, mode, need):
        b = node.inputs[1]
        return [div(g, b), neg(div(mul(g, node.out), b))]

    return fwd, bwd


@_op("scale")
def _scale_spec():
    def fwd(xs, attrs):
        return xs[0] * attrs["factor"]

    def bwd(node, g, mode, need):
        return [scale(g, node.attrs["factor"])]

    return fwd, bwd


@_op("minimum")
def _minimum_spec():
    def fwd(xs, attrs):
        _same_shape("minimum", xs)
        return np.minimum(xs[0], xs[1])

    def bwd(node, g, mode, need):
        a, b = node.inputs
        # ties route to the first argument
        take_a = Tensor((a.data <= b.data).astype(np.float64), _copy=False)
        take_b = Tensor((b.data < a.data).astype(np.float64), _copy=False)
        return [mul(g, take_a), mul(g, take_b)]

    return fwd, bwd


# ---- elementwise functions ----

@_op("relu")
def _relu_spec():
    def fwd(xs, attrs):
        return np.maximum(xs[0], 0.0)

    def bwd(node, g, mode, need):
        gate = Tensor((node.inputs[0].data > 0).astype(np.float64), _copy=False)
        if mode is GradMode.GUIDED:
            return [mul(relu(g), gate)]
        return [mul(g, gate)]

    return fwd, bwd


@_op("abs")
def _abs_spec():
    def fwd(xs, attrs):
        return np.abs(xs[0])

    def bwd(node, g, mode, need):
        # subgradient 0 at exactly 0
        sign = Tensor(np.sign(node.inputs[0].data), _copy=False)
        return [mul(g, sign)]

    return fwd, bwd


@_op("sqrt")
def _sqrt_spec():
    def fwd(xs, attrs):
        return np.sqrt(xs[0])

    def bwd(node, g, mode, need):
        return [div(g, scale(node.out, 2.0))]

    return fwd, bwd


# ---- shape movement ----

@_op("reshape")
def _reshape_spec():
    def fwd(xs, attrs):
        return np.reshape(xs[0], attrs["shape"])

    def bwd(node, g, mode, need):
        return [reshape(g, node.inputs[0].shape)]

    return fwd, bwd


@_op("broadcast_to")
def _broadcast_spec():
    def fwd(xs, attrs):
        x = xs[0]
        shape = tuple(attrs["shape"])
        if x.ndim != len(shape) or any(
            s not in (1, t) for s, t in zip(x.shape, shape)
        ):
            raise _shape_err("broadcast_to", x.shape, shape)
        return np.ascontiguousarray(np.broadcast_to(x, shape))

    def bwd(node, g, mode, need):
        x = node.inputs[0]
        axes = tuple(
            i for i, (s, t) in enumerate(zip(x.shape, g.shape)) if s == 1 and t != 1
        )
        return [reduce_sum(g, axis=axes, keepdims=True) if axes else g]

    return fwd, bwd


@_op("sum")
def _sum_spec():
    def fwd(xs, attrs):
        return np.asarray(np.sum(xs[0], axis=attrs["axis"], keepdims=attrs["keepdims"]))

    def bwd(node, g, mode, need):
        x = node.inputs[0]
        axis = node.attrs["axis"]
        if axis is None:
            axes = tuple(range(len(x.shape)))
        elif isinstance(axis, int):
            axes = (axis,)
        else:
            axes = tuple(axis)
        kshape = tuple(1 if i in axes else s for i, s in enumerate(x.shape))
        gk = g if node.attrs["keepdims"] else reshape(g, kshape)
        return [broadcast_to(gk, x.shape) if x.shape else gk]

    return fwd, bwd


# ---- linear algebra ----

@_op("transpose")
def _transpose_spec():
    def fwd(xs, attrs):
        return xs[0].T

    def bwd(node, g, mode, need):
        return [transpose(g)]

    return fwd, bwd


@_op("linear")
def _linear_spec():
    def fwd(xs, attrs):
        x, w = xs[0], xs[1]
        if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
            raise _shape_err("linear", x.shape, w.shape)
        out = x @ w.T
        if len(xs) == 3:
            if xs[2].shape != (w.shape[0],):
                raise _shape_err("linear bias", xs[2].shape, (w.shape[0],))
            out = out + xs[2]
        return out

    def bwd(node, g, mode, need):
        x, w = node.inputs[0], node.inputs[1]
        # g @ w and g.T @ x, each a linear against a transposed view
        return _adjoints(
            need,
            lambda: linear(g, transpose(w)),
            lambda: linear(transpose(g), transpose(x)),
            lambda: reduce_sum(g, axis=0),
        )

    return fwd, bwd


# ---- convolution family (mutually adjoint triple; windows one pixel apart) ----

def _conv2d_fwd(x, w, padding):
    co, ci, kh, kw = w.shape
    if x.shape[1] != ci:
        raise _shape_err("conv2d", x.shape, w.shape)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, _, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"conv2d: kernel {(kh, kw)} larger than padded input {(hp, wp)}")
    out = np.zeros((n, co, ho, wo))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + ho, j : j + wo]
            out += np.einsum("ncij,oc->noij", patch, w[:, :, i, j], optimize=True)
    return out


def _conv2d_input_grad_fwd(g, w, padding):
    n, co, ho, wo = g.shape
    _, ci, kh, kw = w.shape
    gxp = np.zeros((n, ci, ho + kh - 1, wo + kw - 1))
    for i in range(kh):
        for j in range(kw):
            contrib = np.einsum("noij,oc->ncij", g, w[:, :, i, j], optimize=True)
            gxp[:, :, i : i + ho, j : j + wo] += contrib
    if padding:
        gxp = gxp[:, :, padding:-padding, padding:-padding]
    return np.ascontiguousarray(gxp)


def _conv2d_kernel_grad_fwd(x, g, padding):
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    _, ci, hp, wp = xp.shape
    _, co, ho, wo = g.shape
    kh, kw = hp - ho + 1, wp - wo + 1
    gw = np.zeros((co, ci, kh, kw))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + ho, j : j + wo]
            gw[:, :, i, j] = np.einsum("ncij,noij->oc", patch, g, optimize=True)
    return gw


@_op("conv2d")
def _conv2d_spec():
    def fwd(xs, attrs):
        out = _conv2d_fwd(xs[0], xs[1], attrs["padding"])
        if len(xs) == 3:
            if xs[2].shape != (xs[1].shape[0],):
                raise _shape_err("conv2d bias", xs[2].shape, (xs[1].shape[0],))
            out += xs[2][None, :, None, None]
        return out

    def bwd(node, g, mode, need):
        x, w = node.inputs[0], node.inputs[1]
        p = node.attrs["padding"]
        return _adjoints(
            need,
            lambda: conv2d_input_grad(g, w, p),
            lambda: conv2d_kernel_grad(x, g, p),
            lambda: reduce_sum(g, axis=(0, 2, 3)),
        )

    return fwd, bwd


@_op("conv2d_input_grad")
def _conv2d_input_grad_spec():
    def fwd(xs, attrs):
        return _conv2d_input_grad_fwd(xs[0], xs[1], attrs["padding"])

    def bwd(node, g, mode, need):
        # bilinear in (gout, w): adjoints swap back through conv2d / kernel-corr
        gout, w = node.inputs
        p = node.attrs["padding"]
        return _adjoints(
            need,
            lambda: conv2d(g, w, padding=p),
            lambda: conv2d_kernel_grad(g, gout, p),
        )

    return fwd, bwd


@_op("conv2d_kernel_grad")
def _conv2d_kernel_grad_spec():
    def fwd(xs, attrs):
        return _conv2d_kernel_grad_fwd(xs[0], xs[1], attrs["padding"])

    def bwd(node, g, mode, need):
        x, gout = node.inputs
        p = node.attrs["padding"]
        return _adjoints(
            need,
            lambda: conv2d_input_grad(gout, g, p),
            lambda: conv2d(x, g, padding=p),
        )

    return fwd, bwd


# ---- pooling (non-overlapping POOL x POOL windows; argmax indices are
# constants under differentiation) ----

POOL = 2


def _pool_argmax(x):
    """Flat h*w index of each window's maximum, shaped like the pooled map."""
    n, c, hh, ww = x.shape
    ho, wo = hh // POOL, ww // POOL
    if ho < 1 or wo < 1:
        raise ValueError(f"maxpool2d: pool {POOL} larger than input {(hh, ww)}")
    windows = np.empty((n, c, ho, wo, POOL * POOL))
    offsets = np.empty(POOL * POOL, dtype=np.int64)
    for i in range(POOL):
        for j in range(POOL):
            q = i * POOL + j
            windows[:, :, :, :, q] = x[:, :, i : POOL * ho : POOL, j : POOL * wo : POOL]
            offsets[q] = i * ww + j
    pick = np.argmax(windows, axis=-1)  # first max = lowest linear index
    base = np.arange(ho)[:, None] * POOL * ww + np.arange(wo)[None, :] * POOL
    return base + offsets[pick]


@_op("pool_scatter")
def _pool_scatter_spec():
    def fwd(xs, attrs):
        g = xs[0]
        idx = attrs["indices"]
        hh, ww = attrs["in_hw"]
        n, c = g.shape[0], g.shape[1]
        out = np.zeros((n, c, hh * ww))
        np.put_along_axis(out, idx.reshape(n, c, -1), g.reshape(n, c, -1), axis=2)
        return out.reshape(n, c, hh, ww)

    def bwd(node, g, mode, need):
        return [pool_gather(g, node.attrs["indices"])]

    return fwd, bwd


@_op("pool_gather")
def _pool_gather_spec():
    def fwd(xs, attrs):
        x = xs[0]
        idx = attrs["indices"]
        n, c, hh, ww = x.shape
        flat = x.reshape(n, c, hh * ww)
        picked = np.take_along_axis(flat, idx.reshape(n, c, -1), axis=2)
        return picked.reshape(idx.shape)

    def bwd(node, g, mode, need):
        return [pool_scatter(g, node.attrs["indices"], in_hw=node.inputs[0].shape[2:])]

    return fwd, bwd


# ---- softmax / cross-entropy ----

@_op("softmax")
def _softmax_spec():
    def fwd(xs, attrs):
        x = xs[0]
        if x.ndim != 2:
            raise _shape_err("softmax", x.shape)
        shifted = x - np.max(x, axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / np.sum(e, axis=1, keepdims=True)

    def bwd(node, g, mode, need):
        p = node.out
        inner = reduce_sum(mul(p, g), axis=1, keepdims=True)
        return [mul(p, sub(g, broadcast_to(inner, g.shape)))]

    return fwd, bwd


@_op("cross_entropy_logits")
def _ce_logits_spec():
    def fwd(xs, attrs):
        y = xs[0]
        t = attrs["targets"]
        if y.ndim != 2:
            raise _shape_err("cross_entropy_logits", y.shape)
        m = np.max(y, axis=1, keepdims=True)
        lse = np.log(np.sum(np.exp(y - m), axis=1)) + m[:, 0]
        return lse - y[np.arange(y.shape[0]), t]

    def bwd(node, g, mode, need):
        y = node.inputs[0]
        t = node.attrs["targets"]
        onehot = np.zeros(y.shape)
        onehot[np.arange(y.shape[0]), t] = 1.0
        p = softmax(y)
        gcol = broadcast_to(reshape(g, (y.shape[0], 1)), y.shape)
        return [mul(sub(p, Tensor(onehot, _copy=False)), gcol)]

    return fwd, bwd


# --------------------------------------------------------------------------
# public op helpers
# --------------------------------------------------------------------------

def add(a, b):
    return _apply("add", [a, b])


def sub(a, b):
    return _apply("sub", [a, b])


def mul(a, b):
    return _apply("mul", [a, b])


def div(a, b):
    return _apply("div", [a, b])


def neg(a):
    return scale(a, -1.0)


def scale(a, factor: float):
    return _apply("scale", [a], {"factor": float(factor)})


def minimum(a, b):
    return _apply("minimum", [a, b])


def relu(a):
    return _apply("relu", [a])


def absolute(a):
    return _apply("abs", [a])


def sqrt(a):
    return _apply("sqrt", [a])


def reshape(a, shape):
    return _apply("reshape", [a], {"shape": tuple(shape)})


def broadcast_to(a, shape):
    return _apply("broadcast_to", [a], {"shape": tuple(shape)})


def reduce_sum(a, axis=None, keepdims=False):
    return _apply("sum", [a], {"axis": axis, "keepdims": keepdims})


def mean(a, axis=None):
    """Mean over every element, or over the axes in the tuple `axis`."""
    count = a.size if axis is None else int(np.prod([a.shape[i] for i in axis]))
    return scale(reduce_sum(a, axis=axis), 1.0 / count)


def transpose(a):
    return _apply("transpose", [a])


def linear(x, w, b=None):
    ins = [x, w] if b is None else [x, w, b]
    return _apply("linear", ins)


def conv2d(x, w, b=None, padding=0):
    ins = [x, w] if b is None else [x, w, b]
    return _apply("conv2d", ins, {"padding": int(padding)})


def conv2d_input_grad(g, w, padding):
    return _apply("conv2d_input_grad", [g, w], {"padding": padding})


def conv2d_kernel_grad(x, g, padding):
    return _apply("conv2d_kernel_grad", [x, g], {"padding": padding})


def maxpool2d(x):
    """Maxima of non-overlapping POOL x POOL windows, as a pool_gather at
    argmax indices taken once, here."""
    return pool_gather(x, _pool_argmax(x.data))


def pool_scatter(g, indices, in_hw):
    return _apply("pool_scatter", [g], {"indices": indices, "in_hw": tuple(in_hw)})


def pool_gather(x, indices):
    return _apply("pool_gather", [x], {"indices": indices})


def global_avg_pool(x):
    if len(x.shape) != 4:
        raise _shape_err("global_avg_pool", x.shape)
    return mean(x, axis=(2, 3))


def softmax(x):
    """Row-wise softmax of a 2-D input."""
    return _apply("softmax", [x])


def cross_entropy_logits(logits, targets):
    t = np.asarray(targets, dtype=np.int64)
    if t.ndim != 1 or t.shape[0] != logits.shape[0]:
        raise _shape_err("cross_entropy_logits targets", t.shape, logits.shape)
    if t.size and (t.min() < 0 or t.max() >= logits.shape[1]):
        raise ValueError(
            f"cross_entropy_logits: target out of range for {logits.shape[1]} classes"
        )
    return _apply("cross_entropy_logits", [logits], {"targets": t})


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
    if output.node is None:
        raise ValueError("backward: output is not on a tape")
    tape = output.node.tape
    wrt = list(wrt)
    for t in wrt:
        if t.node is None or t.node.tape is not tape:
            raise ValueError("backward: wrt tensor is not on the output's tape")

    start = output.node.idx
    # inputs precede their node: once the sweep is down to the lowest wrt
    # node, every wrt adjoint is complete and the nodes below feed none of them
    stop = min((t.node.idx for t in wrt), default=start)

    # a node is live when it is a wrt node or has a live input; only live
    # nodes' adjoints are computed and kept
    live = {t.node.idx for t in wrt}
    for node in tape.nodes[stop + 1 : start + 1]:
        if any(t.node is not None and t.node.idx in live for t in node.inputs):
            live.add(node.idx)
    adjoint: dict[int, Tensor] = {start: ones(output.shape)} if start in live else {}

    def sweep():
        for idx in range(start, stop, -1):
            g = adjoint.get(idx)
            if g is None:
                continue
            node = tape.nodes[idx]
            if node.op == "leaf":
                continue
            need = tuple(t.node is not None and t.node.idx in live for t in node.inputs)
            grads = _REGISTRY[node.op].backward(node, g, mode, need)
            for t_in, gi, n in zip(node.inputs, grads, need):
                if n:
                    j = t_in.node.idx
                    prev = adjoint.get(j)
                    adjoint[j] = gi if prev is None else add(prev, gi)

    if create_graph:
        sweep()
    else:
        with tape.paused():
            sweep()

    results = []
    for t in wrt:
        g = adjoint.get(t.node.idx)
        results.append(zeros(t.shape) if g is None else g)
    return results
