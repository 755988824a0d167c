"""Finite-difference oracle and the engine verification suites.

These are the release gate behind the `gradcheck` CLI command: every
primitive's backward is compared against central differences, the
differentiable-backward path is checked end to end, and the guided ReLU
rule is checked for nonnegativity and locality.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import GradMode, Tape, Tensor, backward

REL_TOL = 1e-4
ABS_FLOOR = 1e-7
FD_STEP = 1e-5  # central-difference step


def finite_diff_gradient(fn, at: Tensor) -> Tensor:
    """Central-difference gradient estimate of a scalar function, per element."""
    base = at.data.copy()
    flat = base.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        hi = _scalar(fn(Tensor(base)))
        flat[i] = orig - FD_STEP
        lo = _scalar(fn(Tensor(base)))
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * FD_STEP)
    return Tensor(out.reshape(at.shape))


def _scalar(v) -> float:
    return v.item() if isinstance(v, Tensor) else float(v)


def max_scaled_error(got: np.ndarray, want: np.ndarray) -> float:
    """Element-wise |got-want| scaled so that <= 1.0 means within tolerance."""
    diff = np.abs(got - want)
    denom = np.maximum(ABS_FLOOR, REL_TOL * np.maximum(np.abs(got), np.abs(want)))
    return float(np.max(diff / denom)) if diff.size else 0.0


@contextmanager
def wrapped_backward(kind: str, wrap):
    """Test hook: run one op's backward rule as `wrap(original, node, g)`
    meanwhile; like the rule, it returns one thunk per input."""
    orig = T._REGISTRY[kind]
    T._REGISTRY[kind] = lambda node, g: wrap(orig, node, g)
    try:
        yield
    finally:
        T._REGISTRY[kind] = orig


def corrupted_backward(kind: str):
    """Test hook: multiply one op's backward output by a wrong factor, 1.5."""

    def bad(orig, node, g):
        return [lambda make=make: T.scale(make(), 1.5) for make in orig(node, g)]

    return wrapped_backward(kind, bad)


@contextmanager
def recorded_relu_emissions():
    """Collect, as arrays, the gradient every ReLU backward emits meanwhile."""
    emitted: list[np.ndarray] = []

    def record(orig, node, g):
        (make,) = orig(node, g)

        def emit():
            gi = make()
            emitted.append(gi.data)
            return gi

        return [emit]

    with wrapped_backward("relu", record):
        yield emitted


# --------------------------------------------------------------------------
# per-op gradcheck
# --------------------------------------------------------------------------

def _away_from(vals, kinks, margin=1e-3):
    """Nudge samples so no coordinate sits within margin of a kink value."""
    out = vals.copy()
    for k in kinks:
        close = np.abs(out - k) < margin
        out[close] = k + margin * np.where(out[close] >= k, 1.0, -1.0) * 2.0
    return out


def _normal(op, *shapes):
    """A case of standard-normal inputs of these shapes, passed to op in order."""
    return lambda rng: ([rng.normal(size=sh) for sh in shapes], lambda xs: op(*xs))


def _div(rng):
    a = rng.normal(size=(3, 4))
    b = _away_from(rng.normal(size=(3, 4)), [0.0], 0.5)
    return [a, b], lambda xs: T.div(*xs)


def _minimum(rng):
    a = rng.normal(size=(4, 3))
    b = a + _away_from(rng.normal(size=(4, 3)), [0.0], 1e-3)
    return [a, b], lambda xs: T.minimum(*xs)


def _kinked(op, shape):
    """A case of one standard-normal input kept off op's kink at 0."""
    return lambda rng: ([_away_from(rng.normal(size=shape), [0.0])], lambda xs: op(xs[0]))


def _maxpool2d(rng):
    x = rng.normal(size=(2, 2, 6, 6))
    # keep window maxima unambiguous so FD does not cross an argmax switch
    x += np.linspace(0, 0.5, x.size).reshape(x.shape)
    return [x], lambda xs: T.maxpool2d(xs[0])


def _pool_scatter(rng):
    # pool_scatter and pool_gather are linear in their input for argmax
    # indices held constant
    idx = T.maxpool2d(Tape().watch(Tensor(rng.normal(size=(2, 2, 6, 6))))).attrs["indices"]
    return [rng.normal(size=(2, 2, 3, 3))], lambda xs: T.pool_scatter(xs[0], idx, (6, 6))


def _pool_gather(rng):
    idx = T.maxpool2d(Tape().watch(Tensor(rng.normal(size=(2, 2, 6, 6))))).attrs["indices"]
    return [rng.normal(size=(2, 2, 6, 6))], lambda xs: T.pool_gather(xs[0], idx)


def _cross_entropy_logits(rng):
    t = rng.integers(0, 4, size=3)
    return [rng.normal(size=(3, 4))], lambda xs: T.cross_entropy_logits(xs[0], t)


# The op suite's cases: kind -> rng -> (input arrays, op over input tensors).
# They are the registry ops plus the composite helpers mean, global_avg_pool,
# neg (a scale) and maxpool2d (a pool_gather at argmax indices).
_CASES = {
    "add": _normal(T.add, (3, 4), (3, 4)),
    "sub": _normal(T.sub, (3, 4), (3, 4)),
    "mul": _normal(T.mul, (3, 4), (3, 4)),
    "div": _div,
    "neg": _normal(T.neg, (5,)),
    "scale": _normal(lambda a: T.scale(a, -1.7), (2, 3)),
    "minimum": _minimum,
    "relu": _kinked(T.relu, (3, 5)),
    "abs": _kinked(T.absolute, (6,)),
    "sqrt": lambda rng: ([rng.uniform(0.5, 2.0, size=(4,))], lambda xs: T.sqrt(xs[0])),
    "reshape": _normal(lambda a: T.reshape(a, (3, 4)), (2, 6)),
    "broadcast_to": _normal(lambda a: T.broadcast_to(a, (3, 4)), (3, 1)),
    "sum": _normal(lambda a: T.reduce_sum(a, axis=(0, 2)), (2, 3, 4)),
    "mean": _normal(lambda a: T.mean(a, axis=(1,)), (2, 3, 4)),
    "global_avg_pool": _normal(T.global_avg_pool, (2, 3, 4, 4)),
    "transpose": _normal(T.transpose, (3, 4)),
    "linear": _normal(T.linear, (3, 5), (2, 5), (2,)),
    "conv2d": _normal(
        lambda x, w, b: T.conv2d(x, w, b, padding=1), (2, 2, 5, 5), (3, 2, 3, 3), (3,)
    ),
    # both geometries at every draw, summed as their outputs share a shape: a
    # 2x2 kernel at padding 0 takes g's columns, and a 3x3 at padding 1, as
    # every model builds, the col2im form
    "conv2d_input_grad": _normal(
        lambda g0, w0, g1, w1: T.add(T.conv2d_input_grad(g0, w0, 0), T.conv2d_input_grad(g1, w1, 1)),
        (2, 3, 4, 4), (3, 2, 2, 2), (2, 3, 5, 5), (3, 2, 3, 3),
    ),
    "conv2d_kernel_grad": _normal(
        lambda x, g: T.conv2d_kernel_grad(x, g, padding=0), (2, 2, 5, 5), (2, 3, 4, 4)
    ),
    "maxpool2d": _maxpool2d,
    "pool_scatter": _pool_scatter,
    "pool_gather": _pool_gather,
    "softmax": _normal(T.softmax, (3, 4)),
    "cross_entropy_logits": _cross_entropy_logits,
}
CHECKED_OPS = list(_CASES)


def gradcheck_op(kind: str, seed: int) -> float:
    """Max scaled backward-vs-FD error for one op at one random point."""
    rng = np.random.default_rng(seed)
    arrays, apply_op = _CASES[kind](rng)
    probe = None

    def scalarize(xs):
        out = apply_op(xs)
        nonlocal probe
        if probe is None:
            probe = rng.normal(size=out.shape)
        w = Tensor(probe)
        return T.reduce_sum(T.mul(out, w))

    worst = 0.0
    for i in range(len(arrays)):
        tape = Tape()
        xs = [Tensor(a) for a in arrays]
        xs[i] = tape.watch(xs[i])
        got = backward(scalarize(xs), [xs[i]])[0].data

        def fn(v, i=i):
            xs2 = [Tensor(a) for a in arrays]
            xs2[i] = v
            return scalarize(xs2)

        want = finite_diff_gradient(fn, Tensor(arrays[i])).data
        worst = max(worst, max_scaled_error(got, want))
    return worst


def run_op_suite(seeds=50) -> dict[str, float]:
    """Gradcheck every op over `seeds` random draws; returns max error per op."""
    report = {}
    for kind in CHECKED_OPS:
        worst = 0.0
        for s in range(seeds):
            worst = max(worst, gradcheck_op(kind, 1000 + s))
        report[kind] = worst
    return report


# --------------------------------------------------------------------------
# double-backward and guided-rule suites
# --------------------------------------------------------------------------

def _tiny_net_params(rng):
    w1 = rng.normal(size=(2, 1, 2, 2)) * 0.7
    b1 = rng.normal(size=(2,)) * 0.1
    w2 = rng.normal(size=(3, 2 * 4)) * 0.7
    b2 = rng.normal(size=(3,)) * 0.1
    return [w1, b1, w2, b2]


def _tiny_net_loss(x, params, targets):
    """conv-relu-pool-linear cross-entropy on a 1x1x6x6 input batch."""
    w1, b1, w2, b2 = params
    h = T.relu(T.conv2d(x, w1, b1))
    h = T.maxpool2d(h)  # (n,2,2,2)
    h = T.reshape(h, (x.shape[0], 2 * 4))
    logits = T.linear(h, w2, b2)
    return T.mean(T.cross_entropy_logits(logits, targets))


def run_double_backward_suite(seeds=5) -> float:
    """L2 = sum of squared input-gradients; check dL2/dtheta against FD."""
    worst = 0.0
    for s in range(seeds):
        rng = np.random.default_rng(7000 + s)
        params = _tiny_net_params(rng)
        x0 = rng.normal(size=(2, 1, 6, 6))
        targets = rng.integers(0, 3, size=2)

        def l2_value(param_tensors):
            """(L2, the watched parameters) at these parameter values."""
            tape = Tape()
            ps = [tape.watch(p) for p in param_tensors]
            x = tape.watch(Tensor(x0))
            loss = _tiny_net_loss(x, ps, targets)
            (gx,) = backward(loss, [x], create_graph=True)
            return T.reduce_sum(T.mul(gx, gx)), ps

        l2, ps = l2_value([Tensor(p) for p in params])
        grads = backward(l2, ps)

        for i in range(len(params)):
            def fn(v, i=i):
                probe = [Tensor(p) for p in params]
                probe[i] = v
                return l2_value(probe)[0]

            want = finite_diff_gradient(fn, Tensor(params[i])).data
            got = grads[i].data
            diff = np.abs(got - want)
            denom = np.maximum(1e-6, 1e-3 * np.maximum(np.abs(got), np.abs(want)))
            worst = max(worst, float(np.max(diff / denom)))
    return worst


def run_guided_suite(nets=100) -> tuple[float, bool]:
    """(most-negative guided ReLU emission, positive-path equality flag)."""
    min_emitted = np.inf
    for s in range(nets):
        rng = np.random.default_rng(3000 + s)
        params = _tiny_net_params(rng)
        targets = rng.integers(0, 3, size=2)
        tape = Tape()
        ps = [tape.watch(Tensor(p)) for p in params]
        x = tape.watch(Tensor(rng.normal(size=(2, 1, 6, 6))))
        loss = _tiny_net_loss(x, ps, targets)
        with recorded_relu_emissions() as emitted:
            backward(loss, [x], mode=GradMode.GUIDED)
        for g in emitted:
            min_emitted = min(min_emitted, float(g.min()))

    # all-positive path: positive weights, positive input, loss = sum of logits
    rng = np.random.default_rng(99)
    w1 = Tensor(rng.uniform(0.1, 1.0, size=(2, 1, 2, 2)))
    w2 = Tensor(rng.uniform(0.1, 1.0, size=(3, 8)))
    x0 = rng.uniform(0.1, 1.0, size=(1, 1, 6, 6))

    def positive_loss(tape):
        x = tape.watch(Tensor(x0))
        h = T.relu(T.conv2d(x, tape.watch(w1)))
        h = T.maxpool2d(h)
        logits = T.linear(T.reshape(h, (1, 8)), tape.watch(w2))
        return T.reduce_sum(logits), x

    t1 = Tape()
    loss1, x1 = positive_loss(t1)
    (g_std,) = backward(loss1, [x1])
    t2 = Tape()
    loss2, x2 = positive_loss(t2)
    (g_gui,) = backward(loss2, [x2], mode=GradMode.GUIDED)
    equal = bool(np.array_equal(g_std.data, g_gui.data))
    return min_emitted, equal


@dataclass
class GradcheckReport:
    op_errors: dict[str, float] = field(default_factory=dict)
    double_backward_error: float = 0.0
    guided_min_emitted: float = 0.0
    guided_positive_path_equal: bool = False

    @property
    def failures(self) -> list[str]:
        bad = [k for k, v in self.op_errors.items() if v > 1.0]
        if self.double_backward_error > 1.0:
            bad.append("double_backward")
        if self.guided_min_emitted < 0.0:
            bad.append("guided_relu_nonnegative")
        if not self.guided_positive_path_equal:
            bad.append("guided_positive_path")
        return bad


def run_all(seeds=50, nets=100) -> GradcheckReport:
    rep = GradcheckReport()
    rep.op_errors = run_op_suite(seeds=seeds)
    rep.double_backward_error = run_double_backward_suite()
    rep.guided_min_emitted, rep.guided_positive_path_equal = run_guided_suite(nets=nets)
    return rep
