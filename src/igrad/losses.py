"""Classification loss, gradient error functions, and the total training loss.

The total loss adds a regularizer that pulls the standard input-gradient of
the classification loss toward its guided-backprop counterpart; the guided
branch is detached and acts as a teacher, so parameter gradients flow only
through the classification term and the standard-gradient branch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import GradMode, Tape, Tensor, backward

NORM_GUARD = 1e-12


class ErrorFnKind(enum.Enum):
    MAE = "mae"
    MSE = "mse"
    COSINE = "cosine"
    HIST_INTERSECT = "hist"


@dataclass(frozen=True)
class LossBreakdown:
    loss_c: float
    loss_r: float
    total: float
    lam: float


@dataclass
class InterpLossResult:
    breakdown: LossBreakdown
    total: Tensor                  # tape scalar, differentiable w.r.t. parameters
    params: list[Tensor]           # tape-watched parameter aliases
    inputs: Tensor                 # tape-watched input batch
    standard_grads: Tensor | None  # dL_C/dX, on tape (None when lam == 0)
    guided_grads: Tensor | None    # guided counterpart, always detached


def _forward_ce(model, x_batch, targets):
    """Watch inputs, run the model, return (mean CE, forward result, watched x)."""
    tape = Tape()
    x = x_batch if isinstance(x_batch, Tensor) else Tensor(np.asarray(x_batch, dtype=np.float64))
    if x.data.ndim != 4 or x.shape[0] == 0:
        raise ValueError("batch must be a nonempty (N,C,H,W) array")
    x = tape.watch(x)
    fwd = model.forward(x, tape)
    ce = T.mean(T.cross_entropy_logits(fwd.logits, targets))
    return ce, fwd, x


def classification_loss(model, x_batch, targets) -> Tensor:
    """Mean cross-entropy over the batch (Eq. form: (1/n) sum CE)."""
    ce, _, _ = _forward_ce(model, x_batch, targets)
    return ce


def _flat_axes(shape):
    return tuple(range(1, len(shape)))


# the norm each similarity divides by, as the batched form guards it
_GUARDED_NORMS = {
    ErrorFnKind.COSINE: lambda a: np.sqrt(np.sum(a * a)),
    ErrorFnKind.HIST_INTERSECT: lambda a: np.sum(np.abs(a)),
}


def error_fn(kind: ErrorFnKind, d: Tensor, d_ref: Tensor) -> Tensor:
    """Error between two gradient images; differentiable w.r.t. the first.

    MAE and MSE are mean element-wise distances; cosine and histogram
    intersection are similarities with a negative sign. The reference is
    detached by the caller. This is the one-example case of
    `_per_example_errors`, except that a norm the batched form would mask
    out is an error here.
    """
    if d.shape != d_ref.shape:
        raise ValueError(f"error_fn: shapes differ {d.shape} vs {d_ref.shape}")
    if d.size == 0:
        raise ValueError("error_fn: empty tensors")
    norm = _GUARDED_NORMS.get(kind)
    if norm is not None and min(norm(d.data), norm(d_ref.data)) < NORM_GUARD:
        raise ValueError(f"error_fn: zero-norm input for {kind.name.lower()}")
    errs = _per_example_errors(kind, T.reshape(d, (1, -1)), T.reshape(d_ref, (1, -1)))
    return T.reshape(errs, ())


def _per_example_errors(kind: ErrorFnKind, d: Tensor, d_ref: Tensor) -> Tensor:
    """Batched per-example errors, shape (N,), on tape.

    Cosine/histogram examples whose relevant norm falls under NORM_GUARD
    contribute exactly zero instead of erroring (dead gradients happen
    early in training).
    """
    axes = _flat_axes(d.shape)
    m = int(np.prod(d.shape[1:]))
    if kind is ErrorFnKind.MAE:
        return T.scale(T.reduce_sum(T.absolute(T.sub(d, d_ref)), axis=axes), 1.0 / m)
    if kind is ErrorFnKind.MSE:
        diff = T.sub(d, d_ref)
        return T.scale(T.reduce_sum(T.mul(diff, diff), axis=axes), 1.0 / m)

    if kind is ErrorFnKind.COSINE:
        sq_a = T.reduce_sum(T.mul(d, d), axis=axes)
        sq_b = T.reduce_sum(T.mul(d_ref, d_ref), axis=axes)
        keep = (np.sqrt(sq_a.data) >= NORM_GUARD) & (np.sqrt(sq_b.data) >= NORM_GUARD)
        mask = Tensor(keep.astype(np.float64), _copy=False)
        offset = Tensor(1.0 - keep.astype(np.float64), _copy=False)
        prod = T.add(T.mul(T.mul(sq_a, sq_b), mask), offset)
        inner = T.reduce_sum(T.mul(d, d_ref), axis=axes)
        return T.neg(T.mul(T.div(inner, T.sqrt(prod)), mask))

    if kind is ErrorFnKind.HIST_INTERSECT:
        # overlap of the two L1-normalized histograms: -1 when equal, and
        # invariant to a positive scale of either input
        abs_a, abs_b = T.absolute(d), T.absolute(d_ref)
        l1_a = T.reduce_sum(abs_a, axis=axes)
        l1_b = T.reduce_sum(abs_b, axis=axes)
        keep = (l1_a.data >= NORM_GUARD) & (l1_b.data >= NORM_GUARD)
        mask = Tensor(keep.astype(np.float64), _copy=False)
        offset = Tensor(1.0 - keep.astype(np.float64), _copy=False)

        def unit(v, l1):
            # masked rows divide by 1
            l1 = T.reshape(T.add(T.mul(l1, mask), offset), (d.shape[0],) + (1,) * len(axes))
            return T.div(v, T.broadcast_to(l1, v.shape))

        overlap = T.reduce_sum(T.minimum(unit(abs_a, l1_a), unit(abs_b, l1_b)), axis=axes)
        return T.neg(T.mul(overlap, mask))
    raise ValueError(f"unknown error function {kind!r}")


def interpretable_loss(
    model,
    x_batch,
    targets,
    kind: ErrorFnKind = ErrorFnKind.COSINE,
    lam: float = 0.0,
) -> InterpLossResult:
    """Total loss: classification plus lam times the gradient-alignment term.

    Per example, the standard input-gradient of the shared batch loss is
    taken with create_graph so the error term stays differentiable w.r.t.
    parameters; the guided gradient is computed in guided mode and detached.
    With lam == 0 the regularizer path is bypassed entirely and the result
    is bit-identical to plain cross-entropy training.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    ce, fwd, x = _forward_ce(model, x_batch, targets)
    n = x.shape[0]

    if lam == 0.0:
        bd = LossBreakdown(ce.item(), 0.0, ce.item(), 0.0)
        return InterpLossResult(bd, ce, fwd.params, x, None, None)

    (d_std,) = backward(ce, [x], create_graph=True)
    (d_guided,) = backward(ce, [x], mode=GradMode.GUIDED)
    errs = _per_example_errors(kind, d_std, d_guided)
    loss_r = T.scale(T.reduce_sum(errs), 1.0 / n)
    total = T.add(ce, T.scale(loss_r, lam))
    bd = LossBreakdown(ce.item(), loss_r.item(), total.item(), lam)
    return InterpLossResult(bd, total, fwd.params, x, d_std, d_guided)
