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


@dataclass
class InterpLossResult:
    breakdown: LossBreakdown
    total: Tensor                  # tape scalar, differentiable w.r.t. parameters
    params: list[Tensor]           # tape-watched parameter aliases
    standard_grads: Tensor | None  # dL_C/dX, on tape (None when lam == 0)
    guided_grads: Tensor | None    # guided counterpart, always detached


def _forward_ce(model, x_batch, targets):
    """Watch inputs, run the model, return (mean CE, forward result, watched x)."""
    tape = Tape()
    x = x_batch if isinstance(x_batch, Tensor) else Tensor(x_batch)
    if x.data.ndim != 4 or x.shape[0] == 0:
        raise ValueError("batch must be a nonempty (N,C,H,W) array")
    x = tape.watch(x)
    fwd = model.forward(x, tape)
    ce = T.mean(T.cross_entropy_logits(fwd.logits, targets))
    return ce, fwd, x


def _gradient_pair(model, x_batch, targets, create_graph=False):
    """(mean CE, forward result, standard and guided input-gradients of the CE)
    from one forward: the pair the regularizer aligns; the guided one is detached."""
    ce, fwd, x = _forward_ce(model, x_batch, targets)
    (d_std,) = backward(ce, [x], create_graph=create_graph)
    (d_guided,) = backward(ce, [x], mode=GradMode.GUIDED)
    return ce, fwd, d_std, d_guided


def _norm_guard(norm_a: np.ndarray, norm_b: np.ndarray):
    """Constants (mask, 1 - mask) that zero the terms of the examples whose
    two norms do not both reach NORM_GUARD, and divide them by 1."""
    mask = ((norm_a >= NORM_GUARD) & (norm_b >= NORM_GUARD)).astype(np.float64)
    return Tensor(mask), Tensor(1.0 - mask)


def error_fn(kind: ErrorFnKind, d: Tensor, d_ref: Tensor) -> Tensor:
    """Per-example errors between two (N, ...) batches of gradient images,
    shape (N,), on tape and differentiable w.r.t. the first.

    MAE and MSE are mean element-wise distances; cosine and histogram
    intersection are similarities with a negative sign. The reference is
    detached by the caller. A cosine (hist) example whose L2 (L1) norm in
    either input falls under NORM_GUARD contributes exactly 0: dead
    gradients happen early in training.
    """
    if d.shape != d_ref.shape:
        raise ValueError(f"error_fn: shapes differ {d.shape} vs {d_ref.shape}")
    if d.data.ndim < 2 or d.size == 0:
        raise ValueError(f"error_fn: need nonempty (N, ...) batches, got {d.shape}")
    axes = tuple(range(1, d.data.ndim))
    if kind is ErrorFnKind.MAE:
        return T.mean(T.absolute(T.sub(d, d_ref)), axis=axes)
    if kind is ErrorFnKind.MSE:
        diff = T.sub(d, d_ref)
        return T.mean(T.mul(diff, diff), axis=axes)

    if kind is ErrorFnKind.COSINE:
        sq_a = T.reduce_sum(T.mul(d, d), axis=axes)
        sq_b = T.reduce_sum(T.mul(d_ref, d_ref), axis=axes)
        mask, offset = _norm_guard(np.sqrt(sq_a.data), np.sqrt(sq_b.data))
        prod = T.add(T.mul(T.mul(sq_a, sq_b), mask), offset)
        inner = T.reduce_sum(T.mul(d, d_ref), axis=axes)
        return T.neg(T.mul(T.div(inner, T.sqrt(prod)), mask))

    if kind is ErrorFnKind.HIST_INTERSECT:
        # overlap of the two L1-normalized histograms: -1 when equal, and
        # invariant to a positive scale of either input
        abs_a, abs_b = T.absolute(d), T.absolute(d_ref)
        l1_a = T.reduce_sum(abs_a, axis=axes)
        l1_b = T.reduce_sum(abs_b, axis=axes)
        mask, offset = _norm_guard(l1_a.data, l1_b.data)

        def unit(v, l1):
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
    if lam == 0.0:
        ce, fwd, _ = _forward_ce(model, x_batch, targets)
        bd = LossBreakdown(ce.item(), 0.0, ce.item())
        return InterpLossResult(bd, ce, fwd.params, None, None)

    ce, fwd, d_std, d_guided = _gradient_pair(model, x_batch, targets, create_graph=True)
    errs = error_fn(kind, d_std, d_guided)
    loss_r = T.mean(errs)
    total = T.add(ce, T.scale(loss_r, lam))
    bd = LossBreakdown(ce.item(), loss_r.item(), total.item())
    return InterpLossResult(bd, total, fwd.params, d_std, d_guided)
