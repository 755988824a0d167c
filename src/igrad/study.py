"""Desk-scale effect study: does cosine gradient-alignment training raise the
held-out agreement between standard and guided input-gradients without
hurting Grad-CAM faithfulness?

Paired runs (regularized vs lam=0) on the synthetic shape dataset over
several seeds; this backs the acceptance gate and the runnable script.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import data, metrics, nn, saliency
from .losses import ErrorFnKind, _forward_ce, _per_example_errors
from .tensor import GradMode, backward
from .train import TrainConfig, fit

DESK_LAMBDA = 1.0  # chosen by pilot sweep over {1e-3 .. 1}; see README
ALIGN_BATCH = 64  # images per batch in mean_cosine_alignment


def mean_cosine_alignment(model, dataset) -> float:
    """Mean over examples of cos(standard grad, guided grad) of the batch CE
    loss w.r.t. the input, in batches of ALIGN_BATCH; examples with a norm
    under NORM_GUARD contribute 0."""
    vals = []
    n = len(dataset)
    for start in range(0, n, ALIGN_BATCH):
        idx = np.arange(start, min(start + ALIGN_BATCH, n))
        x, t = dataset.batch(idx)
        ce, _, xw = _forward_ce(model, x, t)
        (d_std,) = backward(ce, [xw])
        (d_gui,) = backward(ce, [xw], mode=GradMode.GUIDED)
        cos = -_per_example_errors(ErrorFnKind.COSINE, d_std, d_gui).data
        vals.extend(cos.tolist())
    return float(np.mean(vals))


@dataclass
class RunResult:
    seed: int
    lam: float
    train_acc: float
    test_acc: float
    heldout_cosine: float
    gradcam_ad: float
    seconds: float


@dataclass
class StudySummary:
    baseline: list[RunResult]
    regularized: list[RunResult]

    @property
    def cosine_improves_every_seed(self) -> bool:
        return all(
            r.heldout_cosine > b.heldout_cosine
            for b, r in zip(self.baseline, self.regularized)
        )

    @property
    def mean_ad_gap(self) -> float:
        """Regularized minus baseline Grad-CAM Average Drop (negative = better)."""
        base = np.mean([b.gradcam_ad for b in self.baseline])
        reg = np.mean([r.gradcam_ad for r in self.regularized])
        return float(reg - base)

    def rows(self):
        for b, r in zip(self.baseline, self.regularized):
            yield b
            yield r


def _one_run(seed, lam, error_kind, epochs, train_set, test_set) -> RunResult:
    t0 = time.perf_counter()
    spec = nn.tinycnn(train_set.images[0].pixels.shape, train_set.num_classes, (8, 16))
    model = nn.build_model(spec, seed)
    cfg = TrainConfig(
        epochs=epochs,
        batch_size=64,
        base_lr=0.05,
        lr_decay_epochs=(15, 22),
        lr_decay_factor=5.0,
        lam=lam,
        error_kind=error_kind,
        seed=seed,
    )
    last = fit(model, train_set, test_set, cfg).records[-1]
    return RunResult(
        seed=seed,
        lam=lam,
        train_acc=last.train_acc,
        test_acc=last.test_acc,
        heldout_cosine=mean_cosine_alignment(model, test_set),
        gradcam_ad=metrics.faithfulness_report(model, test_set, saliency.GradCam()).ad,
        seconds=time.perf_counter() - t0,
    )


def effect_study(
    seeds=(0, 1, 2),
    lam: float = DESK_LAMBDA,
    error_kind: ErrorFnKind = ErrorFnKind.COSINE,
    epochs: int = 30,
    n_train: int = 2000,
    n_test: int = 400,
    hw: int = 16,
    data_seed: int = 11,
    progress=None,
) -> StudySummary:
    train_set = data.synthetic_shapes(n_train, hw=hw, seed=data_seed)
    test_set = data.synthetic_shapes(n_test, hw=hw, seed=data_seed + 1000)
    test_set.mean, test_set.std = train_set.mean, train_set.std
    baseline, regularized = [], []
    for seed in seeds:
        for lam_run, bucket in ((0.0, baseline), (lam, regularized)):
            run = _one_run(seed, lam_run, error_kind, epochs, train_set, test_set)
            bucket.append(run)
            if progress:
                progress(run)
    return StudySummary(baseline, regularized)
