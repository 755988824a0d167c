"""Desk-scale effect study: does cosine gradient-alignment training raise the
held-out agreement between standard and guided input-gradients without
hurting Grad-CAM faithfulness?

Paired runs (regularized vs lam=0) on the synthetic shape dataset over
several seeds; this backs the acceptance gate and the runnable script.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import config, metrics, nn, saliency
from .losses import ErrorFnKind, _gradient_pair, error_fn
from .train import fit

DESK_LAMBDA = 1.0  # chosen by pilot sweep over {1e-3 .. 1}; see README
ALIGN_BATCH = 64  # images per batch in mean_cosine_alignment


def mean_cosine_alignment(model, dataset) -> float:
    """Mean over examples of cos(standard grad, guided grad) of the batch CE
    loss w.r.t. the input, in batches of ALIGN_BATCH; examples with a norm
    under NORM_GUARD contribute 0."""
    cos = []
    n = len(dataset)
    for start in range(0, n, ALIGN_BATCH):
        idx = np.arange(start, min(start + ALIGN_BATCH, n))
        x, t = dataset.batch(idx)
        _, _, d_std, d_gui = _gradient_pair(model, x, t)
        cos.append(-error_fn(ErrorFnKind.COSINE, d_std, d_gui).data)
    return float(np.mean(np.concatenate(cos)))


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


def effect_study(
    seeds=(0, 1, 2),
    lam: float = DESK_LAMBDA,
    epochs: int = 30,
    n_train: int | None = None,
    n_test: int | None = None,
    progress=None,
) -> StudySummary:
    """Paired lam=0 and lam runs per seed, each a tinycnn trained as
    `igrad train` trains it from the config's defaults; the seed is both the
    model's and the shuffle's. Split sizes default to the config's."""
    cfg = config.validate_config(
        {
            "dataset": {"kind": "synthetic", "n_train": n_train, "n_test": n_test},
            "model": {"architecture": "tinycnn"},
            "train": {"epochs": epochs},
        }
    )
    train_set, test_set = config.build_datasets(cfg)
    spec = config.model_spec(cfg, train_set)
    tc = config.train_config(cfg)
    baseline, regularized = [], []
    for seed in seeds:
        for lam_run, bucket in ((0.0, baseline), (lam, regularized)):
            t0 = time.perf_counter()
            model = nn.build_model(spec, seed)
            fit_cfg = replace(tc, lam=lam_run, seed=seed)
            last = fit(model, train_set, test_set, fit_cfg).records[-1]
            run = RunResult(
                seed=seed,
                lam=lam_run,
                train_acc=last.train_acc,
                test_acc=last.test_acc,
                heldout_cosine=mean_cosine_alignment(model, test_set),
                gradcam_ad=metrics.faithfulness_report(model, test_set, saliency.GradCam()).ad,
                seconds=time.perf_counter() - t0,
            )
            bucket.append(run)
            if progress:
                progress(run)
    return StudySummary(baseline, regularized)
