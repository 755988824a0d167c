"""SGD training loop: momentum, weight decay, step learning-rate schedule,
per-epoch logging and checkpointing. Deterministic for a fixed seed."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .losses import ErrorFnKind, LossBreakdown, interpretable_loss
from .tensor import backward

# images per forward in evaluate_accuracy. Its convolutions build their
# columns one block of about 1 MiB at a time, so a pass no longer sets a
# training run's peak memory: in perfbench's train_reg, ru_maxrss
# read around each op stops rising once the splits are drawn (a
# synthetic_shapes call peaks at about 20 MB of transients for a 6.3 MB split)
EVAL_BATCH = 128


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    base_lr: float = 0.05
    lr_decay_epochs: tuple[int, ...] = (15, 22)
    lr_decay_factor: float = 5.0
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lam: float = 0.0
    error_kind: ErrorFnKind = ErrorFnKind.COSINE
    seed: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # written so that NaN fails each check
        if not self.base_lr > 0:
            raise ValueError("base_lr must be positive")
        if not self.lr_decay_factor > 1:
            raise ValueError("lr_decay_factor must be > 1")
        if not self.lam >= 0:
            raise ValueError("lam must be >= 0")


def reference_recipe() -> TrainConfig:
    """The full-scale reference schedule: 200 epochs, lr 0.1 divided by 5
    on epochs 60/120/160, batch 128, with the cosine regularizer at
    lambda 7.5e-3."""
    return TrainConfig(
        epochs=200,
        batch_size=128,
        base_lr=0.1,
        lr_decay_epochs=(60, 120, 160),
        lr_decay_factor=5.0,
        lam=7.5e-3,
    )


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 1-based epoch index (drop applies at the epoch)."""
    drops = sum(1 for d in cfg.lr_decay_epochs if epoch >= d)
    return cfg.base_lr / cfg.lr_decay_factor**drops


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    loss_c: float
    loss_r: float
    loss_total: float
    train_acc: float
    test_acc: float
    seconds: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(
                ["epoch", "lr", "loss_c", "loss_r", "loss_total",
                 "train_acc", "test_acc", "seconds"]
            )
            for r in self.records:
                w.writerow(
                    [r.epoch, repr(r.lr), repr(r.loss_c), repr(r.loss_r),
                     repr(r.loss_total), repr(r.train_acc), repr(r.test_acc),
                     f"{r.seconds:.3f}"]
                )


def train_step(model, x_batch, targets, cfg: TrainConfig, lr: float, velocity) -> LossBreakdown:
    """One loss evaluation plus an SGD-with-momentum parameter update.

    Weight decay is added to the gradient before it enters the momentum
    buffer; the returned breakdown is the pre-update loss. A parameter left
    non-finite by the update (which a non-finite gradient always does, since
    lr > 0) raises DivergenceError naming it.
    """
    res = interpretable_loss(model, x_batch, targets, cfg.error_kind, cfg.lam)
    bd = res.breakdown
    if not np.isfinite(bd.total):
        raise DivergenceError(f"divergence: non-finite loss {bd.total}")
    grads = backward(res.total, res.params)
    for p, g, v in zip(model.params, grads, velocity):
        step = g.data
        if cfg.weight_decay:
            step = step + cfg.weight_decay * p.data
        if cfg.momentum:
            v *= cfg.momentum
            v += step
            step = v
        p.data -= lr * step
    for p in model.params:
        if not np.all(np.isfinite(p.data)):
            raise DivergenceError(f"divergence: non-finite parameter {p.name}")
    return bd


def evaluate_accuracy(model, dataset) -> float:
    """Top-1 accuracy, EVAL_BATCH images per forward; argmax ties resolve to
    the lowest class index."""
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset must be nonempty")
    hits = 0
    for start in range(0, n, EVAL_BATCH):
        idx = np.arange(start, min(start + EVAL_BATCH, n))
        x, t = dataset.batch(idx)  # no rng: evaluation never augments
        probs = model.forward(x).probs.data
        hits += int(np.sum(np.argmax(probs, axis=1) == t))
    return hits / n


def fit(model, train_set, test_set, cfg: TrainConfig) -> TrainLog:
    """Full training run following the step schedule; shuffles with the
    seeded generator, logs one record per epoch, and writes the checkpoint
    at the end when cfg.checkpoint_path is set."""
    if len(train_set) == 0 or len(test_set) == 0:
        raise ValueError("datasets must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    velocity = [np.zeros_like(p.data) for p in model.params]
    log = TrainLog()
    n = len(train_set)
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        lr = lr_at(cfg, epoch)
        order = rng.permutation(n)
        sums = np.zeros(3)
        seen = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x, t = train_set.batch(idx, rng=rng)
            try:
                bd = train_step(model, x, t, cfg, lr, velocity)
            except DivergenceError as e:
                raise DivergenceError(f"{e} (epoch {epoch}, step {start // cfg.batch_size})") from None
            sums += np.array([bd.loss_c, bd.loss_r, bd.total]) * len(idx)
            seen += len(idx)
        record = EpochRecord(
            epoch=epoch,
            lr=lr,
            loss_c=float(sums[0] / seen),
            loss_r=float(sums[1] / seen),
            loss_total=float(sums[2] / seen),
            train_acc=evaluate_accuracy(model, train_set),
            test_acc=evaluate_accuracy(model, test_set),
            seconds=time.perf_counter() - t0,
        )
        log.records.append(record)
    if cfg.checkpoint_path:
        nn.save_checkpoint(model, cfg.checkpoint_path)
    return log
