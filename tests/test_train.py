"""Training loop: SGD semantics, schedule arithmetic, determinism, and the
lam=0 bit-identity with plain cross-entropy training."""

import re

import numpy as np
import pytest

from igrad import data, nn, train
from igrad.losses import ErrorFnKind, _forward_ce
from igrad.tensor import backward
from igrad.train import (
    DivergenceError,
    TrainConfig,
    evaluate_accuracy,
    fit,
    lr_at,
    reference_recipe,
    train_step,
)


def tiny_sets(n_train=64, n_test=16, hw=8, seed=5):
    tr = data.synthetic_shapes(n_train, hw=hw, seed=seed)
    te = data.synthetic_shapes(n_test, hw=hw, seed=seed + 1000)
    te.mean, te.std = tr.mean, tr.std
    return tr, te


def tiny_model(tr, seed=0):
    spec = nn.tinycnn(tr.images[0].pixels.shape, tr.num_classes, (4, 6))
    return nn.build_model(spec, seed)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay_factor=1.0)
        with pytest.raises(ValueError):
            TrainConfig(lam=-1e-9)
        for key in ("base_lr", "lr_decay_factor", "lam"):
            with pytest.raises(ValueError, match=key):
                TrainConfig(**{key: float("nan")})

    def test_reference_recipe_values(self):
        cfg = reference_recipe()
        assert cfg.epochs == 200
        assert cfg.batch_size == 128
        assert cfg.base_lr == 0.1
        assert cfg.lr_decay_epochs == (60, 120, 160)
        assert cfg.lr_decay_factor == 5.0
        assert cfg.lam == 7.5e-3
        assert cfg.error_kind is ErrorFnKind.COSINE

    def test_lr_at_epoch_161(self):
        cfg = reference_recipe()
        assert lr_at(cfg, 161) == 0.1 / 5**3
        assert lr_at(cfg, 161) == pytest.approx(8e-4, rel=1e-12)

    def test_schedule_is_step_function(self):
        cfg = reference_recipe()
        lrs = [lr_at(cfg, e) for e in range(1, cfg.epochs + 1)]
        drops = sum(1 for a, b in zip(lrs, lrs[1:]) if b < a)
        assert drops == len(cfg.lr_decay_epochs)
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))


class TestTrainStep:
    def test_vanilla_sgd_update(self):
        tr, _ = tiny_sets()
        m = tiny_model(tr)
        x, t = tr.batch(np.arange(8))
        theta0 = [p.data.copy() for p in m.params]

        ce, fwd, _ = _forward_ce(m, x, t)
        expected_grads = [g.data.copy() for g in backward(ce, fwd.params)]

        cfg = TrainConfig(epochs=1, momentum=0.0, weight_decay=0.0, lam=0.0)
        vel = [np.zeros_like(p.data) for p in m.params]
        train_step(m, x, t, cfg, lr=0.1, velocity=vel)
        for p, th0, g in zip(m.params, theta0, expected_grads):
            np.testing.assert_array_equal(p.data, th0 - 0.1 * g)

    def test_momentum_and_weight_decay(self):
        tr, _ = tiny_sets()
        m = tiny_model(tr)
        x, t = tr.batch(np.arange(4))
        cfg = TrainConfig(epochs=1, momentum=0.9, weight_decay=0.01, lam=0.0)
        theta0 = [p.data.copy() for p in m.params]
        ce, fwd, _ = _forward_ce(m, x, t)
        grads = [g.data.copy() for g in backward(ce, fwd.params)]
        vel = [np.zeros_like(p.data) for p in m.params]
        train_step(m, x, t, cfg, lr=0.05, velocity=vel)
        for p, th0, g in zip(m.params, theta0, grads):
            step = g + 0.01 * th0  # decay enters before the momentum buffer
            np.testing.assert_allclose(p.data, th0 - 0.05 * step, atol=1e-15)

    def test_divergence_detected(self):
        tr, _ = tiny_sets()
        m = tiny_model(tr)
        m.param_by_name("head.w").data[:] = np.nan
        x, t = tr.batch(np.arange(2))
        cfg = TrainConfig(epochs=1, lam=0.0)
        with pytest.raises(DivergenceError, match="divergence"):
            train_step(m, x, t, cfg, 0.1, [np.zeros_like(p.data) for p in m.params])


class TestFit:
    def test_overflowing_update_names_the_parameter(self):
        # the step-0 loss is finite; the largest finite lr overflows the update
        tr, te = tiny_sets()
        m = tiny_model(tr)
        cfg = TrainConfig(epochs=1, batch_size=8, base_lr=np.finfo(np.float64).max, lam=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                fit(m, tr, te, cfg)
        found = re.fullmatch(r"divergence: non-finite parameter (\S+) \(epoch 1, step 0\)", str(err.value))
        assert found, str(err.value)
        assert not np.all(np.isfinite(m.param_by_name(found.group(1)).data))

    def test_deterministic_runs(self):
        tr, te = tiny_sets()
        cfg = TrainConfig(epochs=2, batch_size=16, seed=3, lam=0.0)
        m1 = tiny_model(tr)
        log1 = fit(m1, tr, te, cfg)
        m2 = tiny_model(tr)
        log2 = fit(m2, tr, te, cfg)
        for p, q in zip(m1.params, m2.params):
            np.testing.assert_array_equal(p.data, q.data)
        for a, b in zip(log1.records, log2.records):
            assert (a.epoch, a.lr, a.loss_c, a.loss_r, a.loss_total) == (
                b.epoch, b.lr, b.loss_c, b.loss_r, b.loss_total
            )
            assert (a.train_acc, a.test_acc) == (b.train_acc, b.test_acc)

    def test_lam_zero_bit_identical_to_plain_ce(self):
        tr, te = tiny_sets()
        cfg = TrainConfig(epochs=2, batch_size=16, seed=7, lam=0.0)
        m_interp = tiny_model(tr)
        fit(m_interp, tr, te, cfg)

        # independent plain cross-entropy loop with the same seeding
        m_plain = tiny_model(tr)
        rng = np.random.default_rng(cfg.seed)
        vel = [np.zeros_like(p.data) for p in m_plain.params]
        for epoch in range(1, cfg.epochs + 1):
            lr = lr_at(cfg, epoch)
            order = rng.permutation(len(tr))
            for start in range(0, len(tr), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                x, t = tr.batch(idx, rng=rng)
                ce, fwd, _ = _forward_ce(m_plain, x, t)
                grads = backward(ce, fwd.params)
                for p, g, v in zip(m_plain.params, grads, vel):
                    step = g.data + cfg.weight_decay * p.data
                    v *= cfg.momentum
                    v += step
                    p.data -= lr * v

        for a, b in zip(m_interp.params, m_plain.params):
            np.testing.assert_array_equal(a.data, b.data)

    def test_log_columns_finite_and_increasing(self):
        tr, te = tiny_sets()
        cfg = TrainConfig(epochs=3, batch_size=32, lam=0.01)
        log = fit(tiny_model(tr), tr, te, cfg)
        epochs = [r.epoch for r in log.records]
        assert epochs == [1, 2, 3]
        for r in log.records:
            assert np.isfinite([r.loss_c, r.loss_r, r.loss_total]).all()

    def test_checkpointing(self, tmp_path):
        tr, te = tiny_sets()
        ckpt = tmp_path / "m.ckpt"
        cfg = TrainConfig(epochs=2, batch_size=32, lam=0.0, checkpoint_path=str(ckpt))
        m = tiny_model(tr)
        fit(m, tr, te, cfg)
        loaded = nn.load_checkpoint(ckpt)
        for a, b in zip(m.params, loaded.params):
            np.testing.assert_array_equal(a.data, b.data)

    def test_csv_format(self, tmp_path):
        tr, te = tiny_sets()
        cfg = TrainConfig(epochs=1, batch_size=32, lam=0.0)
        log = fit(tiny_model(tr), tr, te, cfg)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,loss_c,loss_r,loss_total,train_acc,test_acc,seconds"
        assert len(lines) == 2


class TestEvaluateAccuracy:
    def test_tie_goes_to_lowest_index(self):
        tr, _ = tiny_sets(n_train=4, n_test=4)
        m = tiny_model(tr)
        m.param_by_name("head.w").data[:] = 0.0
        m.param_by_name("head.b").data[:] = 0.0
        # uniform predictor: argmax is class 0 everywhere
        only_zero = data.DatasetSplit(tr.pixels[:1], tr.labels[:1], tr.num_classes, tr.mean, tr.std)
        assert tr.images[0].label == 0
        assert evaluate_accuracy(m, only_zero) == 1.0

    def test_perfect_predictor(self):
        tr, _ = tiny_sets(n_train=8, n_test=4)
        m = tiny_model(tr)
        cfg = TrainConfig(epochs=40, batch_size=8, base_lr=0.05, lam=0.0)
        fit(m, tr, tr, cfg)
        assert evaluate_accuracy(m, tr) == 1.0


class TestMiniResnet:
    def test_trains_with_regularizer(self):
        tr, te = tiny_sets(n_train=32, n_test=8)
        spec = nn.miniresnet(tr.images[0].pixels.shape, tr.num_classes, width=6)
        m = nn.build_model(spec, 0)
        cfg = TrainConfig(epochs=2, batch_size=16, lam=0.1)
        log = fit(m, tr, te, cfg)
        assert np.isfinite([r.loss_total for r in log.records]).all()
        assert log.records[-1].loss_c < log.records[0].loss_c * 2  # not diverging
