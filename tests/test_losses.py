"""Loss and error-function tests, including the detachment invariant and the
finite-difference oracle for the full regularized objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from igrad import nn
from igrad import tensor as T
from igrad.gradcheck import finite_diff_gradient
from igrad.losses import (
    NORM_GUARD,
    ErrorFnKind,
    error_fn,
    interpretable_loss,
    _forward_ce,
)
from igrad.tensor import GradMode, Tensor, backward


def small_model(seed=0, hw=8, classes=3, widths=(4, 6)):
    return nn.build_model(nn.tinycnn((3, hw, hw), classes, widths), seed)


class TestCrossEntropy:
    def test_onehot_is_zero(self):
        # the softmax of these logits is exactly one-hot on the target
        assert T.cross_entropy_logits(Tensor([[0.0, 1000.0, 0.0]]), [1]).item() == 0.0

    def test_uniform_is_log_c(self):
        got = T.cross_entropy_logits(Tensor([[0.0] * 4]), [2]).item()
        assert got == pytest.approx(math.log(4), abs=1e-12)

    def test_from_logits_value(self):
        # -log(e^2 / (e^2 + 1)) computed independently
        want = math.log(1.0 + math.exp(-2.0))
        got = T.cross_entropy_logits(Tensor([[2.0, 0.0]]), [0]).item()
        assert got == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.126928, abs=1e-6)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="target"):
            T.cross_entropy_logits(Tensor([[0.5, 0.5]]), [2])

    def test_stable_for_large_logits(self):
        assert np.isfinite(T.cross_entropy_logits(Tensor([[1000.0, 0.0]]), [1]).item())


class TestClassificationLoss:
    def test_perfect_prediction_near_zero(self):
        m = small_model()
        m.param_by_name("head.b").data[:] = [50.0, -50.0, -50.0]
        m.param_by_name("head.w").data[:] = 0.0
        x = np.zeros((1, 3, 8, 8))
        assert _forward_ce(m, x, [0])[0].item() == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_example_mean_invariance(self):
        m = small_model()
        x = np.random.default_rng(0).normal(size=(1, 3, 8, 8))
        single = _forward_ce(m, x, [1])[0].item()
        double = _forward_ce(m, np.concatenate([x, x]), [1, 1])[0].item()
        assert double == pytest.approx(single, abs=1e-12)

    def test_two_example_mean(self):
        m = small_model()
        rng = np.random.default_rng(1)
        xa = rng.normal(size=(1, 3, 8, 8))
        xb = rng.normal(size=(1, 3, 8, 8))
        la = _forward_ce(m, xa, [0])[0].item()
        lb = _forward_ce(m, xb, [2])[0].item()
        lab = _forward_ce(m, np.concatenate([xa, xb]), [0, 2])[0].item()
        assert lab == pytest.approx((la + lb) / 2, rel=1e-12)

    def test_probabilities_stay_off_the_tape(self):
        # no loss reads the forward's softmax, so training records none
        ce, fwd, _ = _forward_ce(small_model(), np.zeros((2, 3, 8, 8)), [0, 1])
        assert fwd.probs.tape is None
        assert "softmax" not in {ref().op for ref in ce.tape.nodes if ref() is not None}

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            _forward_ce(small_model(), np.zeros((0, 3, 8, 8)), [])


class TestErrorFn:
    def test_identity_cases_exact(self):
        d = Tensor(np.random.default_rng(2).normal(size=(1, 7)))
        same = Tensor(d.data.copy())
        assert error_fn(ErrorFnKind.MAE, d, same).item() == 0.0
        assert error_fn(ErrorFnKind.MSE, d, same).item() == 0.0
        assert error_fn(ErrorFnKind.COSINE, d, same).item() == -1.0
        assert error_fn(ErrorFnKind.HIST_INTERSECT, d, same).item() == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_cosine_zero(self):
        a = Tensor([[1.0, 0.0]])
        b = Tensor([[0.0, 1.0]])
        assert error_fn(ErrorFnKind.COSINE, a, b).item() == 0.0

    def test_antiparallel_cosine_worst(self):
        d = Tensor([[0.3, -0.8, 2.0]])
        neg = Tensor(-d.data)
        assert error_fn(ErrorFnKind.COSINE, d, neg).item() == pytest.approx(1.0, abs=1e-12)

    def test_histogram_intersection_direct(self):
        # -(0.5 + 0.5) / (1 * 1) from the definition
        d = Tensor([[0.5, 0.5]])
        assert error_fn(ErrorFnKind.HIST_INTERSECT, d, Tensor([[0.5, 0.5]])).item() == -1.0

    def test_guarded_rows_score_alone_and_zero(self):
        # rows 1-3 hold an all-zero gradient, one under NORM_GUARD and one
        # with a reference under NORM_GUARD; each row's error in the batch is
        # its error as a batch of one, bit for bit, and the similarities
        # score the guarded rows exactly 0
        rng = np.random.default_rng(11)
        d = rng.normal(size=(4, 2, 3))
        ref = rng.normal(size=(4, 2, 3))
        d[1] = 0.0
        d[2] = 0.0
        d[2, 0, 1] = 0.1 * NORM_GUARD
        ref[3] = 0.0
        ref[3, 1, 2] = -0.1 * NORM_GUARD
        for kind in ErrorFnKind:
            batch = error_fn(kind, Tensor(d), Tensor(ref)).data
            alone = [error_fn(kind, Tensor(d[i : i + 1]), Tensor(ref[i : i + 1])) for i in range(4)]
            assert batch.shape == (4,)
            assert batch.tobytes() == np.concatenate([e.data for e in alone]).tobytes()
            if kind in (ErrorFnKind.COSINE, ErrorFnKind.HIST_INTERSECT):
                assert (batch[1:] == 0.0).all()
                assert batch[0] != 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            error_fn(ErrorFnKind.MAE, Tensor([[1.0]]), Tensor([[1.0, 2.0]]))

    @settings(max_examples=40)
    @given(
        hnp.arrays(np.float64, (1, 6), elements=st.floats(-5, 5)),
        hnp.arrays(np.float64, (1, 6), elements=st.floats(-5, 5)),
        st.floats(1e-3, 1e3),
    )
    def test_symmetry_and_bounds(self, a, b, s):
        da, db = Tensor(a), Tensor(b)
        guarded = {
            ErrorFnKind.COSINE: lambda v: np.sqrt(np.sum(v * v)),
            ErrorFnKind.HIST_INTERSECT: lambda v: np.sum(np.abs(v)),
        }
        for kind in ErrorFnKind:
            if kind in guarded and min(guarded[kind](a), guarded[kind](b)) < NORM_GUARD:
                continue  # scored 0; test_guarded_rows_score_alone_and_zero
            e_ab = error_fn(kind, da, db).item()
            e_ba = error_fn(kind, db, da).item()
            assert e_ab == pytest.approx(e_ba, rel=1e-12, abs=1e-12)
            if kind in (ErrorFnKind.MAE, ErrorFnKind.MSE):
                assert e_ab >= 0.0
            elif kind is ErrorFnKind.COSINE:
                assert -1.0 - 1e-12 <= e_ab <= 1.0 + 1e-12
            else:
                assert e_ab <= 0.0
            if kind in guarded:
                # the similarities are -1 at equality and scale-invariant
                assert error_fn(kind, da, da).item() == pytest.approx(-1.0, abs=1e-12)
                if guarded[kind](s * b) >= NORM_GUARD:
                    e_as = error_fn(kind, da, Tensor(s * b)).item()
                    assert e_as == pytest.approx(e_ab, rel=1e-12, abs=1e-12)

    def test_differentiable_wrt_first_argument(self):
        rng = np.random.default_rng(3)
        ref = Tensor(rng.normal(size=(1, 5)))
        base = rng.normal(size=(1, 5))
        for kind in ErrorFnKind:
            tape = T.Tape()
            d = tape.watch(Tensor(base))
            (got,) = backward(error_fn(kind, d, ref), [d])
            want = finite_diff_gradient(lambda t: error_fn(kind, t, ref), Tensor(base))
            np.testing.assert_allclose(got.data, want.data, rtol=1e-6, atol=1e-8)


class TestInterpretableLoss:
    def test_lam_zero_matches_plain_loss_bitwise(self):
        m = small_model()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 3, 8, 8))
        t = [0, 1, 2]
        res = interpretable_loss(m, x, t, lam=0.0)
        plain, _, _ = _forward_ce(m, x, t)
        assert res.breakdown.total == plain.item()
        assert res.breakdown.loss_r == 0.0
        g_interp = backward(res.total, res.params)
        ce, fwd, _ = _forward_ce(m, x, t)
        g_plain = backward(ce, fwd.params)
        for a, b in zip(g_interp, g_plain):
            np.testing.assert_array_equal(a.data, b.data)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            interpretable_loss(small_model(), np.zeros((1, 3, 8, 8)), [0], lam=-0.1)

    def test_breakdown_composition(self):
        m = small_model()
        x = np.random.default_rng(5).normal(size=(2, 3, 8, 8))
        res = interpretable_loss(m, x, [0, 1], ErrorFnKind.COSINE, lam=0.02)
        bd = res.breakdown
        assert bd.total == bd.loss_c + 0.02 * bd.loss_r
        assert np.isfinite([bd.loss_c, bd.loss_r, bd.total]).all()

    def test_guided_branch_is_detached(self):
        m = small_model()
        x = np.random.default_rng(6).normal(size=(2, 3, 8, 8))
        res = interpretable_loss(m, x, [0, 2], ErrorFnKind.COSINE, lam=0.1)
        assert res.guided_grads.tape is None
        assert res.standard_grads.tape is not None

    def test_detachment_invariant(self):
        # substituting any equal-valued constant for the guided gradient must
        # leave the parameter gradients bit-identical
        m = small_model()
        x = np.random.default_rng(7).normal(size=(2, 3, 8, 8))
        t = [1, 0]
        lam = 0.05

        def theta_grads(guided_source):
            ce, fwd, xw = _forward_ce(m, x, t)
            (d_std,) = backward(ce, [xw], create_graph=True)
            if guided_source is None:
                (d_g,) = backward(ce, [xw], mode=GradMode.GUIDED)
            else:
                d_g = Tensor(guided_source.copy())  # fresh constant, equal values
            errs = error_fn(ErrorFnKind.COSINE, d_std, d_g)
            total = T.add(ce, T.scale(T.scale(T.reduce_sum(errs), 0.5), lam))
            return [g.data for g in backward(total, fwd.params)], d_g.data

        grads_a, guided_vals = theta_grads(None)
        grads_b, _ = theta_grads(guided_vals)
        for a, b in zip(grads_a, grads_b):
            np.testing.assert_array_equal(a, b)

    def test_batch_mean_consistency(self):
        m = small_model()
        x = np.random.default_rng(8).normal(size=(4, 3, 8, 8))
        t = [0, 1, 2, 0]
        for kind in ErrorFnKind:
            res = interpretable_loss(m, x, t, kind, lam=1.0)
            per = []
            for i in range(4):
                di = Tensor(res.standard_grads.data[i : i + 1].copy())
                gi = Tensor(res.guided_grads.data[i : i + 1].copy())
                per.append(error_fn(kind, di, gi).item())
            assert res.breakdown.loss_r == pytest.approx(np.mean(per), abs=1e-12)

    def test_aligned_gradients_give_perfect_scores(self):
        # hand-built net with positive weights and a positive loss: every
        # pre-activation and backward signal is positive, so the guided and
        # standard input-gradients coincide exactly
        rng = np.random.default_rng(9)
        w1 = Tensor(rng.uniform(0.1, 1.0, size=(3, 1, 3, 3)))
        w2 = Tensor(rng.uniform(0.1, 1.0, size=(2, 3, 3, 3)))
        x0 = rng.uniform(0.1, 1.0, size=(1, 1, 8, 8))

        def input_grad(mode):
            tape = T.Tape()
            x = tape.watch(Tensor(x0))
            h = T.relu(T.conv2d(x, tape.watch(w1)))
            h = T.relu(T.conv2d(h, tape.watch(w2)))
            (g,) = backward(T.reduce_sum(h), [x], mode=mode)
            return g

        d_std = input_grad(GradMode.STANDARD)
        d_gui = input_grad(GradMode.GUIDED)
        np.testing.assert_array_equal(d_std.data, d_gui.data)
        a, b = Tensor(d_std.data), Tensor(d_gui.data)
        assert error_fn(ErrorFnKind.MAE, a, b).item() == 0.0
        assert error_fn(ErrorFnKind.MSE, a, b).item() == 0.0
        assert error_fn(ErrorFnKind.COSINE, a, b).item() == -1.0

    def test_full_gradient_matches_frozen_guided_fd(self):
        # FD oracle for d(total)/d(theta): the guided branch enters the loss
        # as a detached constant, so the probe holds it at the base values
        m = small_model(seed=3)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 8, 8)) * 0.5
        t = [0, 2]
        lam, kind = 7.5e-3, ErrorFnKind.COSINE

        res = interpretable_loss(m, x, t, kind, lam)
        grads = backward(res.total, res.params)
        frozen = res.guided_grads.data.copy()

        def loss_at(theta):
            saved = [p.data.copy() for p in m.params]
            pos = 0
            for p in m.params:
                p.data = theta[pos : pos + p.data.size].reshape(p.data.shape)
                pos += p.data.size
            ce, _, xw = _forward_ce(m, x, t)
            (d_std,) = backward(ce, [xw], create_graph=True)
            errs = error_fn(kind, d_std, Tensor(frozen))
            val = T.add(ce, T.scale(T.scale(T.reduce_sum(errs), 0.5), lam)).item()
            for p, s in zip(m.params, saved):
                p.data = s
            return val

        theta0 = np.concatenate([p.data.reshape(-1) for p in m.params])
        got = np.concatenate([g.data.reshape(-1) for g in grads])
        idxs = rng.choice(theta0.size, size=60, replace=False)
        h = 1e-5
        for i in idxs:
            probe = theta0.copy()
            probe[i] += h
            hi = loss_at(probe)
            probe[i] -= 2 * h
            lo = loss_at(probe)
            fd = (hi - lo) / (2 * h)
            tol = max(1e-6, 1e-3 * max(abs(fd), abs(got[i])))
            assert abs(got[i] - fd) <= tol, f"param {i}: {got[i]} vs {fd}"
