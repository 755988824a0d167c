"""Engine-level tests: primitive ops, tape recording, backward modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igrad import tensor as T
from igrad.gradcheck import recorded_relu_emissions
from igrad.tensor import GradMode, Tape, Tensor, backward, detach


def watched(tape, arr):
    return tape.watch(Tensor(arr))


class TestForwardPrimitives:
    def test_relu_definition(self):
        out = T.relu(Tensor([1.0, -2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0, 0.0, 3.0])

    def test_conv2d_all_ones(self):
        # 2x2 ones kernel over 3x3 ones: every window sums to 4
        out = T.conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 2, 2))))
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_softmax_symmetry(self):
        out = T.softmax(Tensor([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.5, 0.5]])

    def test_shape_mismatch_names_op(self):
        # elementwise operands must have equal shapes; size 1 does not broadcast
        for other in ([1.0, 2.0, 3.0], [1.0]):
            with pytest.raises(ValueError, match="add"):
                T.add(Tensor([1.0, 2.0]), Tensor(other))
        # softmax is row-wise over a 2-D input
        with pytest.raises(ValueError, match="softmax"):
            T.softmax(Tensor(np.zeros((2, 3, 4))))

    def test_conv_kernel_too_large(self):
        with pytest.raises(ValueError, match="conv2d"):
            T.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 4, 4))))

    def test_records_only_with_node(self):
        tape = Tape()
        a = watched(tape, [1.0, 2.0])
        before = len(tape)
        T.add(Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))  # constants: not recorded
        assert len(tape) == before
        T.add(a, Tensor([2.0, 2.0]))
        assert len(tape) == before + 1

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = watched(t1, [1.0])
        b = watched(t2, [1.0])
        with pytest.raises(ValueError, match="tape"):
            T.add(a, b)


class TestBackward:
    def test_square_derivative(self):
        tape = Tape()
        x = watched(tape, 3.0)
        (g,) = backward(T.mul(x, x), [x])
        assert g.item() == 6.0

    def test_linear_adjoints_bit_exact(self):
        # linear's backward runs linear against transposed views; its adjoints
        # are numpy's own g @ w, g.T @ x and column sums, to the last bit
        rng = np.random.default_rng(4)
        x0, w0, b0 = rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4,))
        g = rng.normal(size=(5, 4))
        tape = Tape()
        x, w, b = (watched(tape, a) for a in (x0, w0, b0))
        out = T.reduce_sum(T.mul(T.linear(x, w, b), Tensor(g)))
        gx, gw, gb = backward(out, [x, w, b])
        np.testing.assert_array_equal(gx.data, g @ w0)
        np.testing.assert_array_equal(gw.data, g.T @ x0)
        np.testing.assert_array_equal(gb.data, g.sum(0))

    def test_relu_rule_standard_vs_guided(self):
        sig = Tensor([0.5, 0.7, -0.2])

        def build():
            tape = Tape()
            u = watched(tape, [1.0, -2.0, 3.0])
            return u, T.reduce_sum(T.mul(T.relu(u), sig))

        u, loss = build()
        (g_std,) = backward(loss, [u])
        np.testing.assert_array_equal(g_std.data, [0.5, 0.0, -0.2])

        u, loss = build()
        (g_gui,) = backward(loss, [u], mode=GradMode.GUIDED)
        np.testing.assert_array_equal(g_gui.data, [0.5, 0.0, 0.0])

    def test_non_scalar_output_rejected(self):
        tape = Tape()
        x = watched(tape, [1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            backward(T.mul(x, x), [x])

    def test_wrt_off_tape_rejected(self):
        tape = Tape()
        x = watched(tape, 2.0)
        loose = Tensor(1.0)
        with pytest.raises(ValueError, match="tape"):
            backward(T.mul(x, x), [loose])

    def test_guided_create_graph_rejected(self):
        tape = Tape()
        x = watched(tape, 2.0)
        y = T.mul(x, x)
        with pytest.raises(ValueError, match="detach"):
            backward(y, [x], mode=GradMode.GUIDED, create_graph=True)

    def test_unreachable_wrt_gets_zeros(self):
        tape = Tape()
        x = watched(tape, 2.0)
        unused = watched(tape, [1.0, 1.0])
        (g,) = backward(T.mul(x, x), [unused])
        np.testing.assert_array_equal(g.data, [0.0, 0.0])

    def test_create_graph_returns_tape_tensor(self):
        tape = Tape()
        x = watched(tape, 2.0)
        y = T.mul(T.mul(x, x), x)  # x^3
        (g,) = backward(y, [x], create_graph=True)
        assert g.node is not None
        np.testing.assert_allclose(g.data, 12.0)
        (gg,) = backward(T.reduce_sum(g), [x])
        np.testing.assert_allclose(gg.data, 12.0)  # d(3x^2)/dx at 2

    def test_plain_backward_returns_detached(self):
        tape = Tape()
        x = watched(tape, 2.0)
        (g,) = backward(T.mul(x, x), [x])
        assert g.node is None


class TestDetach:
    def test_idempotent_on_constants(self):
        t = Tensor([1.0, 2.0])
        d = detach(t)
        assert d.node is None
        np.testing.assert_array_equal(d.data, t.data)
        assert detach(d).node is None

    def test_blocks_gradient_flow(self):
        tape = Tape()
        x = watched(tape, 3.0)
        w = watched(tape, 4.0)
        g = T.mul(x, x)
        y = T.mul(detach(g), w)  # d/dx must be zero
        gx, gw = backward(y, [x, w])
        assert gx.item() == 0.0
        assert gw.item() == 9.0


class TestTape:
    def test_deterministic_tapes(self):
        def run():
            rng = np.random.default_rng(7)
            tape = Tape()
            x = watched(tape, rng.normal(size=(2, 5)))
            w = watched(tape, rng.normal(size=(3, 5)))
            loss = T.reduce_sum(T.softmax(T.linear(x, w)))
            (g,) = backward(loss, [w])
            return [n.op for n in tape.nodes], g.data

        ops1, g1 = run()
        ops2, g2 = run()
        assert ops1 == ops2
        np.testing.assert_array_equal(g1, g2)

    def test_node_inputs_precede(self):
        tape = Tape()
        x = watched(tape, [1.0, 2.0])
        y = T.mul(T.add(x, x), x)
        backward(T.reduce_sum(y), [x], create_graph=True)
        for node in tape.nodes:
            for t in node.inputs:
                if t.node is not None:
                    assert t.node.idx < node.idx


class TestOpSemantics:
    def test_minimum_ties_to_first(self):
        tape = Tape()
        a = watched(tape, [1.0, 2.0, 5.0])
        b = Tensor([1.0, 3.0, 4.0])
        (ga,) = backward(T.reduce_sum(T.minimum(a, b)), [a])
        np.testing.assert_array_equal(ga.data, [1.0, 1.0, 0.0])

    def test_abs_subgradient_zero_at_zero(self):
        tape = Tape()
        x = watched(tape, [-2.0, 0.0, 3.0])
        (g,) = backward(T.reduce_sum(T.absolute(x)), [x])
        np.testing.assert_array_equal(g.data, [-1.0, 0.0, 1.0])

    def test_maxpool_scatters_to_argmax(self):
        tape = Tape()
        x = watched(tape, [[[[1.0, 2.0], [3.0, 4.0]]]])
        (g,) = backward(T.reduce_sum(T.maxpool2d(x)), [x])
        np.testing.assert_array_equal(g.data, [[[[0.0, 0.0], [0.0, 1.0]]]])

    def test_maxpool_tie_lowest_index(self):
        tape = Tape()
        x = watched(tape, np.ones((1, 1, 2, 2)))
        (g,) = backward(T.reduce_sum(T.maxpool2d(x)), [x])
        np.testing.assert_array_equal(g.data, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_pool_argmax_once_per_pool_per_train_step(self, monkeypatch):
        # the indices are taken at forward time and reused by every backward,
        # including the create_graph and guided passes of a lambda-1 step
        from igrad import data, losses, nn, train

        calls = []
        argmax = T._pool_argmax
        monkeypatch.setattr(T, "_pool_argmax", lambda *a: calls.append(1) or argmax(*a))
        split = data.synthetic_shapes(8, hw=8, seed=3)
        x, t = split.batch(np.arange(len(split)))
        model = nn.build_model(nn.tinycnn((3, 8, 8), split.num_classes, (4, 6)), 0)
        velocity = [np.zeros_like(p.data) for p in model.params]
        cfg = train.TrainConfig(lam=1.0, error_kind=losses.ErrorFnKind.COSINE)
        train.train_step(model, x, t, cfg, 0.01, velocity)
        assert len(calls) == 2  # tinycnn has two pooling layers

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    def test_relu_matches_definition(self, vals):
        out = T.relu(Tensor(vals)).data
        np.testing.assert_array_equal(out, np.maximum(np.asarray(vals), 0.0))

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_softmax_rows_normalized(self, seed):
        x = np.random.default_rng(seed).normal(size=(4, 6)) * 10
        p = T.softmax(Tensor(x)).data
        assert p.min() >= 0
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestGuidedLocality:
    def test_identical_when_signals_positive(self):
        # positive weights and inputs, sum-of-logits loss: no negative signal
        rng = np.random.default_rng(3)
        w = Tensor(rng.uniform(0.1, 1.0, size=(4, 2, 2, 2)))

        def run(mode):
            tape = Tape()
            x = watched(tape, rng.uniform(0.1, 1.0, size=(1, 2, 5, 5)))
            h = T.relu(T.conv2d(x, tape.watch(w)))
            (g,) = backward(T.reduce_sum(h), [x], mode=mode)
            return g.data

        rng = np.random.default_rng(3)
        a = run(GradMode.STANDARD)
        rng = np.random.default_rng(3)
        b = run(GradMode.GUIDED)
        np.testing.assert_array_equal(a, b)

    def test_guided_relu_emissions_nonnegative(self):
        rng = np.random.default_rng(11)
        tape = Tape()
        x = watched(tape, rng.normal(size=(2, 3, 6, 6)))
        w = watched(tape, rng.normal(size=(4, 3, 3, 3)))
        h = T.relu(T.conv2d(x, w, padding=1))
        h2 = T.relu(T.conv2d(h, watched(tape, rng.normal(size=(2, 4, 3, 3)))))
        loss = T.reduce_sum(T.mul(h2, Tensor(rng.normal(size=h2.shape))))
        with recorded_relu_emissions() as emitted:
            backward(loss, [x], mode=GradMode.GUIDED)
        assert len(emitted) == 2
        for g in emitted:
            assert g.min() >= 0.0
