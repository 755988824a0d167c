"""Engine-level tests: primitive ops, tape recording, backward modes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igrad import tensor as T
from igrad.gradcheck import recorded_relu_emissions
from igrad.losses import ErrorFnKind
from igrad.tensor import GradMode, Tape, Tensor, backward, detach


def watched(tape, arr):
    return tape.watch(Tensor(arr))


# values that tie or order oddly in a max pool's windows
POOL_PALETTES = {
    "zeros": [0.0, -0.0, 1.0],
    "infs": [np.inf, -np.inf, 0.0, -0.0],
    "nans": [np.nan, -np.nan, np.inf, -0.0, 0.0],
}


def _calls_in_train_step(monkeypatch, name):
    """Calls of the engine function `name` in one lambda-1 train_step of a
    tinycnn(4, 6) on eight 8x8 images."""
    from igrad import data, losses, nn, train

    calls = []
    fn = getattr(T, name)
    monkeypatch.setattr(T, name, lambda *a: calls.append(1) or fn(*a))
    split = data.synthetic_shapes(8, hw=8, seed=3)
    x, t = split.batch(np.arange(len(split)))
    model = nn.build_model(nn.tinycnn((3, 8, 8), split.num_classes, (4, 6)), 0)
    velocity = [np.zeros_like(p.data) for p in model.params]
    cfg = train.TrainConfig(lam=1.0, error_kind=losses.ErrorFnKind.COSINE)
    train.train_step(model, x, t, cfg, 0.01, velocity)
    return len(calls)


class TestForwardPrimitives:
    def test_relu_definition(self):
        out = T.relu(Tensor([1.0, -2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0, 0.0, 3.0])

    def test_conv2d_all_ones(self):
        # 2x2 ones kernel over 3x3 ones: every window sums to 4
        out = T.conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 2, 2))))
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_conv2d_matches_offset_loop(self):
        # the definitions, one kernel offset at a time, on a non-square kernel:
        # the forward and both of its adjoints
        rng = np.random.default_rng(2)
        x, w, b = rng.normal(size=(3, 2, 5, 6)), rng.normal(size=(4, 2, 3, 2)), rng.normal(size=4)
        for padding in (0, 1):
            xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
            ho, wo = xp.shape[2] - 2, xp.shape[3] - 1
            g = rng.normal(size=(3, 4, ho, wo))
            want = np.zeros((3, 4, ho, wo)) + b[None, :, None, None]
            want_gxp, want_gw = np.zeros_like(xp), np.zeros_like(w)
            for i in range(3):
                for j in range(2):
                    patch = xp[:, :, i : i + ho, j : j + wo]
                    want += np.einsum("ncyx,oc->noyx", patch, w[:, :, i, j])
                    want_gxp[:, :, i : i + ho, j : j + wo] += np.einsum("noyx,oc->ncyx", g, w[:, :, i, j])
                    want_gw[:, :, i, j] = np.einsum("noyx,ncyx->oc", g, patch)
            want_gx = want_gxp[:, :, padding : padding + 5, padding : padding + 6]
            got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=padding).data
            got_gx = T.conv2d_input_grad(Tensor(g), Tensor(w), padding).data
            got_gw = T.conv2d_kernel_grad(Tensor(x), Tensor(g), padding).data
            for have, expect in ((got, want), (got_gx, want_gx), (got_gw, want_gw)):
                np.testing.assert_allclose(have, expect, rtol=1e-12, atol=1e-12)

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

    def test_conv_bad_operands_name_the_op(self):
        def ones(*shape):
            return Tensor(np.ones(shape))

        w = ones(4, 2, 3, 3)
        # a 3-D x whose axis 1 matches the kernel's input channels
        with pytest.raises(ValueError, match="^conv2d:"):
            T.conv2d(ones(1, 2, 5), w)
        # g has 5 channels, w 4 output channels; a 3-D g
        for g in (ones(1, 5, 3, 3), ones(4, 3, 3)):
            with pytest.raises(ValueError, match="^conv2d_input_grad:"):
                T.conv2d_input_grad(g, w, 0)
        # batches of 2 and 3; a cotangent larger than the padded input; a 3-D g
        for x, g in ((ones(2, 2, 5, 5), ones(3, 4, 3, 3)),
                     (ones(1, 2, 3, 3), ones(1, 4, 6, 6)),
                     (ones(1, 2, 5, 5), ones(4, 3, 3))):
            with pytest.raises(ValueError, match="^conv2d_kernel_grad:"):
                T.conv2d_kernel_grad(x, g, 0)

    def test_conv_padding_outside_kernel_rejected(self):
        # the input adjoint pads g by k - 1 - padding, so padding runs 0..k-1
        x, w = Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3)))
        for padding in (-1, 3, 4):
            with pytest.raises(ValueError, match="conv2d"):
                T.conv2d(x, w, padding=padding)

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
        assert g.tape is not None
        np.testing.assert_allclose(g.data, 12.0)
        (gg,) = backward(T.reduce_sum(g), [x])
        np.testing.assert_allclose(gg.data, 12.0)  # d(3x^2)/dx at 2

    def test_plain_backward_returns_detached(self):
        tape = Tape()
        x = watched(tape, 2.0)
        (g,) = backward(T.mul(x, x), [x])
        assert g.tape is None


def _batch_and_specs():
    from igrad import data, nn

    split = data.synthetic_shapes(8, hw=8, seed=3)
    x, t = split.batch(np.arange(len(split)))
    specs = {
        "tinycnn": nn.tinycnn((3, 8, 8), split.num_classes, (4, 6)),
        "miniresnet": nn.miniresnet((3, 8, 8), split.num_classes, 4),
    }
    return x, t, specs


class TestLivePruning:
    """backward computes only the adjoints of nodes with a path to wrt."""

    @pytest.mark.parametrize(
        "lam, want",
        [
            # no rule builds the adjoint of a constant or dead input
            (1.0, {"conv2d_kernel_grad": 4, "conv2d_input_grad": 5, "linear": 7, "mul": 27, "scale": 17}),
            # the watched input's gradient is dead at lambda 0
            (0.0, {"conv2d_input_grad": 1}),
        ],
    )
    def test_train_step_dispatch_counts(self, monkeypatch, lam, want):
        from collections import Counter

        from igrad import nn, train

        counts = Counter()
        apply = T._apply
        monkeypatch.setattr(T, "_apply", lambda kind, *a: counts.update([kind]) or apply(kind, *a))
        x, t, specs = _batch_and_specs()
        model = nn.build_model(specs["tinycnn"], 0)
        velocity = [np.zeros_like(p.data) for p in model.params]
        cfg = train.TrainConfig(lam=lam, error_kind=ErrorFnKind.COSINE)
        train.train_step(model, x, t, cfg, 0.01, velocity)
        assert {k: counts[k] for k in want} == want

    @pytest.mark.parametrize("arch", ["tinycnn", "miniresnet"])
    @pytest.mark.parametrize("kind", list(ErrorFnKind))
    def test_pruning_never_changes_a_kept_adjoint(self, arch, kind):
        from igrad import losses, nn

        x_batch, t, specs = _batch_and_specs()
        model = nn.build_model(specs[arch], 0)

        def build():
            # a fresh tape per call; _forward_ce watches the input first, and
            # the total is add(ce, lam * loss_r)
            res = losses.interpretable_loss(model, x_batch, t, kind, lam=1.0)
            x = res.total.tape.nodes[0]()
            assert x.shape == x_batch.shape
            ce = res.total.inputs[0]
            return res.total, ce, x, res.params

        for mode in GradMode:
            total, _, _, params = build()
            narrow = backward(total, params, mode=mode)
            total, _, x, params = build()
            wide = backward(total, [x] + params, mode=mode)
            for a, b in zip(narrow, wide[1:], strict=True):
                np.testing.assert_array_equal(a.data, b.data)

            graph = mode is GradMode.STANDARD
            _, ce, x, _ = build()
            (narrow,) = backward(ce, [x], mode=mode, create_graph=graph)
            _, ce, x, params = build()
            wide = backward(ce, [x] + params, mode=mode, create_graph=graph)
            np.testing.assert_array_equal(narrow.data, wide[0].data)


class TestDetach:
    def test_idempotent_on_constants(self):
        t = Tensor([1.0, 2.0])
        d = detach(t)
        assert d.tape is None
        np.testing.assert_array_equal(d.data, t.data)
        assert detach(d).tape is None

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
            return [ref().op for ref in tape.nodes], g.data

        ops1, g1 = run()
        ops2, g2 = run()
        assert ops1 == ops2
        np.testing.assert_array_equal(g1, g2)

    def test_node_inputs_precede(self):
        tape = Tape()
        x = watched(tape, [1.0, 2.0])
        y = T.mul(T.add(x, x), x)
        grads = backward(T.reduce_sum(y), [x], create_graph=True)
        assert grads[0].tape is tape
        for ref in tape.nodes:
            node = ref()
            if node is None:  # freed: no live tensor reaches it
                continue
            for t in node.inputs:
                if t.tape is not None:
                    assert t.idx < node.idx


    def test_train_step_frees_its_tape_without_the_collector(self, monkeypatch):
        # the tape holds its nodes weakly, so reference counting alone frees a
        # finished step's tape and every array on it
        import gc
        import weakref

        from igrad import losses, nn, train

        tapes = []

        class RecordedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(losses, "Tape", RecordedTape)
        x, t, specs = _batch_and_specs()
        model = nn.build_model(specs["tinycnn"], 0)
        velocity = [np.zeros_like(p.data) for p in model.params]
        cfg = train.TrainConfig(lam=1.0, error_kind=ErrorFnKind.COSINE)
        enabled = gc.isenabled()
        gc.disable()
        try:
            train.train_step(model, x, t, cfg, 0.01, velocity)
            alive = sum(ref() is not None for ref in tapes)
        finally:
            if enabled:
                gc.enable()
        assert len(tapes) == 1
        assert alive == 0


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
        calls = _calls_in_train_step(monkeypatch, "_pool_argmax")
        assert calls == 2  # tinycnn has two pooling layers

    def test_pool_gather_only_in_double_backward_per_train_step(self, monkeypatch):
        # a taped pool records its maxima without calling the public
        # pool_gather; only pool_scatter's backward, in the parameter sweep
        # through the create_graph pass, gathers: once per pool
        calls = _calls_in_train_step(monkeypatch, "pool_gather")
        assert calls == 2  # tinycnn has two pooling layers

    def test_relu_gate_once_per_relu_per_train_step(self, monkeypatch):
        # the create_graph, guided and parameter backward sweeps of a lambda-1
        # step share one gate per ReLU node
        calls = _calls_in_train_step(monkeypatch, "_relu_gate")
        assert calls == 2  # tinycnn has two ReLUs

    def test_untaped_maxpool_records_no_node_and_takes_no_argmax(self, monkeypatch):
        def no_argmax(*a):
            raise AssertionError("untaped maxpool2d took an argmax")

        monkeypatch.setattr(T, "_pool_argmax", no_argmax)
        x = np.arange(32.0).reshape(2, 1, 4, 4)
        want = x[:, :, 1::2, 1::2]
        out = T.maxpool2d(Tensor(x))
        assert out.tape is None
        np.testing.assert_array_equal(out.data, want)
        tape = Tape()
        xt = watched(tape, x)
        with tape.paused():
            out = T.maxpool2d(xt)
        assert out.tape is None and len(tape) == 1  # the leaf alone
        np.testing.assert_array_equal(out.data, want)

    @pytest.mark.parametrize("record", [False, True])
    def test_maxpool_rejects_input_smaller_than_pool(self, record):
        x = Tensor(np.ones((1, 1, 1, 5)))
        with pytest.raises(ValueError, match="larger than input"):
            T.maxpool2d(Tape().watch(x) if record else x)

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 4),
        hh=st.integers(2, 11),
        ww=st.integers(2, 11),
        special=st.sampled_from(["zeros", "infs", "nans"]),
        tie_frac=st.sampled_from([0.0, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_untaped_maxpool_matches_taped(self, c, hh, ww, special, tie_frac, seed):
        # the taped pool records the maxima the untaped one returns, so the two
        # agree bit for bit: exact ties, -0.0 against +0.0 and infinities
        # resolve to the first window value, and a window holding both +nan
        # and -nan keeps the same NaN. At least 1,000 elements, so numpy's
        # vectorized loops run; odd H and W crop the last row/column.
        nans = np.array(POOL_PALETTES["nans"])
        assert (np.isnan(nans) & np.signbit(nans)).any()  # a -nan to hold against +nan
        rng = np.random.default_rng(seed)
        n = -(-1000 // (c * hh * ww)) + int(rng.integers(0, 3))
        x = rng.normal(size=(n, c, hh, ww))
        tied = rng.random(x.shape) < tie_frac
        x[tied] = rng.choice(POOL_PALETTES[special], size=int(tied.sum()))
        untaped = T.maxpool2d(Tensor(x)).data
        taped = T.maxpool2d(Tape().watch(Tensor(x))).data
        assert untaped.shape == taped.shape == (n, c, hh // 2, ww // 2)
        if special != "nans":
            assert not np.isnan(taped).any()
        assert untaped.tobytes() == taped.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 4),
        hh=st.integers(2, 11),
        ww=st.integers(2, 11),
        special=st.sampled_from(sorted(POOL_PALETTES)),
        tie_frac=st.sampled_from([0.0, 0.5, 0.9]),
        channel_major=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pool_argmax_matches_numpy_argmax(self, c, hh, ww, special, tie_frac, channel_major, seed):
        # each window's position in the flattened input is the one np.argmax
        # picks over its stacked values, in the row-major order of the window
        # offsets: the first maximum, or the first NaN. C-ordered and
        # channel-major (a convolution's output) inputs alike; odd H and W
        # crop the last row or column; at least 1,000 elements, as above
        rng = np.random.default_rng(seed)
        n = -(-1000 // (c * hh * ww)) + int(rng.integers(0, 3))
        x = rng.normal(size=(n, c, hh, ww))
        tied = rng.random(x.shape) < tie_frac
        x[tied] = rng.choice(POOL_PALETTES[special], size=int(tied.sum()))
        if channel_major:
            x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        ho, wo = hh // 2, ww // 2
        windows = [x[:, :, i : 2 * ho : 2, j : 2 * wo : 2] for i in (0, 1) for j in (0, 1)]
        pick = np.argmax(np.stack(windows, axis=-1), axis=-1)
        rows = np.arange(ho)[:, None] * 2 + pick // 2
        cols = np.arange(wo) * 2 + pick % 2
        maps = np.arange(n * c).reshape(n, c, 1, 1)
        indices = T.maxpool2d(Tape().watch(Tensor(x))).attrs["indices"]
        np.testing.assert_array_equal(indices, (maps * hh + rows) * ww + cols)

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

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 17),
        ci=st.integers(1, 4),
        co=st.integers(1, 4),
        kh=st.sampled_from([2, 3]),
        kw=st.sampled_from([2, 3]),
        padding=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conv_triple_ignores_memory_layout(self, n, ci, co, kh, kw, padding, seed):
        # the same values held C-ordered, channel-major, with reversed strides
        # and with axis 0 innermost (the layout conv2d_kernel_grad returns)
        # give the same bytes from each op
        rng = np.random.default_rng(seed)
        x, w = rng.normal(size=(n, ci, 6, 7)), rng.normal(size=(co, ci, kh, kw))
        g = rng.normal(size=T.conv2d(Tensor(x), Tensor(w), padding=padding).shape)
        layouts = (
            lambda a: a,
            lambda a: np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
            lambda a: a[::-1, ::-1, ::-1, ::-1].copy()[::-1, ::-1, ::-1, ::-1],
            lambda a: np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2),
        )
        ops = (
            lambda x, w, g: T.conv2d(x, w, padding=padding),
            lambda x, w, g: T.conv2d_input_grad(g, w, padding),
            lambda x, w, g: T.conv2d_kernel_grad(x, g, padding),
        )
        for op in ops:
            outs = {op(*(Tensor(lay(a)) for a in (x, w, g))).data.tobytes() for lay in layouts}
            assert len(outs) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 5), st.integers(1, 9), st.integers(1, 9)),
        axis=st.sampled_from([None, 1, (1, 2, 3), (0, 2, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reduce_sum_ignores_memory_layout(self, shape, axis, seed):
        # numpy adds in memory order; a conv output is channel-major, and the
        # guided input gradient a loss compares against is one
        a = np.random.default_rng(seed).normal(size=shape)
        layouts = (
            a,
            np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
            np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2),
        )
        assert len({T.reduce_sum(Tensor(lay), axis=axis).data.tobytes() for lay in layouts}) == 1


def _full_column_correlate(a, k, ph, pw):
    """The correlation T._correlate computes, as one matmul over the columns
    of every image at once."""
    o, c, kh, kw = k.shape
    ap = np.pad(a, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho, wo = ap.shape[2] - kh + 1, ap.shape[3] - kw + 1
    cols = np.stack([ap[:, :, i : i + ho, j : j + wo] for i in range(kh) for j in range(kw)], axis=2)
    out = k.reshape(o, -1) @ cols.transpose(1, 2, 0, 3, 4).reshape(c * kh * kw, -1)
    return out.reshape(o, len(a), ho, wo).transpose(1, 0, 2, 3)


def _full_column_kernel_grad(x, g, padding):
    """The kernel adjoint T.conv2d_kernel_grad computes, as one matmul over
    the columns of every image at once."""
    (n, c), (o, ho, wo) = x.shape[:2], g.shape[1:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    kh, kw = xp.shape[2] - ho + 1, xp.shape[3] - wo + 1
    cols = np.stack([xp[:, :, i : i + ho, j : j + wo] for i in range(kh) for j in range(kw)], axis=2)
    out = cols.transpose(1, 2, 0, 3, 4).reshape(c * kh * kw, -1) @ g.transpose(0, 2, 3, 1).reshape(-1, o)
    return out.reshape(c, kh, kw, o).transpose(3, 0, 1, 2)


class TestConvBlocks:
    """Each op of the conv triple builds its columns one block of images at a
    time, at most T.COL_BUDGET bytes of columns per block unless one image's
    columns are larger, every block cut from one buffer per call."""

    @pytest.mark.parametrize("blocks", [[1] * 7, [3, 3, 1]])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_blocks_match_full_columns(self, monkeypatch, blocks, padding):
        # 7 images in blocks of one, or of 3, 3 and a shorter last 1
        rng = np.random.default_rng(5)
        x, w = rng.normal(size=(7, 2, 5, 6)), rng.normal(size=(3, 2, 3, 2))
        ho, wo = 5 + 2 * padding - 2, 6 + 2 * padding - 1
        g = rng.normal(size=(7, 3, ho, wo))
        flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        filled = []
        fill = T._fill_columns

        def counted_fill(cols, *rest):
            filled.append(cols.shape[3])
            return fill(cols, *rest)

        monkeypatch.setattr(T, "_fill_columns", counted_fill)
        # each op with the reference and the bytes of one image's columns
        cases = (
            (lambda: T.conv2d(Tensor(x), Tensor(w), padding=padding),
             _full_column_correlate(x, w, padding, padding), 8 * 2 * 3 * 2 * ho * wo),
            (lambda: T.conv2d_input_grad(Tensor(g), Tensor(w), padding),
             _full_column_correlate(g, flipped, 2 - padding, 1 - padding), 8 * 3 * 3 * 2 * 5 * 6),
            (lambda: T.conv2d_kernel_grad(Tensor(x), Tensor(g), padding),
             _full_column_kernel_grad(x, g, padding), 8 * 2 * 3 * 2 * ho * wo),
        )
        for op, want, image_bytes in cases:
            monkeypatch.setattr(T, "COL_BUDGET", image_bytes * blocks[0])
            filled.clear()
            np.testing.assert_allclose(op().data, want, rtol=1e-12, atol=1e-12)
            assert filled == blocks

    def test_short_last_block_reuses_the_buffer(self, monkeypatch):
        # 7 images in blocks of 3, 3 and 1, all at one address: the last is a
        # re-zeroed prefix of the call's one buffer (the test above checks its
        # values), not a fresh buffer
        rng = np.random.default_rng(6)
        x, w, g = rng.normal(size=(7, 2, 5, 6)), rng.normal(size=(3, 2, 3, 2)), rng.normal(size=(7, 3, 5, 7))
        starts = []
        fill = T._fill_columns

        def recorded_fill(cols, *rest):
            starts.append((cols.__array_interface__["data"][0], cols.shape[3]))
            return fill(cols, *rest)

        monkeypatch.setattr(T, "_fill_columns", recorded_fill)
        cases = (
            (lambda: T.conv2d(Tensor(x), Tensor(w), padding=1), 8 * 2 * 3 * 2 * 5 * 7),
            (lambda: T.conv2d_input_grad(Tensor(g), Tensor(w), 1), 8 * 3 * 3 * 2 * 5 * 6),
            (lambda: T.conv2d_kernel_grad(Tensor(x), Tensor(g), 1), 8 * 2 * 3 * 2 * 5 * 7),
        )
        for op, image_bytes in cases:
            monkeypatch.setattr(T, "COL_BUDGET", 3 * image_bytes)
            starts.clear()
            op()
            assert [m for _, m in starts] == [3, 3, 1]
            assert len({address for address, _ in starts}) == 1

    def test_kernel_grad_peak_memory_is_one_block(self):
        # all of layer 1's columns at batch 64 would be 3.5 MB; only one
        # block of columns and that block's slice of the cotangent may be
        # alive with the output
        rng = np.random.default_rng(1)
        x, g = Tensor(rng.normal(size=(64, 3, 16, 16))), Tensor(rng.normal(size=(64, 8, 16, 16)))
        per_block = T.COL_BUDGET // (8 * 3 * 3 * 3 * 16 * 16)
        tracemalloc.start()
        try:
            out = T.conv2d_kernel_grad(x, g, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.data.nbytes + T.COL_BUDGET + per_block * 8 * 8 * 16 * 16

    def test_peak_memory_is_output_plus_two_blocks(self):
        # a 256-image forward's columns would be 14.2 MB and layer 1's input
        # adjoint's 9.4 MB at batch 64; a block's are at most 1 MiB, and a
        # shorter last block reuses the full block's buffer
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(8, 3, 3, 3)))
        x, g = Tensor(rng.normal(size=(256, 3, 16, 16))), Tensor(rng.normal(size=(64, 8, 16, 16)))
        for op in (lambda: T.conv2d(x, w, padding=1), lambda: T.conv2d_input_grad(g, w, 1)):
            tracemalloc.start()
            try:
                out = op()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < out.data.nbytes + 2 * 2**20


class TestCol2im:
    """conv2d_input_grad at a (2p+1) x (2p+1) kernel and padding p, every
    conv the models build, contracts the kernel with each block of g first
    and adds each offset's slab into the output by one flat shift of the
    block's stack; it builds no columns of g."""

    @staticmethod
    def _check(monkeypatch, g, w, p):
        def no_columns(*a):
            raise AssertionError("the col2im form built columns")

        monkeypatch.setattr(T, "_fill_columns", no_columns)
        flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        want = _full_column_correlate(np.ascontiguousarray(g), flipped, p, p)
        np.testing.assert_allclose(T.conv2d_input_grad(Tensor(g), Tensor(w), p).data, want,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("blocks", [[1] * 7, [3, 3, 1]])
    @pytest.mark.parametrize("channel_major", [False, True])
    def test_blocks_match_full_columns(self, monkeypatch, blocks, channel_major):
        # 7 images in blocks of one, or of 3, 3 and a shorter last 1, with g
        # C-ordered or channel-major, as a conv output's adjoint arrives
        rng = np.random.default_rng(8)
        g, w = rng.normal(size=(7, 3, 5, 6)), rng.normal(size=(3, 2, 3, 3))
        if channel_major:
            g = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        sizes = []
        block_images = T._block_images

        def recorded(n, image):
            sizes.append(block_images(n, image))
            return sizes[-1]

        monkeypatch.setattr(T, "_block_images", recorded)
        monkeypatch.setattr(T, "COL_BUDGET", 8 * 2 * 3 * 3 * 5 * 6 * blocks[0])
        self._check(monkeypatch, g, w, 1)
        assert [min(sizes[0], 7 - s) for s in range(0, 7, sizes[0])] == blocks

    @pytest.mark.parametrize("hw", [(1, 1), (1, 5), (2, 2)])
    @pytest.mark.parametrize("n, per_block", [(1, 1), (3, 1), (3, 3)])
    @pytest.mark.parametrize("c", [1, 2])
    def test_maps_smaller_than_the_kernel_reach(self, monkeypatch, hw, n, per_block, c):
        # 3x3 kernels at padding 1 on maps where some offsets reach no pixel:
        # on a 1x1 map of one image a shift runs past the whole stack
        rng = np.random.default_rng(sum(hw) + 10 * n + 100 * c)
        g, w = rng.normal(size=(n, 3, *hw)), rng.normal(size=(3, c, 3, 3))
        monkeypatch.setattr(T, "COL_BUDGET", 8 * c * 9 * hw[0] * hw[1] * per_block)
        self._check(monkeypatch, g, w, 1)

    def test_wider_size_keeping_kernel(self, monkeypatch):
        # 5x5 at padding 2 keeps the map's size, so it takes the same form
        rng = np.random.default_rng(9)
        self._check(monkeypatch, rng.normal(size=(4, 3, 6, 5)), rng.normal(size=(3, 2, 5, 5)), 2)


LD = np.longdouble


def _gamma(k, u):
    """Higham's gamma_k = k u / (1 - k u), which bounds the relative error of
    a k-term dot product in any summation order at unit roundoff u."""
    return k * u / (1 - k * u)


def _assert_within_dot_bound(got, ref, absref, k):
    """got lies within gamma_K * sum|a||b| of the longdouble reference, K the
    contraction length, widened by the reference's own gamma_K at longdouble
    precision (about 1/2,000 of the bound)."""
    u, u_ld = 2.0**-53, float(np.finfo(LD).eps) / 2
    err = np.abs(got.astype(LD) - ref)
    bound = (LD(_gamma(k, u)) + LD(_gamma(k, u_ld))) * absref
    assert (err <= bound).all(), float(np.max(err / np.where(bound > 0, bound, 1)))


def _ld_columns(a, kh, kw, ph, pw, ho, wo):
    """The (c * kh * kw, n * ho * wo) im2col of a, padded, in longdouble."""
    n, c = a.shape[:2]
    return T._fill_columns(np.zeros((c, kh, kw, n, ho, wo), dtype=LD), a, ph, pw).reshape(c * kh * kw, -1)


def _check_conv_triple_bound(x, w, b, g, padding):
    """Each op of the conv triple against its longdouble reference: conv2d
    (with its bias, one more rounding) over K = c kh kw, conv2d_input_grad
    over K = o kh kw and conv2d_kernel_grad over K = n ho wo."""
    (n, c, hh, ww), (o, _, kh, kw) = x.shape, w.shape
    ho, wo = g.shape[2:]
    cols, wm = _ld_columns(x, kh, kw, padding, padding, ho, wo), w.astype(LD).reshape(o, -1)
    ref, absref = wm @ cols + b.astype(LD)[:, None], np.abs(wm) @ np.abs(cols) + np.abs(b).astype(LD)[:, None]
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=padding).data.transpose(1, 0, 2, 3).reshape(o, -1)
    _assert_within_dot_bound(got, ref, absref, c * kh * kw + 1)

    flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).astype(LD).reshape(c, -1)
    gcols = _ld_columns(g, kh, kw, kh - 1 - padding, kw - 1 - padding, hh, ww)
    got = T.conv2d_input_grad(Tensor(g), Tensor(w), padding).data.transpose(1, 0, 2, 3).reshape(c, -1)
    _assert_within_dot_bound(got, flipped @ gcols, np.abs(flipped) @ np.abs(gcols), o * kh * kw)

    gm = g.transpose(0, 2, 3, 1).astype(LD).reshape(-1, o)
    got = T.conv2d_kernel_grad(Tensor(x), Tensor(g), padding).data.transpose(1, 2, 3, 0).reshape(-1, o)
    _assert_within_dot_bound(got, cols @ gm, np.abs(cols) @ np.abs(gm), n * ho * wo)


@pytest.mark.skipif(np.finfo(LD).nmant < 63, reason="the reference needs an extended-precision long double")
class TestConvRoundingBound:
    """Each op of the conv triple is a dot product per output entry, so any
    summation order and any BLAS kernel keeps it within the standard bound
    gamma_K * sum|a||b| of the exact value (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1). The reference fills a longdouble buffer with
    the same columns and contracts it in longdouble."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 24),
        c=st.integers(1, 5),
        o=st.integers(1, 5),
        kh=st.integers(1, 3),
        kw=st.integers(1, 3),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conv_triple_within_dot_bound(self, n, c, o, kh, kw, data, seed):
        padding = data.draw(st.integers(0, min(kh, kw) - 1), label="padding")
        hh = data.draw(st.integers(max(1, kh - 2 * padding), 10), label="hh")
        ww = data.draw(st.integers(max(1, kw - 2 * padding), 10), label="ww")
        # the forward's and the kernel adjoint's columns in blocks of about m
        # images (the input adjoint's follow from the same budget), so most
        # draws run several blocks and many a shorter last one
        m = data.draw(st.integers(1, n), label="m")
        ho, wo = hh + 2 * padding - kh + 1, ww + 2 * padding - kw + 1
        rng = np.random.default_rng(seed)
        # entries over six decades, so the terms of a sum differ in size
        x = rng.normal(size=(n, c, hh, ww)) * 10.0 ** rng.uniform(-3, 3, size=(n, c, hh, ww))
        w, b = rng.normal(size=(o, c, kh, kw)), rng.normal(size=o)
        g = rng.normal(size=(n, o, ho, wo))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "COL_BUDGET", 8 * c * kh * kw * ho * wo * m)
            _check_conv_triple_bound(x, w, b, g, padding)

    @pytest.mark.parametrize("n", [1, 8, 16, 44, 64, 80, 128, 136])
    @pytest.mark.parametrize("c, o, hw", [(3, 8, 16), (8, 16, 8)])
    def test_recipe_shapes_within_dot_bound(self, n, c, o, hw):
        # tinycnn(8, 16)'s two convolutions on 16x16 images at the batch
        # sizes the bench and desk recipes run: training batches of 64 and
        # their last 16 or 44, accuracy passes of 128 and their last 80,
        # and eval's forwards of 8 to 136 images
        rng = np.random.default_rng(n * 100 + c)
        x, w, b = rng.normal(size=(n, c, hw, hw)), rng.normal(size=(o, c, 3, 3)), rng.normal(size=o)
        _check_conv_triple_bound(x, w, b, rng.normal(size=(n, o, hw, hw)), 1)


def _assert_adjoint(lhs_pair, rhs_pair):
    """<A u, v> == <u, A* v> to 1e-13 of the larger product of the norms."""
    (au, v), (u, atv) = lhs_pair, rhs_pair
    scale = max(np.linalg.norm(au) * np.linalg.norm(v), np.linalg.norm(u) * np.linalg.norm(atv))
    assert abs(np.vdot(au, v) - np.vdot(u, atv)) <= 1e-13 * scale


class TestAdjointIdentities:
    """Each linear op and the op its backward runs are adjoint: <A u, v> equals
    <u, A* v> to rounding, a far tighter check than finite differences."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        ci=st.integers(1, 4),
        co=st.integers(1, 4),
        kh=st.sampled_from([2, 3]),
        kw=st.sampled_from([2, 3]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conv_triple(self, n, ci, co, kh, kw, data, seed):
        padding = data.draw(st.integers(0, min(kh, kw) - 1), label="padding")
        hh = data.draw(st.integers(max(1, kh - 2 * padding), 9), label="hh")
        ww = data.draw(st.integers(max(1, kw - 2 * padding), 9), label="ww")
        rng = np.random.default_rng(seed)
        x, w = rng.normal(size=(n, ci, hh, ww)), rng.normal(size=(co, ci, kh, kw))
        y = T.conv2d(Tensor(x), Tensor(w), padding=padding).data
        g = rng.normal(size=y.shape)
        gx = T.conv2d_input_grad(Tensor(g), Tensor(w), padding).data
        gw = T.conv2d_kernel_grad(Tensor(x), Tensor(g), padding).data
        assert gx.shape == x.shape and gw.shape == w.shape
        _assert_adjoint((y, g), (x, gx))
        _assert_adjoint((y, g), (w, gw))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        ci=st.integers(1, 4),
        co=st.integers(1, 4),
        kh=st.sampled_from([2, 3]),
        kw=st.sampled_from([2, 3]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conv_triple_in_small_blocks(self, n, ci, co, kh, kw, data, seed):
        # the identities above with the forward's columns in blocks of m
        # images (the input adjoint's blocks follow from the same budget), so
        # most draws run several blocks and many a shorter last one
        padding = data.draw(st.integers(0, min(kh, kw) - 1), label="padding")
        hh = data.draw(st.integers(max(1, kh - 2 * padding), 9), label="hh")
        ww = data.draw(st.integers(max(1, kw - 2 * padding), 9), label="ww")
        m = data.draw(st.integers(1, n), label="m")
        rng = np.random.default_rng(seed)
        x, w = rng.normal(size=(n, ci, hh, ww)), rng.normal(size=(co, ci, kh, kw))
        ho, wo = hh + 2 * padding - kh + 1, ww + 2 * padding - kw + 1
        g = rng.normal(size=(n, co, ho, wo))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "COL_BUDGET", 8 * ci * kh * kw * ho * wo * m)
            y = T.conv2d(Tensor(x), Tensor(w), padding=padding).data
            gx = T.conv2d_input_grad(Tensor(g), Tensor(w), padding).data
        gw = T.conv2d_kernel_grad(Tensor(x), Tensor(g), padding).data
        _assert_adjoint((y, g), (x, gx))
        _assert_adjoint((y, g), (w, gw))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 64),
        c=st.integers(1, 4),
        hh=st.integers(2, 9),
        ww=st.integers(2, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pool_pair(self, n, c, hh, ww, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, hh, ww))
        indices = T.maxpool2d(Tape().watch(Tensor(x))).attrs["indices"]
        y = T.pool_gather(Tensor(x), indices).data
        g = rng.normal(size=y.shape)
        _assert_adjoint((y, g), (x, T.pool_scatter(Tensor(g), indices, (hh, ww)).data))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 64),
        i=st.integers(1, 8),
        o=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linear_transpose_reshape(self, n, i, o, seed):
        rng = np.random.default_rng(seed)
        x, w = rng.normal(size=(n, i)), rng.normal(size=(o, i))
        y = T.linear(Tensor(x), Tensor(w)).data
        g = rng.normal(size=y.shape)
        gx = T.linear(Tensor(g), T.transpose(Tensor(w))).data
        gw = T.linear(T.transpose(Tensor(g)), T.transpose(Tensor(x))).data
        _assert_adjoint((y, g), (x, gx))
        _assert_adjoint((y, g), (w, gw))
        gt = rng.normal(size=(i, n))
        _assert_adjoint((T.transpose(Tensor(x)).data, gt), (x, T.transpose(Tensor(gt)).data))
        gr = rng.normal(size=(n * i,))
        flat = T.reshape(Tensor(x), (-1,)).data
        _assert_adjoint((flat, gr), (x, T.reshape(Tensor(gr), x.shape).data))

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_broadcast_reduce_pair(self, shape, data, seed):
        axes = tuple(
            i for i in range(len(shape)) if data.draw(st.booleans(), label=f"broadcast axis {i}")
        )
        small = tuple(1 if i in axes else s for i, s in enumerate(shape))
        rng = np.random.default_rng(seed)
        a, g = rng.normal(size=small), rng.normal(size=shape)
        y = T.broadcast_to(Tensor(a), shape).data
        _assert_adjoint((y, g), (a, T.reduce_sum(Tensor(g), axis=axes, keepdims=True).data))


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
