"""Oracle tests: finite differences against the backward engine."""

import numpy as np
import pytest

from igrad import tensor as T
from igrad.gradcheck import (
    CHECKED_OPS,
    corrupted_backward,
    finite_diff_gradient,
    gradcheck_op,
    run_double_backward_suite,
    run_guided_suite,
)
from igrad.tensor import Tensor


class TestFiniteDiff:
    def test_sum_of_squares(self):
        got = finite_diff_gradient(lambda t: T.reduce_sum(T.mul(t, t)), Tensor([1.0, 2.0]))
        np.testing.assert_allclose(got.data, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        got = finite_diff_gradient(lambda t: 7.0, Tensor([1.0, -1.0, 0.5]))
        np.testing.assert_array_equal(got.data, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("kind", CHECKED_OPS)
def test_op_backward_matches_fd(kind):
    worst = max(gradcheck_op(kind, 1000 + s) for s in range(5))
    assert worst <= 1.0, f"{kind}: scaled error {worst}"


def test_double_backward_matches_fd():
    assert run_double_backward_suite(seeds=2) <= 1.0


def test_whole_net_first_order_matches_fd():
    # conv-relu-pool-linear CE loss: every parameter against central
    # differences at step 1e-5, relative error 1e-4
    from igrad import nn
    from igrad.losses import _forward_ce
    from igrad.tensor import backward

    model = nn.build_model(nn.tinycnn((2, 8, 8), 3, (3, 4)), seed=8)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 2, 8, 8))
    t = [0, 2]
    ce, fwd, _ = _forward_ce(model, x, t)
    grads = backward(ce, fwd.params)
    for p, g in zip(model.params, grads):
        flat = p.data.reshape(-1)
        gflat = g.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-5
            hi = _forward_ce(model, x, t)[0].item()
            flat[i] = orig - 1e-5
            lo = _forward_ce(model, x, t)[0].item()
            flat[i] = orig
            fd = (hi - lo) / 2e-5
            assert abs(gflat[i] - fd) <= max(1e-7, 1e-4 * max(abs(fd), abs(gflat[i])))


def test_guided_suite():
    min_emitted, positive_equal = run_guided_suite(nets=20)
    assert min_emitted >= 0.0
    assert positive_equal


def test_corruption_hook_breaks_relu():
    def relu_error():
        return max(gradcheck_op("relu", 1000 + s) for s in range(3))

    with corrupted_backward("relu"):
        assert relu_error() > 1.0
    # restored afterwards
    assert relu_error() <= 1.0


def test_checked_ops_are_the_ops_the_system_runs(monkeypatch):
    # every registered op is recorded by some training step or CAM
    # evaluation, and every one of those is in the gradcheck suite
    from igrad import data, metrics, nn, saliency, train
    from igrad.losses import ErrorFnKind

    seen = set()
    apply = T._apply

    def recording(kind, inputs, attrs=None):
        seen.add(kind)
        return apply(kind, inputs, attrs)

    monkeypatch.setattr(T, "_apply", recording)
    split = data.synthetic_shapes(4, hw=8, seed=3)
    x, t = split.batch(np.arange(len(split)))
    tiny = nn.tinycnn((3, 8, 8), split.num_classes, (4, 6))
    for spec in (tiny, nn.miniresnet((3, 8, 8), split.num_classes, 4)):
        for kind in ErrorFnKind:
            model = nn.build_model(spec, 0)
            velocity = [np.zeros_like(p.data) for p in model.params]
            train.train_step(model, x, t, train.TrainConfig(lam=1.0, error_kind=kind), 0.01, velocity)
    model = nn.build_model(tiny, 0)
    for name in saliency._METHODS:
        metrics.faithfulness_report(
            model, split, saliency.make_method(name), curve_cfg=metrics.default_curve_config(8)
        )
    assert seen == set(T._REGISTRY)
    assert seen <= set(CHECKED_OPS)
