"""Saliency methods against their formula oracles and composition contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igrad import nn
from igrad.saliency import (
    AblationCam,
    AxiomCam,
    GradCam,
    GradCamPP,
    ScoreCam,
    SaliencyMap,
    bilinear_upsample,
    compose_saliency,
    input_gradient_maps,
    make_method,
    minmax_norm,
    saliency_for,
    METHODS,
    _logit_and_activation_grad,
)


@pytest.fixture
def model16():
    m = nn.build_model(nn.tinycnn((3, 16, 16), 4, (8, 16)), seed=1)
    # a little structure so maps are not near-constant
    rng = np.random.default_rng(0)
    for p in m.params:
        p.data += 0.05 * rng.normal(size=p.data.shape)
    return m


@pytest.fixture
def x16():
    return np.random.default_rng(2).uniform(0, 1, size=(3, 16, 16))


class TestHelpers:
    def test_minmax_constant_to_zeros(self):
        np.testing.assert_array_equal(minmax_norm(np.full((3, 3), 2.5)), np.zeros((3, 3)))

    def test_minmax_range(self):
        v = minmax_norm(np.array([[1.0, 3.0], [5.0, 2.0]]))
        assert v.min() == 0.0 and v.max() == 1.0

    def test_bilinear_identity(self):
        a = np.random.default_rng(3).normal(size=(5, 7))
        np.testing.assert_allclose(bilinear_upsample(a, (5, 7)), a, atol=1e-12)

    def test_constant_map_normalizes_to_zeros(self):
        # interpolating equal neighbours must not ripple, or min-max
        # normalization stretches the ripple to [0, 1]
        raw, normalized = compose_saliency([[1.0]], np.full((1, 1, 8, 8), 0.7), (16, 16))
        np.testing.assert_array_equal(bilinear_upsample(raw[0], (16, 16)), 0.7)
        np.testing.assert_array_equal(normalized[0], 0.0)

    def test_bilinear_corners_align(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        up = bilinear_upsample(a, (8, 8))
        assert up[0, 0] == 1.0 and up[0, -1] == 2.0
        assert up[-1, 0] == 3.0 and up[-1, -1] == 4.0


class TestComposeSaliency:
    def test_zero_weights_zero_map(self):
        fmaps = np.random.default_rng(4).uniform(0, 1, size=(6, 4, 4))
        raw, normalized = compose_saliency(np.zeros((1, 6)), fmaps[None], (16, 16))
        np.testing.assert_array_equal(raw[0], 0.0)
        np.testing.assert_array_equal(normalized[0], 0.0)

    def test_single_channel_identity(self):
        fmap = np.random.default_rng(5).uniform(0, 1, size=(1, 4, 4))
        raw, _ = compose_saliency([[1.0]], fmap[None], (4, 4))
        np.testing.assert_array_equal(raw[0], fmap[0])

    def test_raw_nonnegative(self):
        rng = np.random.default_rng(6)
        raw, _ = compose_saliency(
            rng.normal(size=(1, 8)), rng.uniform(0, 1, size=(1, 8, 4, 4)), (16, 16)
        )
        assert raw[0].min() >= 0.0

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="weight"):
            compose_saliency([[1.0, 2.0]], np.zeros((1, 3, 4, 4)), (8, 8))

    @settings(max_examples=20)
    @given(st.floats(0.1, 100.0))
    def test_positive_scale_invariance(self, c):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(1, 5))
        fmaps = rng.uniform(0, 1, size=(1, 5, 4, 4))
        a = compose_saliency(w, fmaps, (8, 8))[1][0]
        b = compose_saliency(w * c, fmaps, (8, 8))[1][0]
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestGradCam:
    def test_gap_linear_head_weights_are_classifier_rows(self, model16, x16):
        # at the GAP input, dy_c/dA_ij == w[c,k]/Z, so alpha == w[c,k]/Z
        c = 2
        alpha = GradCam().weights_and_maps(model16, x16[None], [c], "gap_input")[0][0]
        w = model16.param_by_name("head.w").data
        z = 4 * 4  # gap_input spatial size for 16x16 tinycnn
        np.testing.assert_allclose(alpha, w[c] / z, atol=1e-12)

    def test_weights_match_activation_fd(self, model16, x16):
        # oracle: finite differences over individual activation cells via
        # injection of a perturbed map
        c = 1
        layer = "gap_input"
        amaps, grads = _logit_and_activation_grad(model16, x16[None], [c], layer)
        amap, grad = amaps[0], grads[0]
        h = 1e-5

        def logit_with(a):
            out = model16.forward(x16[None], inject={layer: a[None]})
            return out.logits.data[0, c]

        rng = np.random.default_rng(8)
        cells = [tuple(rng.integers(0, s) for s in amap.shape) for _ in range(12)]
        for cell in cells:
            bumped = amap.copy()
            bumped[cell] += h
            hi = logit_with(bumped)
            bumped[cell] -= 2 * h
            lo = logit_with(bumped)
            fd = (hi - lo) / (2 * h)
            assert abs(fd - grad[cell]) <= 1e-4 * max(1.0, abs(fd))

    def test_gradcam_equals_cam_by_weights_normalized(self, model16, x16):
        # CAM on a GAP->linear head: weights straight from the classifier
        c = 0
        smap = saliency_for(model16, x16, c, "gap_input", GradCam())
        fwd = model16.forward(x16[None])
        fmaps = fwd.feature_maps["gap_input"].data
        _, cam = compose_saliency(
            model16.param_by_name("head.w").data[c][None], fmaps, x16.shape[1:]
        )
        np.testing.assert_allclose(smap.normalized, cam[0], atol=1e-9)

    def test_activation_gradient_stops_at_the_map(self, model16, x16, monkeypatch):
        # the backward sweep ends at the feature map, so neither conv layer
        # below it computes a kernel or an input gradient
        from igrad import tensor as T

        ran = []
        apply = T._apply
        monkeypatch.setattr(T, "_apply", lambda kind, *a: ran.append(kind) or apply(kind, *a))
        GradCam().weights_and_maps(model16, x16[None], [1], "last_conv")
        assert ran.count("conv2d") == 2
        assert ran.count("conv2d_kernel_grad") == 0
        assert ran.count("conv2d_input_grad") == 0

    def test_class_out_of_range(self, model16, x16):
        with pytest.raises(ValueError, match="class"):
            GradCam().weights_and_maps(model16, x16[None], [99], "last_conv")

    def test_unknown_layer(self, model16, x16):
        with pytest.raises(ValueError, match="unknown layer"):
            GradCam().weights_and_maps(model16, x16[None], [0], "blockX")


class TestGradCamPP:
    def test_matches_closed_form(self, model16, x16):
        c = 3
        alpha = GradCamPP().weights_and_maps(model16, x16[None], [c], "last_conv")[0][0]
        amaps, grads = _logit_and_activation_grad(model16, x16[None], [c], "last_conv")
        amap, g = amaps[0], grads[0]
        g2, g3 = g * g, g * g * g
        denom = 2.0 * g2 + amap.sum(axis=(1, 2))[:, None, None] * g3
        w = np.where(denom != 0, g2 / np.where(denom == 0, 1.0, denom), 0.0)
        want = (w * np.maximum(g, 0)).sum(axis=(1, 2))
        np.testing.assert_allclose(alpha, want, atol=1e-12)


class TestAxiomCam:
    def test_matches_formula(self, model16, x16):
        c = 1
        alpha = AxiomCam().weights_and_maps(model16, x16[None], [c], "last_conv")[0][0]
        amaps, grads = _logit_and_activation_grad(model16, x16[None], [c], "last_conv")
        amap, g = amaps[0], grads[0]
        sums = amap.sum(axis=(1, 2))
        want = np.where(sums != 0, (amap * g).sum(axis=(1, 2)) / np.where(sums == 0, 1, sums), 0)
        np.testing.assert_allclose(alpha, want, atol=1e-12)


class TestScoreCam:
    def test_exactly_k_forward_passes_per_image(self, model16, x16, monkeypatch):
        method = ScoreCam()
        k = 16  # last_conv channels
        method.weights_and_maps(model16, x16[None], [0], "last_conv")  # no state carries over
        sizes = []
        forward = model16.forward
        monkeypatch.setattr(
            model16, "forward", lambda x, *a, **kw: sizes.append(len(x)) or forward(x, *a, **kw)
        )
        method.weights_and_maps(model16, x16[None], [0], "last_conv")
        # the black baseline, the map extraction, then one scoring pass per channel
        assert sizes == [1, 1, k]

    def test_one_baseline_per_batch(self, model16, monkeypatch):
        # a B-image call: one black baseline, one map extraction of the B
        # images, one scoring pass of the B*K masked images
        b, k = 3, 16
        xs = np.random.default_rng(11).uniform(0, 1, size=(b, 3, 16, 16))
        sizes = []
        forward = model16.forward
        monkeypatch.setattr(
            model16, "forward", lambda x, *a, **kw: sizes.append(len(x)) or forward(x, *a, **kw)
        )
        ScoreCam().weights_and_maps(model16, xs, [0, 2, 1], "last_conv")
        assert sizes == [1, b, b * k]

    def test_constant_channel_gets_zero_weight(self, model16, x16):
        # constant upsampled map normalizes to all zeros: masked input is
        # black, so the score difference against the black baseline vanishes
        method = ScoreCam()
        fwd = model16.forward(x16[None])
        amap = fwd.feature_maps["last_conv"].data[0].copy()
        amap[3] = 0.7  # constant channel

        class Inject:
            spec = model16.spec

            def forward(self, x, tape=None):
                # the constant map enters only the map extraction, the one
                # forward of the real image; the baseline and the K scoring
                # passes run the real model on the black and masked inputs
                if np.array_equal(x, x16[None]):
                    return model16.forward(x, tape, inject={"last_conv": amap[None]})
                return model16.forward(x, tape)

            def resolve_layer(self, name):
                return model16.resolve_layer(name)

        alpha = method.weights_and_maps(Inject(), x16[None], [0], "last_conv")[0][0]
        assert alpha[3] == 0.0

    def test_reused_after_parameter_change_matches_fresh(self, model16, x16):
        # the black-image baseline must follow the parameters, not the object
        method = ScoreCam()
        method.weights_and_maps(model16, x16[None], [0], "last_conv")
        for p in model16.params:
            p.data *= 1.5
        reused = method.weights_and_maps(model16, x16[None], [0], "last_conv")[0][0]
        fresh = ScoreCam().weights_and_maps(model16, x16[None], [0], "last_conv")[0][0]
        np.testing.assert_array_equal(reused, fresh)


class TestAblationCam:
    def test_matches_manual_ablation(self, model16, x16):
        # oracle: zero channel k of the extracted map, one 1-image forward each
        c = 2
        alpha = AblationCam().weights_and_maps(model16, x16[None], [c], "last_conv")[0][0]
        fwd = model16.forward(x16[None])
        y = fwd.logits.data[0, c]
        amap = fwd.feature_maps["last_conv"].data
        for k in (0, 5, 11):
            ablated = amap.copy()
            ablated[0, k] = 0.0
            y_abl = model16.forward(x16[None], inject={"last_conv": ablated}).logits.data[0, c]
            assert alpha[k] == pytest.approx((y - y_abl) / y, abs=1e-12)

    def test_two_forwards_per_image(self, model16, x16, monkeypatch):
        # one forward for the map and logit, one for all K ablated maps
        calls = []
        forward = model16.forward
        monkeypatch.setattr(model16, "forward", lambda *a, **kw: calls.append(1) or forward(*a, **kw))
        AblationCam().weights_and_maps(model16, x16[None], [2], "last_conv")
        assert len(calls) == 2


class TestBatch:
    """A batched weights_and_maps against the stacked one-image calls."""

    @pytest.fixture(params=["tinycnn", "miniresnet"])
    def model(self, request):
        if request.param == "tinycnn":
            spec = nn.tinycnn((3, 16, 16), 4, (8, 16))
        else:
            spec = nn.miniresnet((3, 16, 16), 4, width=8)
        m = nn.build_model(spec, seed=1)
        rng = np.random.default_rng(0)
        for p in m.params:
            p.data += 0.05 * rng.normal(size=p.data.shape)
        return m

    @pytest.mark.parametrize("layer", ["last_conv", "block1"])
    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_batch_equals_one_image_calls(self, model, name, layer):
        xs = np.random.default_rng(12).uniform(0, 1, size=(5, 3, 16, 16))
        cs = [0, 3, 1, 3, 2]
        method = make_method(name)
        alpha, amap = method.weights_and_maps(model, xs, cs, layer)
        singles = [method.weights_and_maps(model, x[None], [c], layer) for x, c in zip(xs, cs)]
        for got, want in ((alpha, np.concatenate([a for a, _ in singles])),
                          (amap, np.concatenate([m for _, m in singles]))):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_one_class_per_image(self, model16):
        with pytest.raises(ValueError, match="one class per image"):
            GradCam().weights_and_maps(model16, np.zeros((2, 3, 16, 16)), [0], "last_conv")


class TestInputGradientMap:
    def test_values_in_unit_range(self, model16, x16):
        for gmap in input_gradient_maps(model16, x16, 1):
            assert gmap.shape == (16, 16)
            assert gmap.min() >= 0.0 and gmap.max() <= 1.0

    def test_zero_gradient_constant_convention(self, model16):
        # head weights zero: CE gradient w.r.t. the input vanishes everywhere
        m = nn.build_model(nn.tinycnn((3, 16, 16), 4, (8, 16)), seed=1)
        m.param_by_name("head.w").data[:] = 0.0
        gmap = input_gradient_maps(m, np.zeros((3, 16, 16)), 0)[0]
        np.testing.assert_array_equal(gmap, 0.0)

    def test_guided_equals_standard_on_positive_path(self):
        # hand net where every backward signal reaching a ReLU is nonnegative:
        # positive conv weights and inputs, head row for the target zeroed so
        # the CE gradient entering the feature path is p_other * w_other >= 0
        m = nn.build_model(nn.tinycnn((1, 8, 8), 2, (3,)), seed=0)
        for p in m.params:
            p.data[:] = np.abs(p.data) + 0.05
        head = m.param_by_name("head.w")
        head.data[0, :] = 0.0
        m.param_by_name("head.b").data[:] = 0.0
        x = np.random.default_rng(9).uniform(0.2, 1.0, size=(1, 8, 8))
        g_std, g_gui = input_gradient_maps(m, x, 0)
        np.testing.assert_array_equal(g_std, g_gui)

    def test_both_maps_from_one_forward(self, model16, x16, monkeypatch):
        sizes = []
        forward = model16.forward

        def counting(x, *a, **kw):
            sizes.append(len(getattr(x, "data", x)))
            return forward(x, *a, **kw)

        monkeypatch.setattr(model16, "forward", counting)
        input_gradient_maps(model16, x16, 1)
        assert sizes == [1]


class TestFactory:
    def test_make_method_names(self):
        for name in ("gradcam", "gradcampp", "scorecam", "ablationcam", "axiomcam"):
            assert make_method(name).name == name

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown saliency method"):
            make_method("limecam")

    def test_saliency_map_fields(self, model16, x16):
        smap = saliency_for(model16, x16, 2, "last_conv", GradCam())
        assert isinstance(smap, SaliencyMap)
        assert smap.raw.shape == (8, 8)
        assert smap.raw.min() >= 0.0
