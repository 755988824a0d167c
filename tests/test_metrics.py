"""Metrics against independent straight-line oracles: AD/AG/AI re-derived in
the test, and causal curves enumerated by hand on a one-pixel toy model."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from igrad import data, metrics, nn
from igrad.metrics import (
    CurveConfig,
    causal_curves,
    faithfulness_report,
    gaussian_blur,
    target_class,
    write_reports_csv,
    _aggregate,
)
from igrad.saliency import GradCam, SaliencyMap, make_method


def trained_model_and_split(seed=0):
    split = data.synthetic_shapes(10, hw=8, seed=21)
    spec = nn.tinycnn((3, 8, 8), 4, (4, 6))
    model = nn.build_model(spec, seed)
    return model, split


class FakeSmap:
    def __init__(self, normalized):
        self.normalized = normalized


class TestCurveConfig:
    @pytest.mark.parametrize(
        "kw, match",
        [
            ({"blur_sigma": 0.0}, "blur_sigma"),
            ({"blur_sigma": -2.0}, "blur_sigma"),
            ({"blur_sigma": float("nan")}, "blur_sigma"),
            ({"blur_kernel": -1}, "blur_kernel"),
            ({"blur_kernel": 4}, "blur_kernel"),
        ],
    )
    def test_bad_blur_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            CurveConfig(pixels_per_step=4, **kw)

    def test_smallest_blur_is_identity(self):
        x = np.random.default_rng(5).uniform(size=(3, 4, 4))
        cfg = CurveConfig(pixels_per_step=4, blur_kernel=1, blur_sigma=1e-3)
        np.testing.assert_array_equal(gaussian_blur(x, cfg.blur_kernel, cfg.blur_sigma), x)


class TestAggregate:
    def test_direct_formula_single_image(self):
        ad, ag, ai = _aggregate(np.array([0.8]), np.array([0.4]))
        assert ad == pytest.approx(50.0, abs=1e-12)
        assert ag == 0.0
        assert ai == 0.0

    def test_identity_masking_all_zero(self):
        ad, ag, ai = _aggregate(np.full(4, 0.5), np.full(4, 0.5))
        assert (ad, ag, ai) == (0.0, 0.0, 0.0)

    def test_ad_ag_mutually_exclusive_per_image(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p, o = rng.uniform(0.01, 1.0, size=2)
            ad, ag, _ = _aggregate(np.array([p]), np.array([o]))
            assert ad == 0.0 or ag == 0.0

    def test_ai_counts_strict_increase_only(self):
        ad, ag, ai = _aggregate(np.array([0.5, 0.5]), np.array([0.5, 0.6]))
        assert ai == 50.0


class TestFaithfulnessOracle:
    def test_matches_bruteforce_on_ten_images(self):
        # independent straight-line re-implementation, no shared code
        model, split = trained_model_and_split()
        method = GradCam()
        rep = faithfulness_report(model, split, method, class_policy="predicted")
        got_ad, got_ag, got_ai = rep.ad, rep.ag, rep.ai

        n = len(split)
        drops, gains, incs = [], [], []
        for i in range(n):
            x = split.images[i].pixels
            pv = model.forward(split.normalize(x)[None]).probs.data[0]
            c = int(np.argmax(pv))
            p = pv[c]
            from igrad.saliency import saliency_for

            smap = saliency_for(model, x, c, "last_conv", method, prep=split.normalize)
            masked = x * smap.normalized[None]
            o = model.forward(split.normalize(masked)[None]).probs.data[0][c]
            drops.append(max(0.0, p - o) / p)
            gains.append(max(0.0, o - p) / p)
            incs.append(1.0 if p < o else 0.0)
        assert abs(got_ad - 100.0 * sum(drops) / n) <= 1e-12
        assert abs(got_ag - 100.0 * sum(gains) / n) <= 1e-12
        assert abs(got_ai - 100.0 * sum(incs) / n) <= 1e-12

    def test_ground_truth_policy(self):
        model, split = trained_model_and_split()
        ad_p = faithfulness_report(model, split, GradCam(), class_policy="predicted").ad
        ad_g = faithfulness_report(model, split, GradCam(), class_policy="ground_truth").ad
        assert np.isfinite([ad_p, ad_g]).all()


METHODS = ["gradcam", "gradcampp", "axiomcam", "scorecam", "ablationcam"]


class TestChunks:
    """The split is evaluated CHUNK_IMAGES images per forward; 17 images
    make three chunks at 8."""

    @pytest.fixture
    def model_and_split(self):
        split = data.synthetic_shapes(17, hw=8, seed=21)
        model = nn.build_model(nn.tinycnn((3, 8, 8), 4, (4, 6)), seed=0)
        return model, split

    @pytest.mark.parametrize("name", METHODS)
    def test_records_equal_one_image_evaluation(self, model_and_split, monkeypatch, name):
        model, split = model_and_split
        cfg = CurveConfig(pixels_per_step=8)

        def report():
            return faithfulness_report(
                model, split, make_method(name), class_policy="ground_truth",
                curve_cfg=cfg, keep_per_image=True,
            )

        chunked = report()
        monkeypatch.setattr(metrics, "CHUNK_IMAGES", 1)
        single = report()
        assert [r.index for r in chunked.per_image] == list(range(17))
        for got, want in zip(chunked.per_image, single.per_image):
            assert (got.index, got.target) == (want.index, want.target)
            for k in ("p_original", "p_masked", "insertion", "deletion"):
                a, b = getattr(got, k), getattr(want, k)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (got.index, k, a, b)

    @pytest.mark.parametrize("name", METHODS)
    def test_aggregates_are_numpy_means_of_the_records(self, model_and_split, name):
        # exactly the expressions the benchmark's eval check recomputes, so
        # no cell depends on Python's float sum (compensated since 3.12)
        model, split = model_and_split
        rep = faithfulness_report(
            model, split, make_method(name), class_policy="ground_truth",
            curve_cfg=CurveConfig(pixels_per_step=8), keep_per_image=True,
        )
        for r in rep.per_image:
            assert [type(v) for v in vars(r).values()] == [int, int] + [float] * 4
        po, pm, ins, dele = (
            np.array([getattr(r, k) for r in rep.per_image])
            for k in ("p_original", "p_masked", "insertion", "deletion")
        )
        assert rep.ad == 100.0 * np.mean(np.maximum(0.0, po - pm) / po)
        assert rep.ag == 100.0 * np.mean(np.maximum(0.0, pm - po) / po)
        assert rep.ai == 100.0 * np.mean(po < pm)
        assert (rep.insertion, rep.deletion) == (np.mean(ins), np.mean(dele))
        cells = (rep.ad, rep.ag, rep.ai, rep.insertion, rep.deletion)
        assert all(type(v) is float for v in cells)  # repr'd into metrics.csv

    def test_records_without_curves(self, model_and_split):
        model, split = model_and_split
        rep = faithfulness_report(model, split, GradCam(), keep_per_image=True)
        assert (rep.insertion, rep.deletion) == (None, None)
        assert [r.index for r in rep.per_image] == list(range(17))
        for r in rep.per_image:
            assert [type(v) for v in vars(r).values()] == [int, int, float, float, type(None), type(None)]
        assert faithfulness_report(model, split, GradCam()).per_image is None

    def test_forwards_per_chunk(self, model_and_split, monkeypatch):
        # per chunk: the target classes, the map, the masked images and
        # one forward per curve kind
        model, split = model_and_split
        sizes = []
        forward = model.forward

        def counting(x, *a, **kw):
            sizes.append(len(getattr(x, "data", x)))
            return forward(x, *a, **kw)

        monkeypatch.setattr(model, "forward", counting)
        faithfulness_report(model, split, GradCam(), curve_cfg=CurveConfig(pixels_per_step=8))
        assert sizes == [s for n in (8, 8, 1) for s in (n, n, n, 9 * n, 9 * n)]

    def test_zero_probability_names_the_split_index(self, model_and_split):
        model, split = model_and_split
        model.param_by_name("head.w").data[:] = 0.0
        model.param_by_name("head.b").data[:] = -1e4  # exp(-1e4) underflows to 0
        model.param_by_name("head.b").data[0] = 0.0
        split.labels[:] = 0
        split.labels[11] = 1
        with pytest.raises(ValueError, match="image 11: original probability for class 1 is zero"):
            faithfulness_report(model, split, GradCam(), class_policy="ground_truth")

    def test_misspelt_policy_rejected_before_any_forward(self, model_and_split, monkeypatch):
        model, split = model_and_split
        monkeypatch.setattr(model, "forward", lambda *a, **kw: pytest.fail("forward ran"))
        with pytest.raises(ValueError, match="'predictd'"):
            faithfulness_report(model, split, GradCam(), class_policy="predictd")
        with pytest.raises(ValueError, match="'predictd'"):
            target_class(model, split, [0, 1], "predictd")


class OnePixelModel:
    """Probability of class 0 is a logistic read of pixel (0,0), channel 0."""

    def __init__(self, gain=4.0):
        self.gain = gain

    def forward(self, x, **kwargs):
        x = np.asarray(x.data if hasattr(x, "data") else x)
        logit = self.gain * x[:, 0, 0, 0]
        p0 = 1.0 / (1.0 + np.exp(-logit))
        probs = np.stack([p0, 1.0 - p0], axis=1)

        class R:
            pass

        r = R()
        r.probs = type("T", (), {"data": probs})()
        return r


class PixelWeightModel:
    """Probability of class 0 is a logistic read of a fixed weighting of
    every pixel, so revealing any pixel earlier or later moves a curve."""

    def __init__(self, shape, seed):
        self.w = np.random.default_rng(seed).normal(size=shape)

    def forward(self, x, **kwargs):
        p0 = 1.0 / (1.0 + np.exp(-(np.asarray(x) * self.w).sum(axis=(1, 2, 3))))
        return type("R", (), {"probs": type("T", (), {"data": np.stack([p0, 1.0 - p0], axis=1)})()})()


class TestCausalCurves:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 3),
        hw=st.integers(3, 6),
        pixels_per_step=st.integers(1, 4),
        levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        eps=st.floats(0.0, 1e-14),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rounding_cannot_reorder_curve_pixels(self, n, hw, pixels_per_step, levels, eps, seed):
        # maps of a few levels hold exact ties, and nudging pixels up by one
        # to three ulps adds near-ties (1e-17 near 0.1); changing each pixel
        # by its own relative rounding of at most eps must leave both curves'
        # bytes alone. A value within eps of a midpoint between two grid
        # points can still round either way, so the levels keep clear of them
        rng = np.random.default_rng(seed)
        sal = np.asarray(levels)[rng.integers(0, len(levels), size=(n, hw, hw))]
        for _ in range(rng.integers(0, hw * hw)):
            i = (rng.integers(n), rng.integers(hw), rng.integers(hw))
            for _ in range(rng.integers(1, 4)):
                sal[i] = np.nextafter(sal[i], 2.0)
        assume((np.abs((sal * 2.0**36) % 1.0 - 0.5) > 1e-3).all())
        x = rng.uniform(0.2, 1.0, size=(n, 2, hw, hw))
        model = PixelWeightModel((1, 2, hw, hw), seed)
        cfg = CurveConfig(pixels_per_step=pixels_per_step, blur_kernel=3, blur_sigma=1.0)
        p = model.forward(x).probs.data[:, 0]

        def curves(s):
            return tuple(c.tobytes() for c in causal_curves(model, x, s, cfg, [0] * n, lambda v: v, p))

        assert curves(sal) == curves(sal * (1.0 + rng.uniform(-eps, eps, size=sal.shape)))

    def test_insertion_endpoint_ratio_is_one(self):
        model = OnePixelModel()
        rng = np.random.default_rng(3)
        x = rng.uniform(0.2, 1.0, size=(1, 4, 4))
        smap = FakeSmap(rng.uniform(0, 1, size=(4, 4)))
        cfg = CurveConfig(pixels_per_step=4, blur_kernel=3, blur_sigma=1.0)

        p_orig = model.forward(x[None]).probs.data[0, 0]
        # reproduce the final insertion state by hand: every pixel restored
        (ins,), (dele,) = causal_curves(
            model, x[None], smap.normalized[None], cfg, [0], prep=lambda v: v, p_orig=[p_orig]
        )
        assert np.isfinite([ins, dele]).all()

        # endpoint check via a capturing wrapper
        captured = []

        class Capture(OnePixelModel):
            def forward(self, xb, **kw):
                captured.append(np.asarray(xb))
                return super().forward(xb, **kw)

        causal_curves(Capture(), x[None], smap.normalized[None], cfg, [0], lambda v: v, [p_orig])
        ins_batch = captured[0]  # [0]=insertion steps, [1]=deletion steps
        np.testing.assert_array_equal(ins_batch[-1], x)
        del_batch = captured[1]
        np.testing.assert_array_equal(del_batch[-1], np.zeros_like(x))
        p_orig = OnePixelModel().forward(x[None]).probs.data[0, 0]
        p_last = OnePixelModel().forward(ins_batch[-1:][:]).probs.data[0, 0]
        assert p_last / p_orig == 1.0

    def test_bruteforce_curve_enumeration(self):
        # one-pixel model, perfect saliency: enumerate the whole curve by hand
        model = OnePixelModel()
        rng = np.random.default_rng(4)
        x = rng.uniform(0.3, 1.0, size=(1, 4, 4))
        sal = np.zeros((4, 4))
        sal[0, 0] = 1.0  # the only pixel the model reads comes first
        cfg = CurveConfig(pixels_per_step=2, blur_kernel=3, blur_sigma=1.0)
        p_orig = model.forward(x[None]).probs.data[0, 0]
        (ins,), (dele,) = causal_curves(model, x[None], sal[None], cfg, [0], lambda v: v, [p_orig])

        def prob(img):
            return 1.0 / (1.0 + np.exp(-model.gain * img[0, 0, 0]))

        order = np.argsort(-sal.reshape(-1), kind="stable")
        blurred = gaussian_blur(x, 3, 1.0)
        p0 = prob(x)

        for start, source, got in ((blurred, x, ins), (x, np.zeros_like(x), dele)):
            img = start.copy().reshape(1, -1)
            fractions = [0.0]
            ratios = [prob(img.reshape(1, 4, 4)) / p0]
            done = 0
            while done < 16:
                sel = order[done : done + 2]
                img[:, sel] = source.reshape(1, -1)[:, sel]
                done += 2
                fractions.append(done / 16)
                ratios.append(prob(img.reshape(1, 4, 4)) / p0)
            want = float(np.trapezoid(ratios, fractions) * 100.0)
            assert got == want

    def test_deterministic_bitwise(self):
        model, split = trained_model_and_split()
        x = split.images[0].pixels
        from igrad.saliency import saliency_for

        smap = saliency_for(model, x, 0, "last_conv", GradCam(), prep=split.normalize)
        cfg = CurveConfig(pixels_per_step=8)
        p = model.forward(split.normalize(x)[None]).probs.data[0, 0]
        sal = smap.normalized[None]

        def run():
            (ins,), (dele,) = causal_curves(model, x[None], sal, cfg, [0], split.normalize, [p])
            return ins, dele

        a = run()
        b = run()
        assert a == b

    def test_tie_ranking_lowest_linear_index(self):
        # all-equal saliency: pixels must be taken in linear order
        captured = []

        class Capture(OnePixelModel):
            def forward(self, xb, **kw):
                captured.append(np.asarray(xb))
                return super().forward(xb, **kw)

        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4) / 16 + 0.1
        cfg = CurveConfig(pixels_per_step=4, blur_kernel=3, blur_sigma=1.0)
        causal_curves(Capture(), x[None], np.ones((1, 4, 4)), cfg, [0], lambda v: v, [0.5])
        dele = captured[1]
        # after the first deletion step the first four pixels are zeroed
        np.testing.assert_array_equal(dele[1].reshape(-1)[:4], 0.0)
        assert (dele[1].reshape(-1)[4:] != 0).all()


class TestGaussianBlur:
    def test_constant_image_unchanged(self):
        x = np.full((3, 8, 8), 0.4)
        np.testing.assert_allclose(gaussian_blur(x, 5, 2.0), x, atol=1e-12)

    def test_smooths_impulse(self):
        x = np.zeros((1, 9, 9))
        x[0, 4, 4] = 1.0
        out = gaussian_blur(x, 5, 2.0)
        assert out[0, 4, 4] < 1.0
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            CurveConfig(pixels_per_step=4, blur_kernel=4)


class TestReport:
    def test_report_and_csv(self, tmp_path):
        model, split = trained_model_and_split()
        rep = faithfulness_report(
            model, split, GradCam(), curve_cfg=CurveConfig(pixels_per_step=8), keep_per_image=True
        )
        assert rep.n == 10
        assert 0.0 <= rep.ad <= 100.0
        assert 0.0 <= rep.ai <= 100.0
        assert rep.ag >= 0.0
        assert len(rep.per_image) == 10
        path = tmp_path / "m.csv"
        write_reports_csv(path, [rep])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,class_policy,n,ad,ag,ai,insertion,deletion"
        fields = lines[1].split(",")
        assert fields[0] == "gradcam"
        assert fields[1] == "predicted"
        assert float(fields[3]) == rep.ad
