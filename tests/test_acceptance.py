"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale effect
study (criterion 8) dominates the runtime; the whole module stays well
under its 30-minute budget on a desktop CPU.
"""

import time

import numpy as np
import pytest

from igrad import data, nn
from igrad import tensor as T
from igrad.gradcheck import (
    finite_diff_gradient,
    run_guided_suite,
    run_op_suite,
)
from igrad.losses import (
    ErrorFnKind,
    error_fn,
    interpretable_loss,
    _forward_ce,
    _per_example_errors,
)
from igrad.metrics import CurveConfig, causal_curves, faithfulness_report, gaussian_blur
from igrad.saliency import GradCam, ScoreCam, cam_weights, compose_saliency, saliency_for
from igrad.study import effect_study
from igrad.tensor import GradMode, Tape, Tensor, backward
from igrad.train import TrainConfig, fit, lr_at
from igrad.losses import classification_loss


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_engine_gradcheck():
    t0 = time.perf_counter()
    errors = run_op_suite(seeds=50)
    elapsed = time.perf_counter() - t0
    worst_op = max(errors, key=errors.get)
    ok = all(v <= 1.0 for v in errors.values()) and elapsed < 60.0
    report(
        1,
        ok,
        f"all {len(errors)} primitive ops within rel 1e-4 / abs 1e-7 over 50 seeds "
        f"(worst {worst_op}: {errors[worst_op]:.3g} of tolerance, {elapsed:.1f}s < 60s)",
    )


def test_criterion_2_double_backprop_full_loss():
    # d(total)/d(theta) for the Eq.-style loss (cosine, lam = 7.5e-3) against
    # central differences; the guided branch enters the probe as the detached
    # constant it is, frozen at the base parameters
    t0 = time.perf_counter()
    model = nn.build_model(nn.tinycnn((3, 8, 8), 3, (4, 6)), seed=3)
    assert model.num_params <= 2000
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 8, 8)) * 0.5
    targets = [0, 2]
    lam, kind = 7.5e-3, ErrorFnKind.COSINE

    res = interpretable_loss(model, x, targets, kind, lam)
    grads = backward(res.total, res.params)
    frozen = res.guided_grads.data.copy()
    flat_grad = np.concatenate([g.data.reshape(-1) for g in grads])

    def loss_at(theta):
        saved = [p.data.copy() for p in model.params]
        pos = 0
        for p in model.params:
            p.data = theta[pos : pos + p.data.size].reshape(p.data.shape)
            pos += p.data.size
        ce, _, xw = _forward_ce(model, x, targets)
        (d_std,) = backward(ce, [xw], create_graph=True)
        errs = _per_example_errors(kind, d_std, Tensor(frozen))
        val = (ce + T.scale(T.reduce_sum(errs), 0.5) * lam).item()
        for p, s in zip(model.params, saved):
            p.data = s
        return val

    theta0 = np.concatenate([p.data.reshape(-1) for p in model.params])
    h = 1e-5
    worst = 0.0
    for i in range(theta0.size):  # every parameter probed
        probe = theta0.copy()
        probe[i] += h
        hi = loss_at(probe)
        probe[i] -= 2 * h
        lo = loss_at(probe)
        fd = (hi - lo) / (2 * h)
        denom = max(1e-6, 1e-3 * max(abs(fd), abs(flat_grad[i])))
        worst = max(worst, abs(flat_grad[i] - fd) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 120.0
    report(
        2,
        ok,
        f"full-loss gradient vs FD on {theta0.size}-param tinycnn: worst "
        f"{worst:.3g} of rel 1e-3 tolerance ({elapsed:.1f}s < 120s)",
    )


def test_criterion_3_guided_rule():
    min_emitted, positive_equal = run_guided_suite(nets=100)
    ok = min_emitted >= 0.0 and positive_equal
    report(
        3,
        ok,
        f"guided ReLU emissions >= 0 on 100 random nets (min {min_emitted:.3g}); "
        f"guided == standard exactly on the all-positive fixture: {positive_equal}",
    )


def test_criterion_4_lambda_zero_bit_identity():
    train_set = data.synthetic_shapes(256, hw=8, seed=5)
    test_set = data.synthetic_shapes(64, hw=8, seed=1005)
    test_set.mean, test_set.std = train_set.mean, train_set.std
    spec = nn.tinycnn((3, 8, 8), 4, (4, 6))
    cfg = TrainConfig(epochs=5, batch_size=32, seed=9, lam=0.0)

    m_reg_path = nn.build_model(spec, 1)
    fit(m_reg_path, train_set, test_set, cfg)

    m_plain = nn.build_model(spec, 1)
    rng = np.random.default_rng(cfg.seed)
    vel = [np.zeros_like(p.data) for p in m_plain.params]
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_at(cfg, epoch)
        order = rng.permutation(len(train_set))
        for start in range(0, len(train_set), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x, t = train_set.batch(idx, rng=rng)
            ce = classification_loss(m_plain, x, t)
            ce2, fwd, _ = _forward_ce(m_plain, x, t)
            assert ce.item() == ce2.item()
            grads = backward(ce2, fwd.params)
            for p, g, v in zip(m_plain.params, grads, vel):
                step = g.data + cfg.weight_decay * p.data
                v *= cfg.momentum
                v += step
                p.data -= lr * v

    identical = all(
        np.array_equal(a.data, b.data) for a, b in zip(m_reg_path.params, m_plain.params)
    )
    report(4, identical, "lam=0 training bit-identical to plain cross-entropy over 5 epochs")


def test_criterion_5_error_function_properties():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(200):
        a = Tensor(rng.normal(size=(12,)))
        b = Tensor(rng.normal(size=(12,)))
        for kind in ErrorFnKind:
            e_ab = error_fn(kind, a, b).item()
            e_ba = error_fn(kind, b, a).item()
            ok &= abs(e_ab - e_ba) <= 1e-12 * max(1.0, abs(e_ab))
            if kind in (ErrorFnKind.MAE, ErrorFnKind.MSE):
                ok &= e_ab >= 0.0
            elif kind is ErrorFnKind.COSINE:
                ok &= -1.0 <= e_ab <= 1.0
            else:
                ok &= e_ab <= 0.0
        same = Tensor(a.data.copy())
        ok &= error_fn(ErrorFnKind.MAE, a, same).item() == 0.0
        ok &= error_fn(ErrorFnKind.MSE, a, same).item() == 0.0
        ok &= error_fn(ErrorFnKind.COSINE, a, same).item() == -1.0
    report(5, ok, "symmetry, bounds, and exact identity cases over 200 random draws")


def test_criterion_6_cam_equivalence_and_scorecam_passes():
    model = nn.build_model(nn.tinycnn((3, 16, 16), 4, (8, 16)), seed=1)
    rng = np.random.default_rng(2)
    for p in model.params:
        p.data += 0.05 * rng.normal(size=p.data.shape)
    x = rng.uniform(0, 1, size=(3, 16, 16))

    worst = 0.0
    for c in range(4):
        grad_map = saliency_for(model, x, c, "gap_input", GradCam())
        fmaps = model.forward(x[None]).feature_maps["gap_input"].data[0]
        cam_map = compose_saliency(model.param_by_name("head.w").data[c], fmaps, (16, 16))
        worst = max(worst, float(np.max(np.abs(grad_map.normalized - cam_map.normalized))))

    method = ScoreCam()
    cam_weights(method, model, x, 0, "last_conv")  # no state carries over
    sizes = []
    real_forward = model.forward
    model.forward = lambda xb, *a, **kw: sizes.append(len(xb)) or real_forward(xb, *a, **kw)
    cam_weights(method, model, x, 0, "last_conv")
    model.forward = real_forward
    # images per forward: the black baseline, the map extraction, the K scoring passes
    k_passes = sizes[-1]

    ok = worst <= 1e-9 and sizes == [1, 1, 16] and k_passes == 16
    report(
        6,
        ok,
        f"Grad-CAM == classifier-weight CAM within 1e-9 (max diff {worst:.2g}); "
        f"Score-CAM scoring passes per image: {k_passes} == K=16 "
        f"(images per forward {sizes} == [1, 1, 16])",
    )


def test_criterion_7_metrics_oracle():
    split = data.synthetic_shapes(10, hw=8, seed=21)
    model = nn.build_model(nn.tinycnn((3, 8, 8), 4, (4, 6)), seed=0)
    method = GradCam()
    rep = faithfulness_report(model, split, method, class_policy="predicted")
    got_ad, got_ag, got_ai = rep.ad, rep.ag, rep.ai

    # independent straight-line re-implementation
    drops, gains, incs = [], [], []
    for i in range(10):
        x = split.images[i].pixels
        pv = model.forward(split.normalize(x)[None]).probs.data[0]
        c = int(np.argmax(pv))
        p = pv[c]
        smap = saliency_for(model, x, c, "last_conv", method, prep=split.normalize)
        o = model.forward(split.normalize(x * smap.normalized[None])[None]).probs.data[0][c]
        drops.append(max(0.0, p - o) / p)
        gains.append(max(0.0, o - p) / p)
        incs.append(1.0 if p < o else 0.0)
    oracle_ok = (
        abs(got_ad - 100.0 * np.sum(drops) / 10) <= 1e-12
        and abs(got_ag - 100.0 * np.sum(gains) / 10) <= 1e-12
        and abs(got_ai - 100.0 * np.sum(incs) / 10) <= 1e-12
    )

    # curve endpoints
    captured = []
    real_forward = model.forward

    def capturing(xb, *a, **kw):
        captured.append(np.asarray(xb.data if hasattr(xb, "data") else xb))
        return real_forward(xb, *a, **kw)

    model.forward = capturing
    x = split.images[0].pixels
    smap = saliency_for(model, x, 0, "last_conv", GradCam(), prep=split.normalize)
    captured.clear()
    p = real_forward(split.normalize(x)[None]).probs.data[0, 0]
    causal_curves(model, x, smap, CurveConfig(8, 8, 5, 2.0), 0, split.normalize, p)
    model.forward = real_forward
    ins_batch, del_batch = captured[0], captured[1]
    p_final = real_forward(ins_batch[-1:]).probs.data[0, 0]
    endpoint_ok = (
        np.array_equal(ins_batch[-1], split.normalize(x))
        and p_final / p == 1.0
        and np.array_equal(del_batch[-1], split.normalize(np.zeros_like(x)))
    )
    ok = oracle_ok and endpoint_ok
    report(
        7,
        ok,
        "AD/AG/AI match brute force to 1e-12 on 10 fixtures; insertion endpoint "
        "ratio == 1 exactly; deletion endpoint is the all-zero image",
    )


@pytest.mark.slow
def test_criterion_8_desk_scale_effect():
    t0 = time.perf_counter()
    summary = effect_study(seeds=(0, 1, 2), lam=1.0, epochs=30)
    elapsed = time.perf_counter() - t0

    for run in summary.rows():
        tag = "baseline" if run.lam == 0 else "cosine"
        print(
            f"  seed {run.seed} {tag:>8}: train_acc={run.train_acc:.4f} "
            f"test_acc={run.test_acc:.4f} cos={run.heldout_cosine:.4f} "
            f"AD={run.gradcam_ad:.2f}"
        )
    train_ok = all(r.train_acc >= 0.95 for r in summary.baseline)
    cos_ok = summary.cosine_improves_every_seed
    ad_ok = summary.mean_ad_gap <= 2.0
    time_ok = elapsed < 1800.0
    ok = train_ok and cos_ok and ad_ok and time_ok
    report(
        8,
        ok,
        f"held-out cosine higher for every seed: {cos_ok}; Grad-CAM AD gap "
        f"{summary.mean_ad_gap:+.2f} <= +2.0; baseline train acc >= 95%: {train_ok}; "
        f"{elapsed:.0f}s < 1800s",
    )


def test_criterion_9_parser_bit_exactness(tmp_path):
    rng = np.random.default_rng(31)
    ok = True
    for variant, label_cap, extra in (("cifar10", 10, 0), ("cifar100", 100, 1)):
        raw = bytearray()
        for i in range(5):
            if extra:
                raw.append(rng.integers(0, 20))
            raw.append(rng.integers(0, label_cap))
            raw.extend(rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
        path = tmp_path / f"{variant}.bin"
        path.write_bytes(bytes(raw))
        split = data.parse_cifar(path, variant)
        rebuilt = b"".join(data.serialize_cifar_record(im, variant) for im in split.images)
        ok &= rebuilt == bytes(raw)

        bad = tmp_path / f"{variant}-bad.bin"
        bad.write_bytes(bytes(raw) + b"\x00\x01")
        try:
            data.parse_cifar(bad, variant)
            ok = False
        except ValueError as e:
            ok &= "remainder 2" in str(e)
    report(9, ok, "CIFAR-10/100 fixtures round-trip byte-identically; malformed "
                  "lengths rejected with the documented remainder message")
