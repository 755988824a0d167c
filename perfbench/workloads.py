"""The workloads: set-up, timed rounds, correctness checks, metrics.

train_reg and train_plain run `train.fit` on a fixed training recipe (split,
initial weights, shuffle order), at lambda 1 and 0; BENCHMARK.json lists
train_reg and eval_cam. eval_cam runs the
`igrad eval` command on a lambda-1 checkpoint that its set-up trains. The
seed draws the held-out split: the quality figures, the evaluated images
and the gradient check batch all come from it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from igrad import cli, data, losses, metrics, nn, saliency, study, tensor, train
from igrad import config as cfgmod

import reference as ref
from spans import Spans, Tracer
import speed

HW = 16
WIDTHS = (8, 16)
CLASSES = 4
BATCH = 64
TRAIN_N = 1024
TRAIN_DATA_SEED = 11  # fixed training recipe: split, initial weights, shuffle order
MODEL_SEED = 0
SHUFFLE_SEED = 0
HELDOUT_N = 1024
EPOCHS = 8  # per train round: 128 steps
CKPT_EPOCHS = 3  # eval_cam's checkpoint: 48 steps at lambda 1
EVAL_N = 16  # held-out images per `igrad eval` run: about 1.7 s, so a 40-s run holds about 20
METHODS = ("gradcam", "gradcampp", "axiomcam", "scorecam", "ablationcam")
# Set-ups per run, a fixed count so that every run allocates the same: a train
# set-up takes ~0.1 s and varies by +-30% from one to the next, an eval one ~5 s.
SETUP_REPEATS_TRAIN = 11
SETUP_REPEATS_EVAL = 3
# A speed sample before each set-up and round, and every 16 train steps: about
# 6% of a timed run, and the same samples at the same points on every run.
SPEED_EVERY_STEPS = 16
GRAD_DIRECTIONS = 3
FD_STEP = 1e-5
FD_RTOL = 1e-4  # the central difference's own error measured <= 2e-9 absolute
FD_ATOL = 1e-8
PROB_TOL = 1e-9
SAMPLE_IMAGES = 8

LAMBDA = {"train_reg": 1.0, "train_plain": 0.0, "eval_cam": 1.0}
OP_HELPERS = ("conv2d", "conv2d_input_grad", "conv2d_kernel_grad", "maxpool2d", "pool_scatter", "pool_gather")
BACKWARD_KINDS = ("graph", "guided", "params", "input")


class CheckFailed(Exception):
    pass


def check(ok, item, detail=""):
    if not ok:
        raise CheckFailed(f"{item}: {detail}" if detail else item)


def train_config(lam, epochs, checkpoint_path=None):
    """The effect study's schedule, cut to a fixed number of epochs."""
    return train.TrainConfig(
        epochs=epochs, batch_size=BATCH, base_lr=0.05, lr_decay_epochs=(15, 22),
        lr_decay_factor=5.0, lam=lam, error_kind=losses.ErrorFnKind.COSINE,
        seed=SHUFFLE_SEED, checkpoint_path=checkpoint_path,
    )


def build_model():
    return nn.build_model(nn.tinycnn((3, HW, HW), CLASSES, WIDTHS), MODEL_SEED)


@dataclass
class Context:
    workload: str
    seed: int
    workdir: Path
    lam: float
    train_set: object = None
    heldout: object = None
    model: object = None  # eval_cam: the trained checkpoint's model
    ckpt_log: object = None
    config_path: Path | None = None
    ckpt_path: Path | None = None
    round_spans: list = field(default_factory=list)  # (start, end, ms per image), one per round
    step_spans: list = field(default_factory=list)  # (start, end) of each train_step call
    speed: speed.Speed | None = None  # timed runs only
    logs: list = field(default_factory=list)
    csvs: list = field(default_factory=list)
    rounds: int = 0
    _cosine: float | None = None

    @property
    def is_eval(self):
        return self.workload == "eval_cam"

    def heldout_cosine(self):
        """Held-out standard-vs-guided cosine of the trained model."""
        if self._cosine is None:
            self._cosine = study.mean_cosine_alignment(self.model, self.heldout)
        return self._cosine

    @property
    def ops_per_round(self):
        if self.is_eval:
            return EVAL_N * len(METHODS)
        return EPOCHS * math.ceil(TRAIN_N / BATCH)


# --------------------------------------------------------------------------
# set-up

def setup(ctx: Context):
    ctx.train_set = data.synthetic_shapes(TRAIN_N, hw=HW, seed=TRAIN_DATA_SEED)
    ctx.heldout = data.synthetic_shapes(HELDOUT_N, hw=HW, seed=ctx.seed + 1000)
    ctx.heldout.mean, ctx.heldout.std = ctx.train_set.mean, ctx.train_set.std
    model = build_model()
    if ctx.is_eval:
        ctx.ckpt_path = ctx.workdir / "model.ckpt"
        ctx.ckpt_log = train.fit(model, ctx.train_set, ctx.heldout,
                                 train_config(ctx.lam, CKPT_EPOCHS, str(ctx.ckpt_path)))
        ctx.model = model
        ctx.config_path = ctx.workdir / "eval.json"
        ctx.config_path.write_text(json.dumps(eval_config(ctx)))


def eval_config(ctx):
    """`igrad eval` reads the same split sizes; its dataset seed is the run's
    seed, so it evaluates the first EVAL_N images of the held-out split."""
    return {
        "dataset": {"kind": "synthetic", "n_train": TRAIN_N, "n_test": EVAL_N, "hw": HW, "seed": ctx.seed},
        "model": {"architecture": "tinycnn", "widths": list(WIDTHS), "seed": MODEL_SEED},
        "train": {"epochs": CKPT_EPOCHS, "lambda": ctx.lam},
        "saliency": {"methods": list(METHODS), "layer": "last_conv", "class_policy": "predicted"},
        "output": {"dir": str(ctx.workdir / "eval")},
    }


# --------------------------------------------------------------------------
# rounds

def run_round(ctx: Context):
    if ctx.speed:
        ctx.speed.sample()
    sampling = ctx.speed.busy if ctx.speed else 0.0
    if ctx.is_eval:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eval", str(ctx.config_path), str(ctx.ckpt_path)])
        t1 = time.perf_counter()
        check(code == 0, "igrad eval exit code", f"{code}: {out.getvalue()[-500:]}")
        ctx.csvs.append((ctx.workdir / "eval" / "metrics.csv").read_text())
        images = EVAL_N
    else:
        model = build_model()
        t0 = time.perf_counter()
        log = train.fit(model, ctx.train_set, ctx.heldout, train_config(ctx.lam, EPOCHS))
        t1 = time.perf_counter()
        ctx.logs.append(log)
        ctx.model = model
        images = EPOCHS * TRAIN_N
    # the speed samples taken between train steps are not the program's time
    ms = 1000.0 * (t1 - t0 - ((ctx.speed.busy if ctx.speed else 0.0) - sampling)) / images
    ctx.round_spans.append((t0, t1, ms))
    ctx.rounds += 1


@contextlib.contextmanager
def step_timer(ctx: Context):
    """A timestamp pair around each `train.train_step` call, and a speed
    sample in the middle of every SPEED_EVERY_STEPS calls."""
    inner = train.train_step

    def timed(*args, **kwargs):
        if len(ctx.step_spans) % SPEED_EVERY_STEPS == SPEED_EVERY_STEPS // 2:
            ctx.speed.sample()
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            ctx.step_spans.append((t0, time.perf_counter()))

    train.train_step = timed
    try:
        yield
    finally:
        train.train_step = inner


# --------------------------------------------------------------------------
# checks

def check_training(ctx: Context):
    first = ctx.logs[0].records
    for r, log in enumerate(ctx.logs):
        for rec in log.records:
            for k in ("loss_c", "loss_r", "loss_total"):
                check(math.isfinite(getattr(rec, k)), "logged loss is finite", f"round {r} epoch {rec.epoch} {k}")
        same = [(a.loss_c, a.loss_r, a.loss_total, a.train_acc, a.test_acc) for a in log.records] == [
            (b.loss_c, b.loss_r, b.loss_total, b.train_acc, b.test_acc) for b in first]
        check(same, "every round repeats the first round's log exactly", f"round {r}")
    check(first[-1].loss_c < first[0].loss_c, "last epoch loss_c below the first",
          f"{first[-1].loss_c} vs {first[0].loss_c}")
    check(first[-1].test_acc > 1.0 / CLASSES, "test_acc above chance", f"{first[-1].test_acc}")
    check_param_gradient(ctx)
    if ctx.lam > 0:
        # The paper's claim, regularized against plain training on the same
        # recipe. Against the initial weights it does not hold at 8 epochs:
        # the held-out cosine dips below its initial value there.
        plain = build_model()
        train.fit(plain, ctx.train_set, ctx.heldout, train_config(0.0, EPOCHS))
        base = study.mean_cosine_alignment(plain, ctx.heldout)
        check(ctx.heldout_cosine() > base, "held-out cosine above that of lambda-0 training", f"{ctx.heldout_cosine()} vs {base}")


def check_param_gradient(ctx: Context):
    """The program's parameter gradient of the total loss against a central
    difference of a numpy loss, along random directions, on one held-out batch.
    The guided gradient stays at the unperturbed parameters: it is the
    detached teacher of the regularizer."""
    rng = np.random.default_rng(ctx.seed)
    idx = np.sort(rng.choice(HELDOUT_N, BATCH, replace=False))
    x, t = ctx.heldout.batch(idx)
    model = ctx.model
    res = losses.interpretable_loss(model, x, t, losses.ErrorFnKind.COSINE, ctx.lam)
    grads = tensor.backward(res.total, res.params)
    params = ref.params_of(model)
    names = [p.name for p in model.params]
    theta0 = np.concatenate([params[n].ravel() for n in names])
    analytic = np.concatenate([g.data.ravel() for g in grads])

    def loss_at(theta):
        p, off = {}, 0
        for n in names:
            p[n] = theta[off: off + params[n].size].reshape(params[n].shape)
            off += params[n].size
        return ref.total_loss(p, x, t, ctx.lam, guided)

    _, guided, _ = ref.input_grad(params, x, t, guided=True)
    loss0, d_std, pattern0 = loss_at(theta0)
    check(abs(loss0 - res.breakdown.total) <= 1e-9 * max(1.0, abs(loss0)), "total loss matches numpy",
          f"{res.breakdown.total} vs {loss0}")
    if ctx.lam > 0:
        for what, mine, theirs in (("standard", d_std, res.standard_grads), ("guided", guided, res.guided_grads)):
            err = np.abs(theirs.data - mine).max() / max(np.abs(mine).max(), 1e-300)
            check(err <= 1e-9, f"{what} input-gradient matches numpy", f"relative error {err}")
    done = 0
    for _ in range(10 * GRAD_DIRECTIONS):
        v = rng.standard_normal(theta0.size)
        v /= np.linalg.norm(v)
        lp, _, pp = loss_at(theta0 + FD_STEP * v)
        lm, _, pm = loss_at(theta0 - FD_STEP * v)
        if not (ref.same_pattern(pattern0, pp) and ref.same_pattern(pattern0, pm)):
            continue  # the step crosses a ReLU or pool switch: no derivative there
        fd = (lp - lm) / (2 * FD_STEP)
        an = float(analytic @ v)
        check(abs(fd - an) <= FD_RTOL * abs(an) + FD_ATOL, "parameter gradient matches central difference",
              f"direction {done}: {an} vs {fd}")
        done += 1
        if done == GRAD_DIRECTIONS:
            return
    check(False, "parameter gradient matches central difference", "no direction kept the activation pattern")


def check_eval(ctx: Context):
    check(all(c == ctx.csvs[0] for c in ctx.csvs), "every igrad eval run writes the same metrics.csv")
    rows = list(csv.DictReader(io.StringIO(ctx.csvs[0])))
    check([r["method"] for r in rows] == list(METHODS), "metrics.csv has one row per method", str(rows))
    loaded = nn.load_checkpoint(ctx.ckpt_path)
    check(all(np.array_equal(a.data, b.data) for a, b in zip(loaded.params, ctx.model.params)),
          "checkpoint reloads the trained parameters")
    cfg = cfgmod.load_config(ctx.config_path)
    _, test_set = cfgmod.build_datasets(cfg)
    params = ref.params_of(loaded)
    rng = np.random.default_rng(ctx.seed)
    sample = np.sort(rng.choice(EVAL_N, SAMPLE_IMAGES, replace=False))
    for name, row in zip(METHODS, rows):
        check(row["class_policy"] == "predicted" and int(row["n"]) == EVAL_N, f"{name}: row header", str(row))
        rep = metrics.faithfulness_report(loaded, test_set, saliency.make_method(name), layer="last_conv",
                                          class_policy="predicted", curve_cfg=cfgmod.curve_config(cfg, HW),
                                          keep_per_image=True)
        for i in sample:
            rec = rep.per_image[i]
            x_raw = test_set.images[i].pixels
            p = ref.probs(params, test_set.normalize(x_raw)[None])[0]
            check(rec.target == int(np.argmax(p)), f"{name}: image {i} predicted class", f"{rec.target}")
            check(abs(rec.p_original - p[rec.target]) <= PROB_TOL, f"{name}: image {i} original probability",
                  f"{rec.p_original} vs {p[rec.target]}")
            smap = saliency.saliency_for(loaded, x_raw, rec.target, "last_conv", saliency.make_method(name),
                                         prep=test_set.normalize)
            masked = x_raw * smap.normalized[None]
            pm = ref.probs(params, test_set.normalize(masked)[None])[0, rec.target]
            check(abs(rec.p_masked - pm) <= PROB_TOL, f"{name}: image {i} masked probability",
                  f"{rec.p_masked} vs {pm}")
        po = np.array([r.p_original for r in rep.per_image])
        pmk = np.array([r.p_masked for r in rep.per_image])
        mine = {
            "ad": 100.0 * np.mean(np.maximum(0.0, po - pmk) / po),
            "ag": 100.0 * np.mean(np.maximum(0.0, pmk - po) / po),
            "ai": 100.0 * np.mean(po < pmk),
        }
        for k, v in mine.items():
            got = float(row[k])
            check(abs(got - v) <= 1e-9 * max(1.0, abs(v)), f"{name}: {k.upper()} matches recomputation", f"{got} vs {v}")
            check(0.0 <= got <= 100.0, f"{name}: {k.upper()} in [0, 100]", f"{got}")
        for k in ("insertion", "deletion"):
            scores = [getattr(r, k) for r in rep.per_image] + [float(row[k])]
            check(all(math.isfinite(s) and s >= 0.0 for s in scores), f"{name}: {k} scores finite and >= 0")
    w = params["head.w"]
    for i in sample:
        x_raw = test_set.images[i].pixels
        logits, gap_input, _ = ref.forward(params, test_set.normalize(x_raw)[None])
        c = int(np.argmax(logits[0]))
        smap = saliency.saliency_for(loaded, x_raw, c, "gap_input", saliency.GradCam(), prep=test_set.normalize)
        hw = gap_input.shape[2] * gap_input.shape[3]
        want = np.maximum(0.0, np.tensordot(w[c], gap_input[0], axes=(0, 0))) / hw
        err = np.abs(smap.raw - want).max() / max(np.abs(want).max(), 1e-300)
        check(err <= 1e-9, f"gradcam at gap_input equals the head.w CAM, image {i}", f"relative error {err}")


# --------------------------------------------------------------------------
# metrics

def end_to_end(ctx: Context, setup_spans, rss_mb, scaled=True):
    """The end-to-end figures. Each timed interval is scaled to the
    reference machine speed (see speed.py) unless `scaled` is false."""
    def at_speed(t0, t1, value):
        return value * ctx.speed.scale(t0, t1) if scaled else value

    per_image = statistics.median(at_speed(*span) for span in ctx.round_spans)
    if ctx.is_eval:
        op_ms = per_image / len(METHODS)
        test_acc = ctx.ckpt_log.records[-1].test_acc
    else:
        op_ms = statistics.median(at_speed(t0, t1, 1000.0 * (t1 - t0)) for t0, t1 in ctx.step_spans)
        test_acc = ctx.logs[0].records[-1].test_acc
    return {
        "setup_s": (statistics.median(at_speed(t0, t1, t1 - t0) for t0, t1 in setup_spans), "s"),
        "ms_per_image": (per_image, "ms"),
        "op_ms": (op_ms, "ms"),
        "heldout_cosine": (ctx.heldout_cosine(), "cosine"),
        "test_acc": (test_acc, "fraction"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer_units():
    units = {}
    for op in OP_HELPERS:
        units[f"tensor.{op}.calls_per_step"] = "count"
        units[f"tensor.{op}.ms_per_step"] = "ms"
    units["tensor.elementwise.ms_per_step"] = "ms"
    units["tensor.tape_nodes_per_step"] = "count"
    for kind in BACKWARD_KINDS:
        units[f"tensor.backward.{kind}.ms_per_step"] = "ms"
    units["tensor.backward.self_ms_per_step"] = "ms"
    units["nn.forward.ms_per_step"] = "ms"
    units["nn.forward.calls_per_step"] = "count"
    units["nn.forward.images_per_call"] = "images"
    units["nn.load_checkpoint.ms"] = "ms"
    units["losses.interpretable_loss.ms_per_step"] = "ms"
    units["losses.regularizer.ms_per_step"] = "ms"
    units["train.update.ms_per_step"] = "ms"
    units["train.evaluate_accuracy.ms_per_epoch"] = "ms"
    units["data.batch.ms_per_step"] = "ms"
    units["data.synthetic_shapes.ms"] = "ms"
    for m in METHODS:
        units[f"saliency.{m}.ms_per_image"] = "ms"
    for m in METHODS:
        units[f"metrics.{m}.ms_per_image"] = "ms"
        units[f"metrics.{m}.forward_images_per_image"] = "count"
    units["metrics.causal_curves.ms_per_image"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


def per_layer(ctx: Context, tracer: Tracer, traced_rounds, setup_range, overhead_pct):
    """Per-layer figures from the spans of the traced rounds. A step is one
    `train.train_step` call, or on eval_cam one evaluated held-out image;
    an epoch is one `igrad eval` run on eval_cam."""
    s = Spans(tracer)
    rnd = s.under("perfbench.round")
    step = s.is_("train.train_step") & rnd
    if ctx.is_eval:
        scope, n_steps, n_epochs = rnd, traced_rounds * EVAL_N, traced_rounds
        top = s.is_("perfbench.round")
    else:
        scope, n_steps, n_epochs = s.under("train.train_step") & rnd, int(np.sum(step)), traced_rounds * EPOCHS
        top = step

    def ms(mask, values=None):
        return 1000.0 * float(np.sum((s.dur if values is None else values)[mask]))

    def count(mask):
        return int(np.sum(mask))

    out = {}
    ops = s.matching("tensor.") & ~s.matching("tensor.backward") & scope
    named = np.zeros_like(ops)
    for op in OP_HELPERS:
        m = s.is_(f"tensor.{op}") & scope
        named |= m
        out[f"tensor.{op}.calls_per_step"] = count(m) / n_steps
        out[f"tensor.{op}.ms_per_step"] = ms(m, s.self_time) / n_steps
    out["tensor.elementwise.ms_per_step"] = ms(ops & ~named, s.self_time) / n_steps
    out["tensor.tape_nodes_per_step"] = float(np.sum(s.nodes[top])) / n_steps
    std = s.is_("tensor.backward.standard") & scope
    from_step = s.parent_is("train.train_step")
    kinds = {
        "graph": s.is_("tensor.backward.graph") & scope,
        "guided": s.is_("tensor.backward.guided") & scope,
        "params": std & from_step,
        "input": std & ~from_step,
    }
    for kind, m in kinds.items():
        out[f"tensor.backward.{kind}.ms_per_step"] = ms(m) / n_steps
    out["tensor.backward.self_ms_per_step"] = ms(s.matching("tensor.backward") & scope, s.self_time) / n_steps

    fwd = s.is_("nn.forward") & scope
    out["nn.forward.ms_per_step"] = ms(fwd) / n_steps
    out["nn.forward.calls_per_step"] = count(fwd) / n_steps
    out["nn.forward.images_per_call"] = float(np.sum(s.size[fwd])) / max(count(fwd), 1)
    load = s.is_("nn.load_checkpoint") & rnd
    out["nn.load_checkpoint.ms"] = ms(load) / max(count(load), 1)

    il = s.is_("losses.interpretable_loss") & scope
    out["losses.interpretable_loss.ms_per_step"] = ms(il) / n_steps
    # the regularizer is what interpretable_loss does after its guided backward
    guided = kinds["guided"] & s.parent_is("losses.interpretable_loss")
    out["losses.regularizer.ms_per_step"] = 1000.0 * float(np.sum(s.end[s.parent[guided]] - s.end[guided])) / n_steps
    under_step = (s.is_("losses.interpretable_loss") | kinds["params"]) & from_step & rnd
    out["train.update.ms_per_step"] = (ms(step) - ms(under_step)) / n_steps
    out["train.evaluate_accuracy.ms_per_epoch"] = ms(s.is_("train.evaluate_accuracy") & rnd) / n_epochs
    batch = s.is_("data.batch") & rnd
    if not ctx.is_eval:
        batch &= s.parent_is("train.fit")
    out["data.batch.ms_per_step"] = ms(batch) / n_steps
    lo, hi = setup_range
    in_setup = np.zeros(len(s.dur), dtype=bool)
    in_setup[lo:hi] = True
    out["data.synthetic_shapes.ms"] = ms(s.is_("data.synthetic_shapes") & in_setup)

    # eval_cam only: on the train workloads these spans do not occur and read 0
    for m in METHODS:
        out[f"saliency.{m}.ms_per_image"] = ms(s.is_(f"saliency.{m}") & rnd) / n_steps
    for m in METHODS:
        mine = s.under(f"metrics.{m}") & rnd
        out[f"metrics.{m}.ms_per_image"] = ms(s.is_(f"metrics.{m}") & mine) / n_steps
        out[f"metrics.{m}.forward_images_per_image"] = float(np.sum(s.size[s.is_("nn.forward") & mine])) / n_steps
    out["metrics.causal_curves.ms_per_image"] = ms(s.is_("metrics.causal_curves") & rnd) / n_steps
    out["trace.overhead_pct"] = overhead_pct
    return out


# --------------------------------------------------------------------------
# run

def _traced_rounds(ctx: Context, seconds):
    """Alternate plain and traced rounds; return the tracer, the traced
    set-up's span range, the number of traced rounds and the overhead."""
    tracer = Tracer()
    round_fn = tracer.wrap(run_round, "perfbench.round")
    tracer.install()
    try:
        lo = len(tracer)
        setup(ctx)
        setup_range = (lo, len(tracer))
    finally:
        tracer.uninstall()
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        if len(plain) <= len(traced):
            run_round(ctx)
            plain.append(ctx.round_spans[-1][2])
        else:
            tracer.install()
            try:
                round_fn(ctx)
            finally:
                tracer.uninstall()
            traced.append(ctx.round_spans[-1][2])
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return tracer, setup_range, len(traced), overhead


def run(workload, seed, seconds, trace, outdir: Path):
    """Run one workload; return the result object and the failed checks."""
    workdir = outdir / f"{workload}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(workload, seed, workdir, LAMBDA[workload])
    if not trace:
        ctx.speed = speed.Speed()
    setup_spans = []
    while len(setup_spans) < (SETUP_REPEATS_EVAL if ctx.is_eval else SETUP_REPEATS_TRAIN):
        if ctx.speed:
            ctx.speed.sample()
        t0 = time.perf_counter()
        setup(ctx)
        setup_spans.append((t0, time.perf_counter()))

    if trace:
        tracer, setup_range, n_traced, overhead = _traced_rounds(ctx, seconds)
        tracer.save(workdir / "spans.npz")
        layer = per_layer(ctx, tracer, n_traced, setup_range, overhead)
        values = {k: (layer[k], unit) for k, unit in per_layer_units().items()}
    else:
        with step_timer(ctx):
            # Whole rounds, and none that the last one's length says would end
            # past `seconds`: a train round takes 7-15 s.
            t_end = time.perf_counter() + seconds
            last = 0.0
            while ctx.rounds == 0 or time.perf_counter() + last <= t_end:
                t0 = time.perf_counter()
                run_round(ctx)
                last = time.perf_counter() - t0
                if ctx.rounds == 1:
                    # Peak over the set-ups and one round. Later rounds repeat
                    # the same work, but the heap they leave behind grows for
                    # the first few (train_plain: 148, 161, 178, 178 MB), so a
                    # peak over the whole run would count rounds, not memory.
                    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ctx.speed.sample()

    failures = []
    try:
        if ctx.is_eval:
            check_eval(ctx)
        else:
            check_training(ctx)
    except CheckFailed as e:
        failures.append(f"[{workload}] {e}")

    if not trace:
        values = end_to_end(ctx, setup_spans, rss_mb)
        raw = end_to_end(ctx, setup_spans, rss_mb, scaled=False)
        if ctx.step_spans:
            step_ms = [1000.0 * (t1 - t0) for t0, t1 in ctx.step_spans]
            p90 = statistics.quantiles(step_ms, n=10)[-1] if len(step_ms) >= 100 else float("nan")
            note = f"{len(step_ms)} train steps, unscaled p90 {p90:.2f} ms"
        else:
            note = f"{EVAL_N} images x {len(METHODS)} methods per igrad eval run"
        print(f"{workload}: {ctx.rounds} rounds, {note}; {len(ctx.speed.dur)} speed samples, "
              f"median {statistics.median(ctx.speed.dur):.4f} s (reference {speed.REF_S} s)", file=sys.stderr)
        print("unscaled: " + ", ".join(f"{k} {raw[k][0]:.4g} {raw[k][1]}" for k in ("setup_s", "ms_per_image", "op_ms")),
              file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": ctx.rounds * ctx.ops_per_round,
        "failed": 0,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()},
    }, failures
