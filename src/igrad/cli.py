"""Command-line entry point.

Subcommands: train, eval, saliency, gradcheck. Exit codes: 0 ok,
1 verification failure, 2 usage/config error, 3 training divergence.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config as cfgmod
from . import data, gradcheck, metrics, nn, saliency
from .config import ConfigError
from .nn import CheckpointError
from .tensor import GradMode
from .train import DivergenceError, evaluate_accuracy, fit

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _prepare(cfg, command):
    """Make the output directory and write `<command>.resolved.json` in it;
    return it with both splits and the model spec."""
    out = cfg["output"]["dir"]
    os.makedirs(out, exist_ok=True)
    cfgmod.write_resolved(cfg, os.path.join(out, f"{command}.resolved.json"))
    train_set, test_set = cfgmod.build_datasets(cfg)
    return out, train_set, test_set, cfgmod.model_spec(cfg, train_set)


def cmd_train(args) -> int:
    cfg = cfgmod.load_config(args.config)
    out, train_set, test_set, spec = _prepare(cfg, "train")
    model = nn.build_model(spec, cfg["model"]["seed"])
    tc = cfgmod.train_config(cfg, checkpoint_path=os.path.join(out, "model.ckpt"))
    log = fit(model, train_set, test_set, tc)
    log.write_csv(os.path.join(out, "train_log.csv"))
    last = log.records[-1]
    print(
        f"trained {model.spec.name}: {last.epoch} epochs, "
        f"train_acc={last.train_acc:.4f} test_acc={last.test_acc:.4f}"
    )
    print(f"checkpoint: {tc.checkpoint_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = cfgmod.load_config(args.config)
    if args.class_policy:
        cfg["saliency"]["class_policy"] = args.class_policy
    out, _, test_set, spec = _prepare(cfg, "eval")
    model = nn.load_checkpoint(args.checkpoint, spec)
    acc = evaluate_accuracy(model, test_set)
    print(f"accuracy: {acc:.4f} ({len(test_set)} images)")
    hw = test_set.images[0].pixels.shape[1]
    curve_cfg = cfgmod.curve_config(cfg, hw)
    layer = cfg["saliency"]["layer"]
    policy = cfg["saliency"]["class_policy"]
    reports = []
    for name in cfg["saliency"]["methods"]:
        method = saliency.make_method(name)
        rep = metrics.faithfulness_report(
            model, test_set, method, layer=layer, class_policy=policy, curve_cfg=curve_cfg
        )
        reports.append(rep)
        print(
            f"{rep.method}: AD={rep.ad:.2f} AG={rep.ag:.2f} AI={rep.ai:.2f} "
            f"Ins={rep.insertion:.2f} Del={rep.deletion:.2f}"
        )
    csv_path = os.path.join(out, "metrics.csv")
    metrics.write_reports_csv(csv_path, reports)
    print(f"report: {csv_path}")
    return EXIT_OK


def cmd_saliency(args) -> int:
    cfg = cfgmod.load_config(args.config)
    out, _, test_set, spec = _prepare(cfg, "saliency")
    model = nn.load_checkpoint(args.checkpoint, spec)
    try:
        ids = [int(v) for v in args.ids.split(",") if v]
    except ValueError:
        raise ConfigError(f"--ids must be comma-separated integers, got {args.ids!r}")
    for i in ids:
        if not 0 <= i < len(test_set):
            raise ConfigError(f"id {i} out of range for {len(test_set)} images")
    layer = cfg["saliency"]["layer"]
    for i in ids:
        x_raw = test_set.images[i].pixels
        x_norm = test_set.normalize(x_raw)
        c, _ = metrics.target_class(model, test_set, i, cfg["saliency"]["class_policy"])
        for name in cfg["saliency"]["methods"]:
            method = saliency.make_method(name)
            smap = saliency.saliency_for(
                model, x_raw, c, layer, method, prep=test_set.normalize
            )
            path = os.path.join(out, f"img{i:05d}_{name}.ppm")
            data.write_image(path, "ppm_overlay", (x_raw, smap.normalized))
            print(path)
        for mode, tag in ((GradMode.STANDARD, "standard"), (GradMode.GUIDED, "guided")):
            gmap = saliency.input_gradient_map(model, x_norm, c, mode)
            path = os.path.join(out, f"img{i:05d}_grad_{tag}.pgm")
            data.write_image(path, "pgm_gray", gmap)
            print(path)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    rep = gradcheck.run_all(seeds=args.seeds, nets=args.nets)
    width = max(len(k) for k in rep.op_errors)
    for kind, err in sorted(rep.op_errors.items()):
        flag = "ok" if err <= 1.0 else "FAIL"
        print(f"{kind:<{width}}  max scaled err {err:10.4g}  {flag}")
    print(f"double backward: max scaled err {rep.double_backward_error:.4g}")
    print(f"guided relu emissions: min {rep.guided_min_emitted:.4g}")
    print(f"guided==standard on positive path: {rep.guided_positive_path_equal}")
    if rep.failures:
        print(f"FAILED: {', '.join(rep.failures)}")
        return EXIT_VERIFY
    print("all gradient checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="igrad", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    tp = sub.add_parser("train", help="train a model from a JSON config")
    tp.add_argument("config")
    tp.set_defaults(fn=cmd_train)

    ep = sub.add_parser("eval", help="evaluate saliency metrics for a checkpoint")
    ep.add_argument("config")
    ep.add_argument("checkpoint")
    ep.add_argument("--class-policy", choices=("predicted", "ground_truth"))
    ep.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("saliency", help="export saliency overlays and gradient maps")
    sp.add_argument("config")
    sp.add_argument("checkpoint")
    sp.add_argument("--ids", required=True, help="comma-separated image ids")
    sp.set_defaults(fn=cmd_saliency)

    gp = sub.add_parser("gradcheck", help="run the engine verification suites")
    gp.add_argument("--seeds", type=int, default=50)
    gp.add_argument("--nets", type=int, default=100)
    gp.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
