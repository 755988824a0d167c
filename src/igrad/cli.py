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
from .train import DivergenceError, evaluate_accuracy, fit

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _open_output(cfg, command):
    """Make the output directory and write `<command>.resolved.json` in it;
    called once the command's last check has passed."""
    out = cfg["output"]["dir"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:  # its message names the path
        raise ConfigError(f"output.dir: {e}") from None
    cfgmod.write_resolved(cfg, os.path.join(out, f"{command}.resolved.json"))
    return out


def _load_model(cfg, checkpoint, test_set):
    """The checkpoint's model, with saliency.layer checked against its maps;
    the test split has the training split's image shape and classes."""
    model = nn.load_checkpoint(checkpoint, cfgmod.model_spec(cfg, test_set))
    try:
        model.resolve_layer(cfg["saliency"]["layer"])
    except ValueError as e:
        raise ConfigError(f"saliency.layer: {e}") from None
    return model


def cmd_train(args) -> int:
    cfg = cfgmod.load_config(args.config)
    tc = cfgmod.train_config(cfg, checkpoint_path=os.path.join(cfg["output"]["dir"], "model.ckpt"))
    train_set, test_set = cfgmod.build_datasets(cfg)
    model = nn.build_model(cfgmod.model_spec(cfg, train_set), cfg["model"]["seed"])
    out = _open_output(cfg, "train")
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
    test_set = cfgmod.build_test_split(cfg)
    curve_cfg = cfgmod.curve_config(cfg, test_set.pixels.shape[2])
    model = _load_model(cfg, args.checkpoint, test_set)
    out = _open_output(cfg, "eval")
    acc = evaluate_accuracy(model, test_set)
    print(f"accuracy: {acc:.4f} ({len(test_set)} images)")
    layer = cfg["saliency"]["layer"]
    policy = cfg["saliency"]["class_policy"]
    reports = []
    for name in cfg["saliency"]["methods"]:
        method = saliency.make_method(name)
        rep = metrics.faithfulness_report(
            model, test_set, method, layer=layer, class_policy=policy, curve_cfg=curve_cfg,
            keep_per_image=True,
        )
        reports.append(rep)
        print(
            f"{rep.method}: AD={rep.ad:.2f} AG={rep.ag:.2f} AI={rep.ai:.2f} "
            f"Ins={rep.insertion:.2f} Del={rep.deletion:.2f}"
        )
    csv_path = os.path.join(out, "metrics.csv")
    metrics.write_reports_csv(csv_path, reports)
    print(f"report: {csv_path}")
    jsonl_path = os.path.join(out, "per_image.jsonl")
    metrics.write_per_image_jsonl(jsonl_path, test_set.labels, reports)
    print(f"per-image records: {jsonl_path}")
    return EXIT_OK


def cmd_saliency(args) -> int:
    cfg = cfgmod.load_config(args.config)
    try:
        ids = [int(v) for v in args.ids.split(",")]
    except ValueError:
        raise ConfigError(f"--ids must be comma-separated integers, got {args.ids!r}")
    test_set = cfgmod.build_test_split(cfg)
    for i in ids:
        if not 0 <= i < len(test_set):
            raise ConfigError(f"--ids: id {i} out of range for {len(test_set)} images")
    model = _load_model(cfg, args.checkpoint, test_set)
    out = _open_output(cfg, "saliency")
    layer = cfg["saliency"]["layer"]
    for i in ids:
        x_raw = test_set.pixels[i]
        (c,), _ = metrics.target_class(model, test_set, [i], cfg["saliency"]["class_policy"])
        for name in cfg["saliency"]["methods"]:
            method = saliency.make_method(name)
            smap = saliency.saliency_for(
                model, x_raw, c, layer, method, prep=test_set.normalize
            )
            path = os.path.join(out, f"img{i:05d}_{name}.ppm")
            data.write_overlay(path, x_raw, smap.normalized)
            print(path)
        gmaps = saliency.input_gradient_maps(model, test_set.normalize(x_raw), c)
        for tag, gmap in zip(("standard", "guided"), gmaps):
            path = os.path.join(out, f"img{i:05d}_grad_{tag}.pgm")
            data.write_pgm(path, gmap)
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


def _count(text) -> int:
    """An argparse type: an integer of at least 1, so a suite checks something."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="igrad", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    tp = sub.add_parser("train", help="train a model from a JSON config")
    tp.add_argument("config")
    tp.set_defaults(fn=cmd_train)

    ep = sub.add_parser("eval", help="evaluate saliency metrics for a checkpoint")
    ep.add_argument("config")
    ep.add_argument("checkpoint")
    ep.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("saliency", help="export saliency overlays and gradient maps")
    sp.add_argument("config")
    sp.add_argument("checkpoint")
    sp.add_argument("--ids", required=True, help="comma-separated image ids")
    sp.set_defaults(fn=cmd_saliency)

    gp = sub.add_parser("gradcheck", help="run the engine verification suites")
    gp.add_argument("--seeds", type=_count, default=50)
    gp.add_argument("--nets", type=_count, default=100)
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
