"""Run configuration: a strict JSON document with dataset/model/train/
saliency/metrics/output sections. Unknown keys are rejected with the full
dotted path so typos in sweep scripts fail fast."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

from . import data, nn
from .losses import ErrorFnKind
from .metrics import CurveConfig, default_curve_config
from .train import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Field:
    kind: str  # int | float | str | bool | int_list | float_list | str_list
    required: bool = False
    default: object = None
    choices: tuple | None = None


_SCHEMA = {
    "dataset": {
        "kind": Field("str", required=True, choices=("synthetic", "cifar10", "cifar100")),
        "path": Field("str"),
        "test_path": Field("str"),
        "n_train": Field("int", default=2000),
        "n_test": Field("int", default=400),
        "hw": Field("int", default=16),
        "seed": Field("int", default=11),
        "mean": Field("float_list"),
        "std": Field("float_list"),
        "augment": Field("bool"),
    },
    "model": {
        "architecture": Field("str", required=True, choices=("tinycnn", "miniresnet")),
        "widths": Field("int_list", default=[8, 16]),
        "width": Field("int", default=12),
        "seed": Field("int", default=0),
    },
    "train": {
        "epochs": Field("int", required=True),
        "batch_size": Field("int", default=64),
        "base_lr": Field("float", default=0.05),
        "lr_decay_epochs": Field("int_list", default=[15, 22]),
        "lr_decay_factor": Field("float", default=5.0),
        "momentum": Field("float", default=0.9),
        "weight_decay": Field("float", default=5e-4),
        "lambda": Field("float", default=0.0),
        "error_fn": Field("str", default="cosine", choices=("mae", "mse", "cosine", "hist")),
        "seed": Field("int", default=0),
        "checkpoint_every": Field("int"),
    },
    "saliency": {
        "methods": Field("str_list", default=["gradcam"]),
        "layer": Field("str", default="last_conv"),
        "class_policy": Field("str", default="predicted", choices=("predicted", "ground_truth")),
    },
    "metrics": {
        "pixels_per_step": Field("int"),
        "steps": Field("int"),
        "blur_kernel": Field("int", default=5),
        "blur_sigma": Field("float", default=2.0),
        "fill": Field("float", default=0.0),
    },
    "output": {
        "dir": Field("str", default="out"),
    },
}


# JSON true/false are Python ints, so numbers exclude bool
_SCALAR = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}


def _check_type(value, field: Field, path: str):
    kind = field.kind
    item = kind.removesuffix("_list")
    if kind == item:
        ok = _SCALAR[kind](value)
    else:
        ok = isinstance(value, list) and all(_SCALAR[item](v) for v in value)
    if not ok:
        raise ConfigError(f"{path}: expected {kind}, got {value!r}")
    # json.load reads NaN, Infinity and ints of any size; NaN fails the comparison
    nums = value if kind == "float_list" else [value] if kind == "float" else []
    if not all(abs(v) <= sys.float_info.max for v in nums):
        raise ConfigError(f"{path}: expected finite numbers, got {value!r}")
    if field.choices and value not in field.choices:
        raise ConfigError(f"{path}: {value!r} not one of {field.choices}")
    return float(value) if kind == "float" else value


def validate_config(doc: dict) -> dict:
    """Check the document against the schema; returns the resolved config
    with every default filled in."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for section in doc:
        if section not in _SCHEMA:
            raise ConfigError(f"unknown key {section}")
    resolved = {}
    for section, fields in _SCHEMA.items():
        sub = doc.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"{section}: expected an object")
        for key in sub:
            if key not in fields:
                raise ConfigError(f"unknown key {section}.{key}")
        out = {}
        for key, field in fields.items():
            if key in sub and sub[key] is not None:
                out[key] = _check_type(sub[key], field, f"{section}.{key}")
            elif field.required:
                raise ConfigError(f"missing required key {section}.{key}")
            else:
                out[key] = field.default
        resolved[section] = out
    return resolved


def load_config(path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    cfg = validate_config(doc)
    _check_paths(cfg)
    return cfg


def _check_paths(cfg: dict):
    """Referenced input paths must exist before any compute starts."""
    ds = cfg["dataset"]
    if ds["kind"] in ("cifar10", "cifar100"):
        if not ds["path"]:
            raise ConfigError("missing required key dataset.path")
        for key in ("path", "test_path"):
            if ds[key] and not os.path.exists(ds[key]):
                raise ConfigError(f"dataset.{key}: no such file {ds[key]!r}")


def write_resolved(cfg: dict, path):
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


def build_datasets(cfg: dict):
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":
        train_split = data.synthetic_shapes(ds["n_train"], hw=ds["hw"], seed=ds["seed"])
        test_split = data.synthetic_shapes(ds["n_test"], hw=ds["hw"], seed=ds["seed"] + 1000)
        test_split.mean, test_split.std = train_split.mean, train_split.std
    else:
        augment = True if ds["augment"] is None else ds["augment"]
        train_split = data.parse_cifar(
            ds["path"], ds["kind"], mean=ds["mean"], std=ds["std"], augment=augment
        )
        if ds["test_path"]:
            test_split = data.parse_cifar(
                ds["test_path"], ds["kind"], mean=ds["mean"], std=ds["std"]
            )
        else:
            test_split = train_split
    if ds["augment"] is not None:
        train_split.augment = ds["augment"]
    return train_split, test_split


def model_spec(cfg: dict, dataset) -> nn.ArchitectureSpec:
    mc = cfg["model"]
    input_shape = dataset.images[0].pixels.shape
    if mc["architecture"] == "tinycnn":
        return nn.tinycnn(input_shape, dataset.num_classes, tuple(mc["widths"]))
    return nn.miniresnet(input_shape, dataset.num_classes, mc["width"])


def train_config(cfg: dict, checkpoint_path=None) -> TrainConfig:
    tc = cfg["train"]
    return TrainConfig(
        epochs=tc["epochs"],
        batch_size=tc["batch_size"],
        base_lr=tc["base_lr"],
        lr_decay_epochs=tuple(tc["lr_decay_epochs"]),
        lr_decay_factor=tc["lr_decay_factor"],
        momentum=tc["momentum"],
        weight_decay=tc["weight_decay"],
        lam=tc["lambda"],
        error_kind=ErrorFnKind(tc["error_fn"]),
        seed=tc["seed"],
        checkpoint_path=checkpoint_path,
        checkpoint_every=tc["checkpoint_every"],
    )


def curve_config(cfg: dict, hw: int) -> CurveConfig:
    mc = cfg["metrics"]
    pps = mc["pixels_per_step"] or default_curve_config(hw).pixels_per_step
    steps = mc["steps"] or -(-(hw * hw) // pps)
    return CurveConfig(
        pixels_per_step=pps,
        steps=steps,
        blur_kernel=mc["blur_kernel"],
        blur_sigma=mc["blur_sigma"],
        fill=mc["fill"],
    )
