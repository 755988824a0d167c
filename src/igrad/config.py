"""Run configuration: a strict JSON document with dataset/model/train/
saliency/metrics/output sections. Unknown keys are rejected with the full
dotted path so typos in sweep scripts fail fast."""

from __future__ import annotations

import copy
import json
import os
import sys
from dataclasses import dataclass

from . import data, nn
from .losses import ErrorFnKind
from .metrics import CLASS_POLICIES, CurveConfig
from .saliency import METHODS
from .train import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Field:
    kind: str  # int | float | str | bool | int_list | float_list | str_list
    required: bool = False
    default: object = None
    choices: tuple | None = None  # a list field checks each item


_RECIPE = TrainConfig()  # the train section's defaults

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
        "batch_size": Field("int", default=_RECIPE.batch_size),
        "base_lr": Field("float", default=_RECIPE.base_lr),
        "lr_decay_epochs": Field("int_list", default=list(_RECIPE.lr_decay_epochs)),
        "lr_decay_factor": Field("float", default=_RECIPE.lr_decay_factor),
        "momentum": Field("float", default=_RECIPE.momentum),
        "weight_decay": Field("float", default=_RECIPE.weight_decay),
        "lambda": Field("float", default=_RECIPE.lam),
        "error_fn": Field(
            "str", default=_RECIPE.error_kind.value, choices=tuple(k.value for k in ErrorFnKind)
        ),
        "seed": Field("int", default=_RECIPE.seed),
    },
    "saliency": {
        "methods": Field("str_list", default=["gradcam"], choices=tuple(METHODS)),
        "layer": Field("str", default="last_conv"),
        "class_policy": Field("str", default="predicted", choices=CLASS_POLICIES),
    },
    "metrics": {
        "pixels_per_step": Field("int"),
        "blur_kernel": Field("int", default=CurveConfig.blur_kernel),
        "blur_sigma": Field("float", default=CurveConfig.blur_sigma),
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
    items = [value] if kind == item else value
    if not (isinstance(items, list) and all(_SCALAR[item](v) for v in items)):
        raise ConfigError(f"{path}: expected {kind}, got {value!r}")
    # json.load reads NaN, Infinity and ints of any size; NaN fails the comparison
    if item == "float" and not all(abs(v) <= sys.float_info.max for v in items):
        raise ConfigError(f"{path}: expected finite numbers, got {value!r}")
    for v in items:
        if field.choices and v not in field.choices:
            raise ConfigError(f"{path}: {v!r} not one of {field.choices}")
    if kind != item:  # a copy, so that the resolved config does not share the document's list
        return list(value)
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
            else:  # a copy, so that editing a resolved list leaves the schema's alone
                out[key] = copy.copy(field.default)
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
        for key in ("path", "test_path"):
            if not ds[key]:
                raise ConfigError(f"missing required key dataset.{key}")
            if not os.path.exists(ds[key]):
                raise ConfigError(f"dataset.{key}: no such file {ds[key]!r}")


def write_resolved(cfg: dict, path):
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


def build_datasets(cfg: dict):
    """The train and test splits. Training augments CIFAR and not synthetic
    data, unless dataset.augment says otherwise."""
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":
        train_split = _synthetic(ds, "n_train", ds["seed"])
        test_split = _synthetic(ds, "n_test", ds["seed"] + 1000)
        test_split.mean, test_split.std = train_split.mean, train_split.std
    else:
        train_split, test_split = (
            data.parse_cifar(ds[key], ds["kind"], mean=ds["mean"], std=ds["std"])
            for key in ("path", "test_path")
        )
    train_split.augment = ds["kind"] != "synthetic" if ds["augment"] is None else ds["augment"]
    return train_split, test_split


def _synthetic(ds: dict, n_key: str, seed: int):
    """A synthetic split of ds[n_key] images; a bad size names its key."""
    try:
        return data.synthetic_shapes(ds[n_key], hw=ds["hw"], seed=seed)
    except ValueError as e:  # synthetic_shapes' messages start with its argument, n or hw
        arg, _, rule = str(e).partition(" ")
        raise ConfigError(f"dataset.{n_key if arg == 'n' else arg} {rule}") from None


def model_spec(cfg: dict, dataset) -> nn.ArchitectureSpec:
    mc = cfg["model"]
    input_shape = dataset.pixels.shape[1:]
    if mc["architecture"] == "tinycnn":
        return nn.tinycnn(input_shape, dataset.num_classes, tuple(mc["widths"]))
    return nn.miniresnet(input_shape, dataset.num_classes, mc["width"])


def train_config(cfg: dict, checkpoint_path=None) -> TrainConfig:
    tc = cfg["train"]
    try:
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
        )
    except ValueError as e:  # TrainConfig's messages start with the config key
        raise ConfigError(f"train.{e}") from None


def curve_config(cfg: dict, hw: int) -> CurveConfig:
    mc = cfg["metrics"]
    try:
        return CurveConfig(
            pixels_per_step=hw if mc["pixels_per_step"] is None else mc["pixels_per_step"],
            blur_kernel=mc["blur_kernel"],
            blur_sigma=mc["blur_sigma"],
        )
    except ValueError as e:  # CurveConfig's messages start with the field name
        raise ConfigError(f"metrics.{e}") from None
