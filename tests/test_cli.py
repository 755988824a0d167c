"""End-to-end CLI tests on tiny synthetic configurations."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from igrad import config, data, nn
from igrad.cli import main
from igrad.config import ConfigError, build_datasets, load_config, model_spec, validate_config
from igrad.gradcheck import corrupted_backward
from igrad.saliency import input_gradient_maps


def tiny_config(tmp_path, **train_overrides):
    cfg = {
        "dataset": {"kind": "synthetic", "n_train": 48, "n_test": 16, "hw": 8, "seed": 3},
        "model": {"architecture": "tinycnn", "widths": [4, 6], "seed": 1},
        "train": {"epochs": 2, "batch_size": 16, "base_lr": 0.05, "lambda": 0.0},
        "saliency": {"methods": ["gradcam"], "layer": "last_conv"},
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg["train"].update(train_overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def cifar10_file(path, labels, seed):
    """A CIFAR-10 batch file of random images, one per label."""
    rng = np.random.default_rng(seed)
    images = [data.LabeledImage(rng.integers(0, 256, (3, 32, 32)) / 255.0, y) for y in labels]
    path.write_bytes(b"".join(data.serialize_cifar_record(im, "cifar10") for im in images))
    return str(path)


class TestConfigValidation:
    def test_missing_epochs_path_in_message(self, tmp_path):
        path, cfg = tiny_config(tmp_path)
        doc = json.loads(path.read_text())
        del doc["train"]["epochs"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="train.epochs"):
            load_config(path)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="train.lamda"):
            validate_config(
                {
                    "dataset": {"kind": "synthetic"},
                    "model": {"architecture": "tinycnn"},
                    "train": {"epochs": 1, "lamda": 0.5},
                }
            )

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown key trainer"):
            validate_config({"trainer": {}})

    def test_bad_choice(self):
        with pytest.raises(ConfigError, match="dataset.kind"):
            validate_config(
                {"dataset": {"kind": "imagenet"}, "model": {"architecture": "tinycnn"},
                 "train": {"epochs": 1}}
            )

    def test_missing_cifar_path(self):
        with pytest.raises(ConfigError, match="dataset.path"):
            load_cfg = validate_config(
                {"dataset": {"kind": "cifar10"}, "model": {"architecture": "tinycnn"},
                 "train": {"epochs": 1}}
            )
            from igrad.config import _check_paths

            _check_paths(load_cfg)

    def test_exit_code_2_on_config_error(self, tmp_path, capsys):
        path, _ = tiny_config(tmp_path)
        doc = json.loads(path.read_text())
        del doc["train"]["epochs"]
        path.write_text(json.dumps(doc))
        assert main(["train", str(path)]) == 2
        assert "train.epochs" in capsys.readouterr().err

    def test_nan_float_exit_2_naming_the_key(self, tmp_path, capsys):
        # json.dumps writes NaN, and json.load reads it back as a float
        path, _ = tiny_config(tmp_path, base_lr=float("nan"))
        assert '"base_lr": NaN' in path.read_text()
        assert main(["train", str(path)]) == 2
        assert "train.base_lr" in capsys.readouterr().err

    def test_non_finite_float_list_entry_rejected(self):
        # Infinity, and an int past the float range, which float() cannot convert
        for entry in ("Infinity", "1" + "0" * 400):
            doc = json.loads(
                '{"dataset": {"kind": "synthetic", "std": [%s, 1, 1]},'
                ' "model": {"architecture": "tinycnn"}, "train": {"epochs": 1}}' % entry
            )
            with pytest.raises(ConfigError, match="dataset.std"):
                validate_config(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [("model", "widths", [True, 8]), ("dataset", "mean", [0.5, False, 0.5])],
    )
    def test_boolean_list_entry_rejected(self, section, key, value):
        doc = {"dataset": {"kind": "synthetic"}, "model": {"architecture": "tinycnn"},
               "train": {"epochs": 1}}
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}: expected"):
            validate_config(doc)

    def test_list_items_checked_against_choices(self):
        doc = {"dataset": {"kind": "synthetic"}, "model": {"architecture": "tinycnn"},
               "train": {"epochs": 1}, "saliency": {"methods": ["gradcam", "scorecam"]}}
        assert validate_config(doc)["saliency"]["methods"] == ["gradcam", "scorecam"]
        doc["saliency"]["methods"] = ["gradcam", "gradcm"]
        with pytest.raises(ConfigError, match="saliency.methods: 'gradcm' not one of"):
            validate_config(doc)

    def test_resolved_lists_are_copies_of_the_defaults(self):
        doc = {"dataset": {"kind": "synthetic"}, "model": {"architecture": "tinycnn"},
               "train": {"epochs": 1}}
        first = validate_config(doc)
        first["saliency"]["methods"].append("scorecam")
        first["model"]["widths"][0] = 99
        first["train"]["lr_decay_epochs"].clear()
        again = validate_config(doc)
        assert again["saliency"]["methods"] == ["gradcam"]
        assert again["model"]["widths"] == [8, 16]
        assert again["train"]["lr_decay_epochs"] == [15, 22]

    def test_resolved_lists_are_copies_of_the_document(self):
        doc = {"dataset": {"kind": "synthetic"},
               "model": {"architecture": "tinycnn", "widths": [4, 6]}, "train": {"epochs": 1}}
        resolved = validate_config(doc)
        assert resolved["model"]["widths"] is not doc["model"]["widths"]
        resolved["model"]["widths"][0] = 99
        assert doc["model"]["widths"] == [4, 6]

    @pytest.mark.parametrize(
        "section, key, value", [("train", "checkpoint_every", 1), ("metrics", "fill", 0.0)]
    )
    def test_removed_keys_exit_2_as_unknown(self, tmp_path, capsys, section, key, value):
        path, _ = tiny_config(tmp_path)
        doc = json.loads(path.read_text())
        doc.setdefault(section, {})[key] = value
        path.write_text(json.dumps(doc))
        assert main(["train", str(path)]) == 2
        assert f"unknown key {section}.{key}" in capsys.readouterr().err

    def test_cifar_without_test_path_exit_2(self, tmp_path, capsys):
        path, _ = tiny_config(tmp_path)
        doc = json.loads(path.read_text())
        train_file = cifar10_file(tmp_path / "train.bin", [0, 1], 0)
        doc["dataset"] = {"kind": "cifar10", "path": train_file}
        path.write_text(json.dumps(doc))
        assert main(["train", str(path)]) == 2
        assert "missing required key dataset.test_path" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.ckpt").exists()

    def test_empty_cifar_file_exit_2_naming_the_path(self, tmp_path, capsys):
        path, _ = tiny_config(tmp_path)
        doc = json.loads(path.read_text())
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        test_file = cifar10_file(tmp_path / "test.bin", [0, 1], 1)
        doc["dataset"] = {"kind": "cifar10", "path": str(empty), "test_path": test_file}
        path.write_text(json.dumps(doc))
        assert main(["train", str(path)]) == 2
        assert f"{empty}: no records" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.ckpt").exists()

    def test_readme_config_example_is_valid(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        validate_config(json.loads(example))

    @pytest.mark.parametrize(
        "key, value, rule",
        [("lambda", -1, ">= 0"), ("epochs", 0, ">= 1"), ("batch_size", 0, ">= 1"),
         ("base_lr", 0, "positive"), ("lr_decay_factor", 1, "> 1")],
    )
    def test_bad_train_value_exit_2_before_any_output(self, tmp_path, capsys, key, value, rule):
        path, _ = tiny_config(tmp_path, **{key: value})
        assert main(["train", str(path)]) == 2
        assert f"error: train.{key} must be {rule}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_block_width_exit_2_naming_the_block(self, tmp_path, capsys):
        path, _ = tiny_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["model"]["widths"] = [0, 6]
        path.write_text(json.dumps(doc))
        assert main(["train", str(path)]) == 2
        assert "block1:" in capsys.readouterr().err


class TestNoOutputOnError:
    @pytest.mark.parametrize(
        "command, section, key, value, named",
        [
            ("train", "dataset", "n_test", 0, "dataset.n_test"),
            ("eval", "dataset", "hw", 4, "dataset.hw"),
            ("eval", "metrics", "blur_sigma", 0.0, "metrics.blur_sigma"),
            ("saliency", None, None, None, "--ids"),
            ("train", "model", "widths", [0, 6], "block1:"),
            ("eval", "saliency", "layer", "block9", "saliency.layer"),
        ],
        ids=["n_test", "hw", "blur_sigma", "ids", "widths", "layer"],
    )
    def test_exit_2_before_the_output_directory(
        self, tmp_path, capsys, command, section, key, value, named
    ):
        path, _ = tiny_config(tmp_path)
        ckpt = tmp_path / "out" / "model.ckpt"
        if command != "train":
            main(["train", str(path)])
        doc = json.loads(path.read_text())
        doc["output"]["dir"] = str(tmp_path / "fresh")
        if section:
            doc.setdefault(section, {})[key] = value
        path.write_text(json.dumps(doc))
        argv = {
            "train": ["train", str(path)],
            "eval": ["eval", str(path), str(ckpt)],
            "saliency": ["saliency", str(path), str(ckpt), "--ids", "0,99"],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()


class TestBuildDatasets:
    def test_cifar10_test_split_and_augmentation(self, tmp_path):
        doc = {
            "dataset": {
                "kind": "cifar10",
                "path": cifar10_file(tmp_path / "train.bin", [0, 1, 2], 0),
                "test_path": cifar10_file(tmp_path / "test.bin", [7, 9], 1),
            },
            "model": {"architecture": "tinycnn"},
            "train": {"epochs": 1},
        }
        train_set, test_set = build_datasets(validate_config(doc))
        assert train_set.labels.tolist() == [0, 1, 2]
        assert test_set.labels.tolist() == [7, 9]
        assert train_set.augment and not test_set.augment
        doc["dataset"]["augment"] = False
        train_set, _ = build_datasets(validate_config(doc))
        assert not train_set.augment

    def test_miniresnet_spec_takes_the_width(self):
        doc = {"dataset": {"kind": "synthetic", "n_train": 8, "n_test": 4, "hw": 8},
               "model": {"architecture": "miniresnet", "width": 5}, "train": {"epochs": 1}}
        cfg = validate_config(doc)
        spec = model_spec(cfg, build_datasets(cfg)[0])
        assert [b.out_channels for b in spec.blocks] == [5, 5, 5]
        assert spec.name == "miniresnet-3x8x8-c4-w5"


class TestCifarEndToEnd:
    def test_train_eval_saliency_on_32px_cifar(self, tmp_path, monkeypatch):
        path, _ = tiny_config(tmp_path, epochs=1, batch_size=4)
        doc = json.loads(path.read_text())
        doc["dataset"] = {
            "kind": "cifar10",
            "path": cifar10_file(tmp_path / "train.bin", [0, 1, 2, 3, 4, 5, 6, 7], 0),
            "test_path": cifar10_file(tmp_path / "test.bin", [3, 8, 9], 1),
        }
        doc["saliency"]["methods"] = ["gradcam", "scorecam"]
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["train", str(path)]) == 0
        assert len(read_csv(out / "train_log.csv")) == 1

        curve_hw = []
        curve_config = config.curve_config
        monkeypatch.setattr(
            config, "curve_config", lambda c, hw: curve_hw.append(hw) or curve_config(c, hw)
        )
        assert main(["eval", str(path), str(out / "model.ckpt")]) == 0
        assert curve_hw == [32]
        rows = read_csv(out / "metrics.csv")
        assert [r["method"] for r in rows] == ["gradcam", "scorecam"]
        assert all(r["n"] == "3" and float(r["insertion"]) >= 0.0 for r in rows)

        assert main(["saliency", str(path), str(out / "model.ckpt"), "--ids", "0"]) == 0
        names = sorted(p.name for p in out.glob("img00000_*"))
        assert names == [
            "img00000_grad_guided.pgm",
            "img00000_grad_standard.pgm",
            "img00000_gradcam.ppm",
            "img00000_scorecam.ppm",
        ]
        assert (out / "img00000_gradcam.ppm").read_bytes().startswith(b"P6\n32 32\n255\n")


class TestCmdTrain:
    def test_full_run_outputs(self, tmp_path):
        path, cfg = tiny_config(tmp_path)
        assert main(["train", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "model.ckpt").exists()
        assert (out / "train_log.csv").exists()
        assert (out / "train.resolved.json").exists()
        resolved = json.loads((out / "train.resolved.json").read_text())
        assert resolved["train"]["epochs"] == 2
        assert resolved["train"]["momentum"] == 0.9  # default filled in

    def test_lambda_zero_loss_r_all_zero(self, tmp_path):
        path, cfg = tiny_config(tmp_path)
        main(["train", str(path)])
        rows = read_csv(tmp_path / "out" / "train_log.csv")
        assert len(rows) == 2
        assert all(float(r["loss_r"]) == 0.0 for r in rows)

    def test_paired_runs_identical_modulo_walltime(self, tmp_path):
        path, _ = tiny_config(tmp_path)
        main(["train", str(path)])
        first = read_csv(tmp_path / "out" / "train_log.csv")
        ckpt1 = (tmp_path / "out" / "model.ckpt").read_bytes()
        main(["train", str(path)])
        second = read_csv(tmp_path / "out" / "train_log.csv")
        ckpt2 = (tmp_path / "out" / "model.ckpt").read_bytes()
        assert ckpt1 == ckpt2
        for a, b in zip(first, second):
            a.pop("seconds")
            b.pop("seconds")
            assert a == b

    def test_divergence_exit_3_names_the_parameter(self, tmp_path, capsys):
        # the largest finite lr overflows the first update
        path, _ = tiny_config(tmp_path, batch_size=2, base_lr=float(np.finfo(np.float64).max))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", str(path)]) == 3
        err = capsys.readouterr().err
        assert "non-finite parameter" in err and "(epoch 1, step 0)" in err

    def test_config_not_mutated(self, tmp_path):
        path, _ = tiny_config(tmp_path)
        before = path.read_bytes()
        main(["train", str(path)])
        assert path.read_bytes() == before


class TestCmdEval:
    @pytest.fixture
    def trained(self, tmp_path):
        path, cfg = tiny_config(tmp_path)
        json_doc = json.loads(path.read_text())
        json_doc["saliency"]["methods"] = ["gradcam", "scorecam"]
        path.write_text(json.dumps(json_doc))
        main(["train", str(path)])
        return path, tmp_path / "out" / "model.ckpt", tmp_path

    def test_one_row_per_method(self, trained, capsys):
        path, ckpt, tmp_path = trained
        assert main(["eval", str(path), str(ckpt)]) == 0
        rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert [r["method"] for r in rows] == ["gradcam", "scorecam"]
        assert all(r["class_policy"] == "predicted" for r in rows)
        assert "accuracy" in capsys.readouterr().out

    def test_builds_only_the_checkpoint_model(self, trained, monkeypatch):
        # the spec comes from the config without initialising a model
        path, ckpt, _ = trained
        built = []
        build = nn.build_model
        monkeypatch.setattr(nn, "build_model", lambda *a: built.append(a) or build(*a))
        assert main(["eval", str(path), str(ckpt)]) == 0
        assert len(built) == 1

    def test_class_policy_echoed(self, trained):
        path, ckpt, tmp_path = trained
        doc = json.loads(path.read_text())
        doc["saliency"]["class_policy"] = "ground_truth"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), str(ckpt)]) == 0
        rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert all(r["class_policy"] == "ground_truth" for r in rows)

    def test_class_policy_flag_is_a_usage_error(self, trained, capsys):
        path, ckpt, _ = trained
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(path), str(ckpt), "--class-policy", "ground_truth"])
        assert exc.value.code == 2
        assert "--class-policy" in capsys.readouterr().err

    def test_zero_probability_fails_naming_the_image(self, trained, capsys):
        # the policy: a zero ground-truth probability fails the whole eval,
        # naming the image; no image is ever skipped
        path, ckpt, _ = trained
        model = nn.load_checkpoint(ckpt)
        model.param_by_name("head.w").data[:] = 0.0
        model.param_by_name("head.b").data[:] = -1e4  # exp(-1e4) underflows to 0
        model.param_by_name("head.b").data[0] = 0.0
        nn.save_checkpoint(model, ckpt)
        doc = json.loads(path.read_text())
        doc["saliency"]["class_policy"] = "ground_truth"
        path.write_text(json.dumps(doc))
        _, test_set = build_datasets(load_config(path))
        first = next(i for i, img in enumerate(test_set.images) if img.label != 0)
        assert main(["eval", str(path), str(ckpt)]) == 2
        assert f"image {first}:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("blur_sigma", 0.0), ("blur_kernel", -1)])
    def test_bad_blur_exit_2(self, trained, capsys, key, value):
        path, ckpt, tmp_path = trained
        doc = json.loads(path.read_text())
        doc["metrics"] = {key: value}
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), str(ckpt)]) == 2
        out, err = capsys.readouterr()
        assert f"metrics.{key}" in err
        # rejected before the checkpoint load and the accuracy pass
        assert "accuracy:" not in out
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_unknown_layer_exit_2_before_the_accuracy_pass(self, trained, capsys):
        path, ckpt, tmp_path = trained
        doc = json.loads(path.read_text())
        doc["saliency"]["layer"] = "block9"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), str(ckpt)]) == 2
        out, err = capsys.readouterr()
        assert "saliency.layer: unknown layer 'block9'" in err
        assert "accuracy:" not in out
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_zero_pixels_per_step_exit_2_naming_the_key(self, trained, capsys):
        path, ckpt, tmp_path = trained
        doc = json.loads(path.read_text())
        doc["metrics"] = {"pixels_per_step": 0}
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), str(ckpt)]) == 2
        out, err = capsys.readouterr()
        assert "metrics.pixels_per_step must be >= 1" in err
        assert "accuracy:" not in out

    @pytest.mark.parametrize("name", ["missing.ckpt", "."])
    def test_unreadable_checkpoint_exit_2_naming_the_path(self, trained, capsys, name):
        path, _, tmp_path = trained
        ckpt = tmp_path / name
        assert main(["eval", str(path), str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read checkpoint") and str(ckpt) in err

    def test_unknown_method_exit_2_before_the_checkpoint(self, trained, capsys):
        path, ckpt, tmp_path = trained
        doc = json.loads(path.read_text())
        doc["saliency"]["methods"] = ["gradcam", "gradcm"]
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), str(ckpt)]) == 2
        out, err = capsys.readouterr()
        assert "saliency.methods: 'gradcm' not one of" in err
        assert "accuracy:" not in out
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_architecture_mismatch_exit_2(self, trained, tmp_path):
        path, ckpt, base = trained
        other = nn.build_model(nn.tinycnn((3, 8, 8), 4, (8, 16)), 0)
        wrong = tmp_path / "wrong.ckpt"
        nn.save_checkpoint(other, wrong)
        assert main(["eval", str(path), str(wrong)]) == 2


class TestCmdSaliency:
    def test_outputs_per_id_and_method(self, tmp_path):
        path, cfg = tiny_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["saliency"]["methods"] = ["gradcam", "scorecam", "ablationcam"]
        path.write_text(json.dumps(doc))
        main(["train", str(path)])
        ckpt = tmp_path / "out" / "model.ckpt"
        assert main(["saliency", str(path), str(ckpt), "--ids", "1"]) == 0
        out = tmp_path / "out"
        ppms = sorted(p.name for p in out.glob("img00001_*.ppm"))
        assert ppms == [
            "img00001_ablationcam.ppm",
            "img00001_gradcam.ppm",
            "img00001_scorecam.ppm",
        ]
        assert (out / "img00001_grad_standard.pgm").exists()
        assert (out / "img00001_grad_guided.pgm").exists()

    def test_gradient_maps_match_module_output(self, tmp_path):
        path, cfg = tiny_config(tmp_path)
        main(["train", str(path)])
        ckpt = tmp_path / "out" / "model.ckpt"
        main(["saliency", str(path), str(ckpt), "--ids", "0"])

        model = nn.load_checkpoint(ckpt)
        test_set = data.synthetic_shapes(16, hw=8, seed=3 + 1000)
        train_set = data.synthetic_shapes(48, hw=8, seed=3)
        test_set.mean, test_set.std = train_set.mean, train_set.std
        x_norm = test_set.normalize(test_set.images[0].pixels)
        c = int(np.argmax(model.forward(x_norm[None]).probs.data[0]))
        for tag, want in zip(("standard", "guided"), input_gradient_maps(model, x_norm, c)):
            quant = np.clip(np.round(want * 255), 0, 255).astype(np.uint8)
            raw = (tmp_path / "out" / f"img00000_grad_{tag}.pgm").read_bytes()
            assert raw.split(b"\n", 3)[3] == quant.tobytes()

    def test_id_out_of_range_exit_2(self, tmp_path, capsys):
        path, cfg = tiny_config(tmp_path)
        main(["train", str(path)])
        ckpt = tmp_path / "out" / "model.ckpt"
        assert main(["saliency", str(path), str(ckpt), "--ids", "99"]) == 2
        assert "out of range" in capsys.readouterr().err


    def test_unknown_layer_exit_2_before_any_image(self, tmp_path, capsys):
        path, cfg = tiny_config(tmp_path)
        main(["train", str(path)])
        ckpt = tmp_path / "out" / "model.ckpt"
        doc = json.loads(path.read_text())
        doc["saliency"]["layer"] = "block9"
        path.write_text(json.dumps(doc))
        assert main(["saliency", str(path), str(ckpt), "--ids", "0"]) == 2
        assert "saliency.layer: unknown layer 'block9'" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("img*"))

    def test_empty_ids_exit_2_naming_the_flag(self, tmp_path, capsys):
        path, cfg = tiny_config(tmp_path)
        main(["train", str(path)])
        ckpt = tmp_path / "out" / "model.ckpt"
        assert main(["saliency", str(path), str(ckpt), "--ids", ""]) == 2
        assert "--ids" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.ckpt", "."])
    def test_unreadable_checkpoint_exit_2_naming_the_path(self, tmp_path, capsys, name):
        path, cfg = tiny_config(tmp_path)
        ckpt = tmp_path / name
        assert main(["saliency", str(path), str(ckpt), "--ids", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read checkpoint") and str(ckpt) in err
        assert not list((tmp_path / "out").glob("*.ppm"))

    def test_unknown_method_exit_2_before_any_image(self, tmp_path, capsys):
        path, cfg = tiny_config(tmp_path)
        main(["train", str(path)])
        ckpt = tmp_path / "out" / "model.ckpt"
        doc = json.loads(path.read_text())
        doc["saliency"]["methods"] = ["gradcam", "gradcm"]
        path.write_text(json.dumps(doc))
        assert main(["saliency", str(path), str(ckpt), "--ids", "0,1"]) == 2
        assert "saliency.methods: 'gradcm' not one of" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.ppm"))


class TestCmdGradcheck:
    def test_fresh_build_passes(self, capsys):
        assert main(["gradcheck", "--seeds", "2", "--nets", "3"]) == 0
        assert "all gradient checks passed" in capsys.readouterr().out

    def test_corrupted_relu_fails_naming_it(self, capsys):
        with corrupted_backward("relu"):
            assert main(["gradcheck", "--seeds", "2", "--nets", "3"]) == 1
        out = capsys.readouterr().out
        assert "relu" in out and "FAILED" in out
