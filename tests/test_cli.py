"""End-to-end CLI tests on tiny synthetic configurations."""

import csv
import json

import numpy as np
import pytest

from igrad import data, nn
from igrad.cli import main
from igrad.config import ConfigError, build_datasets, load_config, validate_config
from igrad.gradcheck import corrupted_backward
from igrad.saliency import input_gradient_map
from igrad.tensor import GradMode


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

    def test_zero_block_width_exit_2_naming_the_block(self, tmp_path, capsys):
        path, _ = tiny_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["model"]["widths"] = [0, 6]
        path.write_text(json.dumps(doc))
        assert main(["train", str(path)]) == 2
        assert "block 0" in capsys.readouterr().err


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

    def test_class_policy_flag_echoed(self, trained):
        path, ckpt, tmp_path = trained
        assert main(["eval", str(path), str(ckpt), "--class-policy", "ground_truth"]) == 0
        rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert all(r["class_policy"] == "ground_truth" for r in rows)

    def test_zero_probability_fails_naming_the_image(self, trained, capsys):
        # the policy: a zero ground-truth probability fails the whole eval,
        # naming the image; no image is ever skipped
        path, ckpt, _ = trained
        model = nn.load_checkpoint(ckpt)
        model.param_by_name("head.w").data[:] = 0.0
        model.param_by_name("head.b").data[:] = -1e4  # exp(-1e4) underflows to 0
        model.param_by_name("head.b").data[0] = 0.0
        nn.save_checkpoint(model, ckpt)
        _, test_set = build_datasets(load_config(path))
        first = next(i for i, img in enumerate(test_set.images) if img.label != 0)
        assert main(["eval", str(path), str(ckpt), "--class-policy", "ground_truth"]) == 2
        assert f"image {first}:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("blur_sigma", 0.0), ("blur_kernel", -1)])
    def test_bad_blur_exit_2(self, trained, capsys, key, value):
        path, ckpt, tmp_path = trained
        doc = json.loads(path.read_text())
        doc["metrics"] = {key: value}
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), str(ckpt)]) == 2
        assert key in capsys.readouterr().err
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
        want = input_gradient_map(model, x_norm, c, GradMode.STANDARD)
        quant = np.clip(np.round(want * 255), 0, 255).astype(np.uint8)
        raw = (tmp_path / "out" / "img00000_grad_standard.pgm").read_bytes()
        assert raw.split(b"\n", 3)[3] == quant.tobytes()

    def test_id_out_of_range_exit_2(self, tmp_path, capsys):
        path, cfg = tiny_config(tmp_path)
        main(["train", str(path)])
        ckpt = tmp_path / "out" / "model.ckpt"
        assert main(["saliency", str(path), str(ckpt), "--ids", "99"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestCmdGradcheck:
    def test_fresh_build_passes(self, capsys):
        assert main(["gradcheck", "--seeds", "2", "--nets", "3"]) == 0
        assert "all gradient checks passed" in capsys.readouterr().out

    def test_corrupted_relu_fails_naming_it(self, capsys):
        with corrupted_backward("relu"):
            assert main(["gradcheck", "--seeds", "2", "--nets", "3"]) == 1
        out = capsys.readouterr().out
        assert "relu" in out and "FAILED" in out
