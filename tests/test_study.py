"""The effect study: its script, run end to end at a few seconds' size, and
its held-out cosine."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import igrad
from igrad import data, nn, study
from igrad.losses import _forward_ce
from igrad.tensor import GradMode, backward

ROOT = Path(__file__).resolve().parents[1]


def test_run_effect_study_script_smoke():
    env = dict(os.environ)
    src = str(Path(igrad.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = ["--seeds", "0", "--epochs", "1", "--n-train", "64", "--n-test", "16"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_effect_study.py"), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "seed 0   baseline",
        "seed 0    lam=1.0",
        "",
        "cosine improves on every seed",
        "mean Grad-CAM AD gap (reg - base)",
    ]


def _cosine_alone(model, x, t):
    """The cosine of the standard and guided input-gradients of a batch of
    one image."""
    ce, _, xw = _forward_ce(model, x, t)
    a = backward(ce, [xw])[0].data.ravel()
    b = backward(ce, [xw], mode=GradMode.GUIDED)[0].data.ravel()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_heldout_cosine_is_the_mean_of_per_image_cosines():
    model = nn.build_model(nn.tinycnn((3, 8, 8), 4, (4, 6)), seed=1)
    split = data.synthetic_shapes(study.ALIGN_BATCH + 9, hw=8, seed=3)
    want = np.mean([_cosine_alone(model, *split.batch([i])) for i in range(len(split))])
    got = study.mean_cosine_alignment(model, split)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_heldout_cosine_of_dead_gradients_is_zero():
    # head weights zero: no input-gradient reaches the image, and the norm
    # guard makes each cosine exactly 0
    model = nn.build_model(nn.tinycnn((3, 8, 8), 4, (4, 6)), seed=1)
    model.param_by_name("head.w").data[:] = 0.0
    split = data.synthetic_shapes(study.ALIGN_BATCH + 9, hw=8, seed=3)
    assert study.mean_cosine_alignment(model, split) == 0.0
