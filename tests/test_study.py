"""The effect study's script, run end to end at a few seconds' size."""

import os
import subprocess
import sys
from pathlib import Path

import igrad

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
