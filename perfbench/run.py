#!/usr/bin/env python3
"""igrad benchmark: regularized training and CAM evaluation.

    python3 perfbench/run.py --workload train_reg --seed 1 --seconds 40 --trace 0

`train_plain`, the same training at lambda 0, is not in BENCHMARK.json but
runs the same way, for comparing a change by hand.

Run from the root of a checkout. It imports igrad from the checkout's `src`
and writes its scratch files under `.perfbench_out/`. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, which holds the end-to-end metrics with `--trace 0` and the
per-layer metrics of a traced run with `--trace 1`. A failed correctness
check is named on standard error and makes the exit code 1.
"""

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("train_reg", "eval_cam", "train_plain")
ROOT = Path(__file__).resolve().parent.parent


def pin_threads():
    """The load is one single-threaded Python process: one BLAS thread and
    no eval thread pool. On these matrix sizes a second BLAS thread made
    eval no faster. Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("IGRAD_THREADS", None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    src = ROOT / "src"
    if not (src / "igrad" / "__init__.py").is_file():
        print(f"error: no igrad sources under {src}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(src))

    import workloads

    result, failures = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                     ROOT / ".perfbench_out")
    for f in failures:
        print(f"CHECK FAILED {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
