#!/usr/bin/env python3
"""Run the desk-scale gradient-alignment effect study and print a table.

Trains paired tinycnn models (lam=0 baseline vs cosine regularizer) on the
synthetic shape dataset across seeds, then reports held-out gradient
alignment, accuracy, and Grad-CAM Average Drop.
"""

import argparse

from igrad.study import DESK_LAMBDA, effect_study


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--lam", type=float, default=DESK_LAMBDA)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--n-train", type=int, help="training images (default: the config's)")
    ap.add_argument("--n-test", type=int, help="held-out images (default: the config's)")
    args = ap.parse_args()

    seeds = tuple(int(s) for s in args.seeds.split(","))

    def progress(run):
        tag = "baseline" if run.lam == 0 else f"lam={run.lam}"
        print(
            f"seed {run.seed} {tag:>10}: test_acc={run.test_acc:.4f} "
            f"cos={run.heldout_cosine:.4f} gradcam_AD={run.gradcam_ad:.2f} "
            f"({run.seconds:.0f}s)",
            flush=True,
        )

    summary = effect_study(
        seeds=seeds,
        lam=args.lam,
        epochs=args.epochs,
        n_train=args.n_train,
        n_test=args.n_test,
        progress=progress,
    )
    print()
    print(f"cosine improves on every seed: {summary.cosine_improves_every_seed}")
    print(f"mean Grad-CAM AD gap (reg - base): {summary.mean_ad_gap:+.2f} points")


if __name__ == "__main__":
    main()
