"""The machine's speed, gauged with a fixed numpy job, to scale timings by.

On the shared machine the benchmark was set up on, the same work took up to
45% longer in one run than in another a few minutes away, and the speed moved
as much within a minute. Process CPU time tracks wall time, so the cause is the
processor's own speed, not descheduling. A timed run therefore runs a fixed job
now and then: the tinycnn forward and input-gradient of `reference.py` on fixed
random weights and inputs. It shares no code with igrad, so no change to the
program moves it. Each second of a timed interval is scaled by REF_S over the
median time of the NEAR samples nearest to it, which reads the interval as if
the machine ran at the speed where the job takes REF_S.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

import reference as ref

REPS = 5  # one sample takes about 0.1 s
REF_S = 0.1  # about the sample's median time on the machine of the first figures
NEAR = 5  # samples that gauge the speed at one moment: about 3 s either side


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.params = {
            "block1.conv0.w": 0.3 * rng.standard_normal((8, 3, 3, 3)),
            "block1.conv0.b": 0.1 * rng.standard_normal(8),
            "block2.conv0.w": 0.1 * rng.standard_normal((16, 8, 3, 3)),
            "block2.conv0.b": 0.1 * rng.standard_normal(16),
            "head.w": 0.3 * rng.standard_normal((4, 16)),
            "head.b": np.zeros(4),
        }
        self.x = rng.standard_normal((17, 3, 16, 16))
        self.t = np.arange(17) % 4
        self.at: list[float] = []  # midpoint of each sample
        self.dur: list[float] = []
        self.busy = 0.0  # seconds spent sampling so far

    def sample(self):
        t0 = time.perf_counter()
        for _ in range(REPS):
            ref.input_grad(self.params, self.x[:1], self.t[:1], guided=True)
            ref.probs(self.params, self.x)
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.dur.append(t1 - t0)
        self.busy += t1 - t0

    def factor(self, t):
        """REF_S over the median time of the NEAR samples nearest to time t."""
        i = bisect.bisect_left(self.at, t)
        window = range(max(0, i - NEAR), min(len(self.at), i + NEAR))
        near = sorted(window, key=lambda j: abs(self.at[j] - t))[:NEAR]
        return REF_S / statistics.median(self.dur[j] for j in near)

    def scale(self, t0, t1):
        """The mean factor over [t0, t1], taken second by second."""
        n = max(1, math.ceil(t1 - t0))
        return statistics.fmean(self.factor(t0 + (k + 0.5) * (t1 - t0) / n) for k in range(n))
