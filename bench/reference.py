"""A fixed reference computation, timed next to every timed operation.

A shared host changes a VM's speed in phases of seconds to minutes (see
NOTES.md, "Noise"), and no statistic inside a run removes a phase that
covers the whole run. So the run times this computation before and after
every operation and every set-up probe, for at least a quarter of its time
on each side, and scales each span by ``REF_S / reference time`` (the mean
of the timings on both sides): the time it would take on a machine where
the reference takes ``REF_S`` seconds. A phase that slows both alike
cancels. Single reference timings scatter by about 20 %, hence several per
span.

The computation uses no rrdof code, so a change to rrdof leaves it as it is.
Like rrdof, it mixes interpreted Python with small LAPACK calls, and it runs
on the one BLAS thread that ``run.py`` pins.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Nominal seconds of the reference, about its median time on a 2-vCPU VM
#: (Xeon at 2.1 GHz); scaled times are given at this speed.
REF_S = 0.1
#: Iterations of the pure-Python loop and of the LAPACK block, for about
#: 0.02 s and 0.08 s on that VM.
PY_LOOP = 120_000
LAPACK_REPS = 130
#: The reference runs after each timed span for at least this share of it.
SHARE = 0.25


class Reference:
    """Fixed inputs, made once, and every timing of the computation."""

    def __init__(self):
        rng = np.random.default_rng(20121009)
        self.a = rng.standard_normal((60, 45))
        s = rng.standard_normal((40, 40))
        self.s = s @ s.T + 40.0 * np.eye(40)
        self.times: list[float] = []
        self._run()  # untimed: first-call costs

    def follow(self, span_s: float) -> float:
        """Time the computation after a span of `span_s` seconds: once, and
        again until the timings add up to SHARE of the span. Returns their
        mean."""
        group: list[float] = []
        while not group or sum(group) < SHARE * span_s:
            group.append(self._run())
        self.times.extend(group)
        return statistics.fmean(group)

    def _run(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(PY_LOOP):
            total += i * i % 7
        for _ in range(LAPACK_REPS):
            u, d, vt = np.linalg.svd(self.a, full_matrices=False)
            np.linalg.solve(self.s, self.a[:40])
            (u * d) @ vt
        return time.perf_counter() - t0


def at_reference_speed(span_s: float, before: float, after: float) -> float:
    """A span's seconds at reference speed, given the mean reference times
    measured right before and right after it."""
    return span_s * REF_S * 2.0 / (before + after)
