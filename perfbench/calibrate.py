"""Machine-speed calibration, sampled before, between and during operations.

The machine's speed drifts by tens of percent over seconds to minutes, so
every time the benchmark reports is rescaled.  A calibration is a fixed
piece of the benchmark's own pure-Python work (`oracle.reflexive_classes`).
It runs between set-ups and passes, and also every INTERVAL seconds while
the program runs: a SIGALRM handler pauses the program between two
bytecodes, runs the calibration, and adds its duration to `paused`.  All
times are read from `now()`, which leaves the paused time out, so neither
the operations nor the tracer's spans include it.

A time t covering program-time [a, b] is reported as t * REF_S / c, where c
is the mean calibration over the samples from WINDOW before a to WINDOW
after b: seconds at the speed at which the calibration takes REF_S.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

import oracle

INTERVAL = 0.25
# Samples up to this far (in program time) before an operation starts or
# after it ends also count: single samples scatter by about 10 %, while the
# machine's speed moves over seconds.
WINDOW = 1.0
# The calibration's typical time on the 2-core reference VM, so that the
# figures read as seconds on that machine.
REF_S = 0.025


class Calibrator:
    def __init__(self):
        self.paused = 0.0
        self.stamps: list[float] = []
        self.values: list[float] = []
        self._armed = False

    def now(self) -> float:
        """Program time: wall time less the time spent calibrating."""
        return perf_counter() - self.paused

    def sample(self) -> None:
        t0 = perf_counter()
        oracle.reflexive_classes()
        t1 = perf_counter()
        self.stamps.append(t0 - self.paused)
        self.values.append(t1 - t0)
        self.paused += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    @contextmanager
    def sampling(self):
        """Take samples every INTERVAL seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, a: float, b: float) -> float:
        """REF_S over the mean calibration within WINDOW of program-time [a, b].

        The nearest sample on each side always counts, so a window that
        holds no sample still has two.
        """
        lo = max(min(bisect_left(self.stamps, a - WINDOW), bisect_left(self.stamps, a) - 1), 0)
        hi = min(max(bisect_right(self.stamps, b + WINDOW), bisect_right(self.stamps, b) + 1), len(self.stamps))
        window = self.values[lo:hi]
        return REF_S / (sum(window) / len(window))
