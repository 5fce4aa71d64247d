"""Speed of the measuring core, sampled while the benchmark runs.

On a shared host one core's speed swings with its neighbours' load: a
fixed piece of exact-rational work has been seen to take from 1.0 to 2.0
times its fastest time, in phases lasting seconds to minutes, and CPU
time swings with it.  The benchmark therefore pins itself, and so every
process it starts, to one core, and a thread times a fixed burst of work
on that core every ``INTERVAL_S``.  A time measured over an interval is
multiplied by the core's mean speed over that interval, in bursts per
``REF_BURST_S``.  The mean of 1 / burst time (not of the burst times)
is what tracks the work done per second.  Doubling a command's work
still doubles its scaled time; a slow phase of the core does not.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

INTERVAL_S = 0.02
REF_BURST_S = 0.001


def burst() -> Fraction:
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i % 97 + 1)
    return s


class CoreClock:
    """Pins the calling thread (and the processes it starts) to one core
    and samples that core's speed until closed."""

    def __init__(self):
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        clock = time.perf_counter
        while not self._stop.wait(INTERVAL_S):
            start = clock()
            burst()
            end = clock()
            self.samples.append((end, end - start))

    def close(self):
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Reference burst time over the harmonic mean of the bursts that
        ended in [start, end]."""
        inside = [d for t, d in self.samples if start <= t <= end]
        return REF_BURST_S / statistics.harmonic_mean(inside or [d for _, d in self.samples])
