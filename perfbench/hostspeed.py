"""Host-speed reference for steadier timings on a shared host.

On the host these figures were taken on, a fixed pure-Python loop timed
in 9 ms pieces for 20 s had a spread (interquartile range over median) of
0.30 and a lag-1 correlation of 0.85: the host runs in fast and slow
phases, lasting from seconds to minutes, that change the speed of all
work by up to 2x.  A run therefore times the same loop (about 2 ms)
between its operations, never inside one, and reports each timing as it
would read on a host where the loop takes ``REF_S``: the timing times
``REF_S`` over the median loop time within a second of it.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_S = 0.0017
LOOP = 20_000
NEAR_S = 1.0


class HostSpeed:
    """Loop timings stamped with the clock; :meth:`scale` uses them."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def tick(self) -> float:
        """Time the loop once; returns its duration."""
        start = time.perf_counter()
        acc = 0
        for i in range(LOOP):
            acc += i * i % 7
        end = time.perf_counter()
        self.stamps.append(end)
        self.samples.append(end - start)
        return end - start

    def factor(self, start: float, end: float) -> float:
        """``REF_S`` over the median loop time taken within ``NEAR_S`` of
        the interval, or of the five loops nearest to it."""
        lo = bisect.bisect_left(self.stamps, start - NEAR_S)
        hi = bisect.bisect_right(self.stamps, end + NEAR_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.stamps, (start + end) / 2)
            lo, hi = max(0, mid - 3), min(len(self.stamps), mid + 2)
        return REF_S / statistics.median(self.samples[lo:hi])

    def scale(self, seconds: float, start: float) -> float:
        """``seconds`` of work that began at ``start``, at reference speed."""
        return seconds * self.factor(start, start + seconds)
