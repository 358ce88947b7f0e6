"""A host-speed probe: fixed pure-Python work timed between operations.

On a shared host the same interpreter-bound work drifts by up to 60% over
tens of seconds (see bench/README.md), and CPU time drifts with wall time.
The probe runs the same fixed work every ``PROBE_EVERY_S`` while a workload
runs.  Every time the benchmark reports is multiplied by
(PROBE_NOMINAL_S / median probe time around it) ** SENSITIVITY, which
brings it to the host speed at which the probe takes PROBE_NOMINAL_S.
SENSITIVITY is measured: over 2-second blocks the log of rankweight's time
moves 0.73 times as much as the log of the probe's time (correlation 0.96).
The probe shares no code with rankweight, so a change to the program moves
the scaled times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

perf_counter = time.perf_counter

PROBE_EVERY_S = 0.05
PROBE_NOMINAL_S = 0.0012  # the probe's time on the reference host when it is quiet
SENSITIVITY = 0.75
WINDOW_S = 0.5  # probes within this distance of a time are its neighbourhood


def _pair(a, b):
    return (a[1], b[0])


def probe_once() -> float:
    """Integer arithmetic, tuples, dict lookups, calls and Fractions: the
    interpreter work rankweight does, none of its code."""
    t0 = perf_counter()
    s = 0
    for i in range(4000):
        s += i * i % 7
    cache = {}
    for i in range(800):
        key = (i & 15, i % 7)
        if cache.get(key) is None:
            cache[key] = _pair(key, key)
    x = Fraction(1, 3)
    for i in range(100):
        x = x * Fraction(i % 7 + 1, 5) + Fraction(1, i % 3 + 1)
        x = Fraction(x.numerator % 1000, x.denominator % 997 + 1)
    return perf_counter() - t0


class HostProbe:
    """Probe samples (start time, seconds) taken at most every PROBE_EVERY_S."""

    def __init__(self):
        self.samples = []
        self.next_due = 0.0

    def maybe(self):
        now = perf_counter()
        if now >= self.next_due:
            self.samples.append((now, probe_once()))
            self.next_due = perf_counter() + PROBE_EVERY_S

    def burst(self, count: int) -> float:
        """Probe ``count`` times in a row; returns the scale factor they give."""
        for _ in range(count):
            self.samples.append((perf_counter(), probe_once()))
        return scale(statistics.median(d for _, d in self.samples[-count:]))

    def take(self):
        out, self.samples = self.samples, []
        return out


class SpeedScale:
    """Scale factors over time from the probe samples of one run."""

    def __init__(self, samples):
        self.samples = sorted(samples)
        self.times = [t for t, _ in self.samples]
        if not self.samples:
            raise ValueError("no probe samples were taken")

    def factor(self, start: float, end: float) -> float:
        """The scale factor from the median probe time in [start - W, end + W]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo >= hi:  # no probe nearby: take the nearest one
            i = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            lo, hi = i, i + 1
        return scale(statistics.median(d for _, d in self.samples[lo:hi]))


def scale(probe_s: float) -> float:
    return (PROBE_NOMINAL_S / probe_s) ** SENSITIVITY
