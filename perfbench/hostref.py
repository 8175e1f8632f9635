"""The host's current speed, measured with a fixed kernel outside the program.

The shared host this benchmark was built on slows down and speeds up by up to
1.5x over seconds to minutes, for every process alike (see NOTES.md). A run
times ``RefKernel`` between its ops and scales its gated timings to a host on
which the kernel takes ``REF_NOMINAL_S``, so that the speed of the host
during the run cancels and the speed of the program remains.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

REF_LOOP = 20000
REF_SIZE = 70000
# gated timings are scaled to a host on which RefKernel.time_s() takes this long
REF_NOMINAL_S = 900e-6
PROBE_EVERY_S = 0.1
# share of samples dropped at each end before averaging: the mean follows a
# host that switches speed within a run, the trim drops single stalls
TRIM = 0.1


class RefKernel:
    """A pure-Python loop, then NumPy passes over 70k doubles.

    The two halves stand for the program's Python-bound and array-bound work.
    """

    def __init__(self):
        self.x = np.linspace(-1.0, 1.0, REF_SIZE)
        self.y = np.empty_like(self.x)

    def time_s(self) -> float:
        t0 = perf_counter()
        sum(range(REF_LOOP))
        np.abs(self.x, out=self.y)
        np.log1p(self.y, out=self.y)
        np.sqrt(self.y, out=self.y)
        self.y.sum()
        return perf_counter() - t0


def trimmed_mean(samples: list[float]) -> float:
    s = sorted(samples)
    k = int(TRIM * len(s))
    return statistics.fmean(s[k:len(s) - k])


class HostProbe:
    """The reference kernel timed between ops, at most every PROBE_EVERY_S."""

    def __init__(self):
        self.kernel = RefKernel()
        self.samples: list[float] = []
        self.last = -math.inf

    def maybe(self) -> None:
        if perf_counter() - self.last < PROBE_EVERY_S:
            return
        self.samples.append(self.kernel.time_s())
        self.last = perf_counter()

    def slowdown(self) -> float:
        """How much slower than nominal the host ran during the probes."""
        return trimmed_mean(self.samples) / REF_NOMINAL_S

    def p50_us(self) -> float:
        return 1e6 * statistics.median(self.samples)
