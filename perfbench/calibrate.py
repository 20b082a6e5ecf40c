"""Host-speed calibration.

The benchmark shares its host with other work, and pure-Python speed on such
a host drifts by tens of percent in phases that last seconds.  A fixed
reference kernel (Fraction arithmetic plus dict and tuple work, the same mix
the toolkit spends its time on) is timed between consecutive jobs; each job's
raw time is scaled by nominal / measured reference time, so timings read as
if taken on a host where the kernel takes exactly ``NOMINAL_REF_S``.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Reference-kernel time that calibrated timings are expressed against.  Fixed
# once; changing it rescales every timing the benchmark reports.
NOMINAL_REF_S = 0.010

# Set-up is calibrated against a fixed set of standard-library imports, each
# timed in a fresh interpreter: import speed follows the host's file-system
# and exec load, which the arithmetic kernel does not track.
REFERENCE_IMPORTS = ("argparse, dataclasses, fractions, json, hashlib, heapq, random, "
                     "decimal, email.message, http.client, xml.dom.minidom")
NOMINAL_IMPORT_S = 0.050


def reference_kernel() -> tuple:
    """About 10 ms of exact arithmetic and hashing; deterministic."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 850):
        f = Fraction(i, i + 3)
        acc += f * f - Fraction(1, i)
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + acc.numerator % 97
    return len(table), acc.denominator % 1000


class Calibrator:
    """Reference probes taken between jobs, and the scales they give.

    ``probe()`` once before the first job; ``time(fn)`` then runs a job and
    probes once after it.  A job is scaled by the median of the two probes on
    each side of it, so one preempted probe does not skew it.
    """

    def __init__(self, clock=time.perf_counter, kernel=reference_kernel):
        self.clock = clock
        self.kernel = kernel
        self.refs: list[float] = []

    def probe(self) -> int:
        """Time the reference kernel once; returns the probe's index."""
        t0 = self.clock()
        self.kernel()
        self.refs.append(self.clock() - t0)
        return len(self.refs) - 1

    def time(self, fn) -> tuple:
        """(fn(), raw seconds, probe window)."""
        first = len(self.refs) - 1
        t0 = self.clock()
        result = fn()
        raw = self.clock() - t0
        return result, raw, (first, self.probe())

    def factor(self, window: tuple) -> float:
        """Scale for a job timed between probes ``window[0]`` and ``window[1]``."""
        first, last = window
        return NOMINAL_REF_S / statistics.median(self.refs[max(0, first - 1): last + 2])

    def scaled(self, raw_s: float, window: tuple) -> float:
        return raw_s * self.factor(window)
