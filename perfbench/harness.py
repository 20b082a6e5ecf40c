"""Timed passes over a corpus, and the statistics reported from them.

A pass runs every job of the corpus once, in order, in a closed loop: the next
job starts when the previous one has returned.  Passes repeat until the time
budget would be exceeded.  Every job is timed between reference probes (see
``calibrate``), so each sample carries a calibrated time.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

from jobs import execute


@dataclass
class Sample:
    job: int       # index into the corpus
    pass_no: int
    raw_s: float
    window: tuple  # calibration probes (just before, just after) the job
    outcome: object
    failed: bool = False


@dataclass
class Passes:
    samples: list = field(default_factory=list)
    count: int = 0

    def calibrated(self, cal) -> list:
        return [cal.scaled(s.raw_s, s.window) for s in self.samples]


def run_passes(jobs, cal, seconds: float, tracer=None, after_job=None) -> Passes:
    """Whole passes until another one would overrun ``seconds`` (at least one).

    ``after_job(sample)`` runs outside the timed region, and its time does not
    count against ``seconds``.
    """
    clock = time.perf_counter
    out = Passes()
    start = clock()
    checking = 0.0
    if not cal.refs:
        cal.probe()
    while True:
        for j, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"{out.count}:{job.id}"
            # every job starts from an empty young heap, so the collector's
            # pauses inside it do not depend on what ran before
            gc.collect()
            outcome, raw, window = cal.time(lambda: execute(job))
            sample = Sample(j, out.count, raw, window, outcome)
            if after_job is not None:
                t0 = clock()
                after_job(sample)
                checking += clock() - t0
            out.samples.append(sample)
        out.count += 1
        elapsed = clock() - start - checking
        if elapsed * (out.count + 1) / out.count > seconds:
            break
    # one trailing probe so the last job's calibration window is complete
    cal.probe()
    return out


def job_latencies(passes: Passes, cal, njobs: int) -> list:
    """Each job's latency: the median of its calibrated times across passes.

    Statistics over jobs, not over samples, do not depend on how many passes
    fitted into the run.
    """
    per_job = [[] for _ in range(njobs)]
    for s, t in zip(passes.samples, passes.calibrated(cal)):
        per_job[s.job].append(t)
    return [statistics.median(ts) for ts in per_job]


def tail(values: list, beyond: int = 10) -> tuple:
    """(value, percentile): the highest percentile with ``beyond`` samples above it.

    With ``beyond`` or fewer samples there is no such percentile; the maximum
    is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n
