#!/usr/bin/env python3
"""Profile one pass of a benchmark workload under cProfile.

Builds the seeded corpus of ``perfbench`` for one workload, runs every job
once unprofiled (so memoised tables are as warm as in a benchmark run), once
more unprofiled with each job timed, then once more under cProfile.  It
prints the slowest jobs of the timed pass with their wall times, which shows
the jobs that set the benchmark's ``job_tail_ms``, then the functions
with the most self time, then the toolkit's functions (those under
``lefschetz/``) with the most cumulative time, callees included.

    python3 scripts/profile_workload.py --workload ci-ladder --seed 5 --top 25

The benchmark's ``corpus.py`` and ``jobs.py`` are loaded by path and nothing
under ``perfbench/`` is changed; ``constructions-cli`` writes its input files
to ``.bench_build/perfbench/corpus``, as the benchmark does.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import os
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("ci-ladder", "gorenstein-survey", "constructions-cli")
# job_tail_ms is the latency of the slowest job but this many (perfbench/harness.py)
TAIL_BEYOND = 10


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def run_pass(jobs, job_list) -> tuple[list, list]:
    """Failed jobs of one pass, as (job id, detail) pairs, and every job's
    wall time, as (seconds, job id) pairs."""
    failed, walls = [], []
    for job in job_list:
        t0 = time.perf_counter()
        out = jobs.execute(job)
        walls.append((time.perf_counter() - t0, job.id))
        if out.status != "ok":
            failed.append((job.id, out.detail))
    return failed, walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--top", type=int, default=25, help="how many functions to print")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # constructions-cli jobs name their files relative to the root
    corpus, jobs = _load("corpus"), _load("jobs")
    built = corpus.build(args.workload, args.seed)
    built.write_files(ROOT)

    run_pass(jobs, built.jobs)
    _, walls = run_pass(jobs, built.jobs)
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    failed, _ = run_pass(jobs, built.jobs)
    prof.disable()
    wall = time.perf_counter() - t0

    print(f"{args.workload} seed {args.seed}: {len(built.jobs)} jobs, unprofiled pass "
          f"{sum(t for t, _ in walls):.3f} s, profiled pass {wall:.3f} s, {len(failed)} failed")
    for job_id, detail in failed:
        print(f"  failed {job_id}: {detail}")
    slowest = sorted(walls, reverse=True)[:TAIL_BEYOND + 1]
    print(f"slowest jobs of the unprofiled pass (raw wall time; with more than {TAIL_BEYOND} "
          f"jobs, the last one listed sets job_tail_ms):")
    for t, job_id in slowest:
        print(f"  {1000 * t:9.1f} ms  {job_id}")
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(args.top)
    # cumulative time includes callees; the toolkit's own functions only
    stats.sort_stats("cumulative").print_stats("lefschetz/", args.top)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
