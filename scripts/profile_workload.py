#!/usr/bin/env python3
"""Profile one pass of a benchmark workload under cProfile.

Builds the seeded corpus of ``perfbench`` for one workload, runs every job
once unprofiled (so memoised tables are as warm as in a benchmark run), once
more unprofiled with each job timed, then once more under cProfile.  It
prints the slowest jobs of the timed pass with their wall times, which shows
the jobs that set the benchmark's ``job_tail_ms``, then the functions
with the most self time, then the toolkit's functions (those under
``lefschetz/``) with the most cumulative time, callees included.  Two
summaries of the profile follow: self time summed by module, and the time
spent in the ``fractions`` module, callees included, by the toolkit function
that called into it.

    python3 scripts/profile_workload.py --workload ci-ladder --seed 5 --top 25

Each ``--wrap MODULE:FUNCTION`` (repeatable; a method as ``Class.method``)
adds, after all of that, unprofiled passes with the function wrapped by a
counter and a timer, and prints its calls and wall time per pass, from the
pass where it took least time.  Only outermost calls count: a call made
while the function is already running is part of the enclosing call.  A
function that no toolkit module refers to cannot be wrapped, and is an error.

    python3 scripts/profile_workload.py --workload ci-ladder --seed 5 \
        --wrap lefschetz.algebra:from_ideal --wrap lefschetz.exactmath:RowSpace.add

The benchmark's ``corpus.py``, ``jobs.py`` and ``tracer.py`` (whose patching
binds the wrappers) are loaded by path and nothing under ``perfbench/`` is
changed; ``constructions-cli`` writes its input files to
``.bench_build/perfbench/corpus``, as the benchmark does.
"""

from __future__ import annotations

import argparse
import cProfile
import collections
import functools
import importlib
import importlib.util
import json
import os
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# the workload names as BENCHMARK.json lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# job_tail_ms is the latency of the slowest job but this many (perfbench/harness.py)
TAIL_BEYOND = 10
WRAP_PASSES = 3
# the caller of fractions time that is no toolkit function
OUTSIDE = "(outside the toolkit)"


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


def module_of(path: str) -> str:
    """The module of a profiled function's file: ``lefschetz.NAME`` for the
    toolkit's, the file's stem for any other, ``(built-in)`` for C functions."""
    if path == "~":
        return "(built-in)"
    file = Path(path)
    return f"lefschetz.{file.stem}" if file.parent.name == "lefschetz" else file.stem


def self_time_by_module(stats: pstats.Stats) -> dict[str, float]:
    """Profiled self time summed by module, largest first."""
    out: collections.Counter = collections.Counter()
    for (path, _, _), (_, _, self_s, _, _) in stats.stats.items():
        out[module_of(path)] += self_s
    return dict(out.most_common())


def fraction_time_by_caller(stats: pstats.Stats) -> dict[str, float]:
    """Time in the ``fractions`` module, callees included, by the function
    that called into it (``lefschetz.MODULE.FUNCTION:LINE``), largest first;
    callers that are no toolkit function are summed as ``OUTSIDE``.  Calls
    within the module are part of the call that entered it."""
    out: collections.Counter = collections.Counter()
    for (path, _, _), (*_, callers) in stats.stats.items():
        if module_of(path) != "fractions":
            continue
        for (caller_path, line, name), (_, _, _, cum_s) in callers.items():
            caller = module_of(caller_path)
            if caller != "fractions":
                out[f"{caller}.{name}:{line}" if caller.startswith("lefschetz.") else OUTSIDE] += cum_s
    return dict(out.most_common())


def print_summaries(stats: pstats.Stats, top: int) -> None:
    by_module = self_time_by_module(stats)
    total = sum(by_module.values())
    print("profiled self time by module:")
    for module, seconds in by_module.items():
        print(f"  {seconds:8.3f} s  {100 * seconds / total:5.1f} %  {module}")
    by_caller = fraction_time_by_caller(stats)
    print(f"fractions time, callees included, by direct caller ({sum(by_caller.values()):.3f} s in all):")
    for caller, seconds in list(by_caller.items())[:top]:
        print(f"  {seconds:8.3f} s  {caller}")


def outermost_timer(fn, record: list):
    """fn wrapped to add 1 to record[0] and its wall seconds to record[1]
    per outermost call; calls made inside a running call are not counted."""
    depth = 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nonlocal depth
        if depth:
            return fn(*args, **kwargs)
        depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[1] += time.perf_counter() - t0
            record[0] += 1
            depth -= 1
    return wrapper


def wrapped_passes(jobs, job_list, targets, passes: int = WRAP_PASSES) -> dict:
    """Per target ``module:function``: (calls, seconds) of its outermost calls
    in the pass, of ``passes`` unprofiled ones, where it took least time.
    Exits with an error naming a target that no toolkit module refers to,
    which could not be wrapped."""
    tracer = _load("tracer")  # its wrappers are bound wherever the toolkit imported the function
    best = {t: None for t in targets}
    for _ in range(passes):
        records = {t: [0, 0.0] for t in targets}
        patcher = tracer.Tracer()
        try:
            for t in targets:
                module, _, path = t.partition(":")
                bound = len(patcher._undo)
                patcher._patch(importlib.import_module(module), path,
                               lambda fn, r=records[t]: outermost_timer(fn, r))
                if len(patcher._undo) == bound:  # no toolkit module holds the function
                    raise SystemExit(f"--wrap {t}: no reference to it in a lefschetz module to wrap")
            run_pass(jobs, job_list)
        finally:
            patcher.uninstall()
        for t, (calls, seconds) in records.items():
            if best[t] is None or seconds < best[t][1]:
                best[t] = (calls, seconds)
    return best


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--top", type=int, default=25, help="how many functions to print")
    ap.add_argument("--wrap", action="append", default=[], metavar="MODULE:FUNCTION",
                    help="also time this function's outermost calls per pass (repeatable)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

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
    print_summaries(stats, args.top)
    if args.wrap:
        print(f"wrapped functions, best of {WRAP_PASSES} unprofiled passes (outermost calls, per pass):")
        for target, (calls, seconds) in wrapped_passes(jobs, built.jobs, args.wrap).items():
            print(f"  {1000 * seconds:9.1f} ms  {calls:7d} calls  {target}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
