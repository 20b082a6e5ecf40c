#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload ci-ladder --pairs 10 --seconds 8
    python3 scripts/bench_pairs.py PARENT CHANGE --workload all

PARENT and CHANGE are checkout directories.  ``--workload all`` compares
every workload named in PARENT's ``BENCHMARK.json``, one after the other.  Each pair runs
``perfbench/run.py --trace 0`` once in each, alternating which side runs
first, and reads the JSON object on the last line of each run.  The metrics
and their bounds come from PARENT's ``BENCHMARK.json``; nothing in either
checkout is written to except what ``perfbench/run.py`` itself writes.

Every pair is printed, then, per end-to-end metric: both medians, the
interquartile ranges of PARENT's and of CHANGE's runs, the number of pairs
CHANGE won, and verdicts.  GAIN: CHANGE won at least nine tenths of the
pairs (ties count for neither side) and its median is better than PARENT's
by more than PARENT's IQR, the rule for claiming a gain.  WORSE: CHANGE's
median is worse than PARENT's by more than the bound (a fraction of
PARENT's median).  UNRESOLVED: PARENT's own runs spread wider than that
bound (IQR above bound x median), so a change within the bound cannot be
told from noise, unless every CHANGE run beats every PARENT run.  The exit
status is 1 if any metric on any workload is WORSE or any run fails, 0
otherwise; UNRESOLVED alone does not fail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=1)
    return ap.parse_args(argv)


def run_once(checkout: Path, args) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600 + 4 * args.seconds)
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no output\n{proc.stderr}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{checkout}: {result['failed']} of {result['attempted']} jobs failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def better(metric: dict, change: float, parent: float) -> bool:
    return change > parent if metric["better"] == "higher" else change < parent


def worse_beyond_bound(metric: dict, change: float, parent: float) -> bool:
    if metric["better"] == "higher":
        return change < parent * (1 - metric["bound"])
    return change > parent * (1 + metric["bound"])


def classify(metric: dict, parent: list, change: list) -> str:
    """"WORSE", "UNRESOLVED" or "" for one metric's runs (see the module doc)."""
    p_med = statistics.median(parent)
    if worse_beyond_bound(metric, statistics.median(change), p_med):
        return "WORSE"
    beats_all = all(better(metric, c, p) for c in change for p in parent)
    if iqr(parent) > metric["bound"] * abs(p_med) and not beats_all:
        return "UNRESOLVED"
    return ""


def gain(metric: dict, parent: list, change: list) -> bool:
    """CHANGE wins at least 9/10 of the pairs and beats PARENT's median by
    more than PARENT's IQR."""
    wins = sum(better(metric, c, p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return 10 * wins >= 9 * len(parent) and better(metric, c_med, p_med) and abs(c_med - p_med) > iqr(parent)


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status |= compare(argparse.Namespace(**{**vars(args), "workload": workload}), spec["end_to_end"])
    return status


def compare(args, metrics: list) -> int:
    """Run the pairs on args.workload and print them and the verdicts; 1 if
    any metric is WORSE."""
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
        print(f"pair {k + 1:2d} ({order[0]} first): " + "  ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.4g}/{runs['change'][-1][m['name']]:.4g}"
            for m in metrics), flush=True)
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, seed {args.seed} (parent/change)")
    status = 0
    for m in metrics:
        name = m["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        wins = sum(better(m, c, p) for p, c in zip(parent, change))
        verdict = classify(m, parent, change)
        flag = "  GAIN" if gain(m, parent, change) else ""
        flag += f"  {verdict} (bound {m['bound']:g})" if verdict else ""
        status |= verdict == "WORSE"
        print(f"  {name:12s} median {p_med:10.4g} / {c_med:10.4g} {m['unit']:5s}"
              f"  parent IQR {iqr(parent):8.3g}  change IQR {iqr(change):8.3g}"
              f"  change wins {wins}/{args.pairs}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
