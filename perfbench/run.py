#!/usr/bin/env python3
"""Benchmark of the lefschetz toolkit: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload ci-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere inside a checkout; the toolkit is imported from its
``src/``.  One process runs one workload, single-threaded, calling the
public API (or ``lefschetz.cli.main``) in-process.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
spends half the time untraced and half with layer wrappers installed, and
reports the per-layer metrics, including the tracing overhead.  The last line
of standard output is one JSON object; the lines before it are a readable
summary.  ``--workload all`` runs every workload in turn, one process each.

Outputs are checked: every job must return the same canonical result on every
pass, match the recorded result in ``perfbench/golden`` when the seed has
one, and every positive verdict is re-derived exactly from its witness,
outside the timed region.  A run in which any job fails these checks, or
raises, exits 1.  ``--record-golden`` stores the results of this run as the
recorded ones for its seed.

Everything the benchmark writes goes to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden"
SETUP_PAIRS = 15


def _timed_import(modules: str, then: str = "") -> str:
    """Code for a fresh interpreter that prints how long an import takes."""
    return (f"import time; t0 = time.perf_counter(); import {modules}; {then}"
            "print(time.perf_counter() - t0)")


# Workload and metric names and units, as BENCHMARK.json lists them.  A
# per-layer "<span>.self_s" is calibrated self time per pass.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="store this run's results as the recorded ones for its seed")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lefschetz" / "__init__.py").is_file():
        print(f"error: no toolkit sources at {ROOT / 'src' / 'lefschetz'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    BUILD.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.path.insert(0, str(ROOT / "src"))
    return Run(args).execute()


def run_all(args) -> int:
    """Every workload in its own process, then one table of the metrics."""
    table = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        table[w] = json.loads(lines[-1])
    print(json.dumps(table, sort_keys=True))
    return 0 if all(r["correct"] for r in table.values()) else 1


def _load_golden(workload: str, seed: int):
    path = GOLDEN / f"{workload}.json"
    if not path.is_file():
        return {}, None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc, doc.get(str(seed))


class Run:
    def __init__(self, args):
        import corpus
        from calibrate import Calibrator

        self.args = args
        self.corpus = corpus.build(args.workload, args.seed)
        self.corpus.write_files(ROOT)
        self.jobs = self.corpus.jobs
        self.cal = Calibrator()
        self.golden_doc, self.golden = _load_golden(args.workload, args.seed)
        self.first: dict = {}      # job index -> digest of its first result
        self.problems: list = []   # (job id, problem) for failed samples
        self.violations: set = set()

    # -- checking ---------------------------------------------------------------

    def check(self, sample, reverify: bool) -> None:
        from jobs import reverify as rederive

        job = self.jobs[sample.job]
        out = sample.outcome
        digest = out.digest()
        problems = []
        if out.status == "failed":
            problems.append(out.detail)
        elif out.status == "violation":
            self.violations.add((job.id, out.detail))
        if sample.job not in self.first:
            self.first[sample.job] = digest
            if reverify:
                problems += rederive(out)
        elif self.first[sample.job] != digest:
            problems.append("result differs from the first pass")
        if self.golden is not None and self.golden.get(job.id) != digest:
            problems.append("result differs from the recorded one")
        # keep only what the statistics need; algebras can be large
        sample.outcome = (out.status, out.record.get("stdout_bytes", 0))
        sample.failed = bool(problems)
        self.problems += [(job.id, p) for p in problems]

    # -- measuring ----------------------------------------------------------------

    def measure_setup(self) -> list:
        """Fresh-interpreter set-up times, each scaled by a reference import
        timed in the fresh interpreter started just after it."""
        from calibrate import NOMINAL_IMPORT_S, REFERENCE_IMPORTS

        # bytecode is cached, as for an installed package
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        setup = [sys.executable, "-c",
                 _timed_import("lefschetz, lefschetz.cli", "lefschetz.cli.build_parser(); ")]
        reference = [sys.executable, "-c", _timed_import(REFERENCE_IMPORTS)]

        def seconds(cmd):
            return float(subprocess.run(cmd, env=env, capture_output=True, text=True,
                                        check=True, timeout=120).stdout)

        # the first imports compile the sources; they are not timed
        seconds(setup)
        seconds(reference)
        return [NOMINAL_IMPORT_S * seconds(setup) / seconds(reference)
                for _ in range(SETUP_PAIRS)]

    def execute(self) -> int:
        from harness import run_passes

        args = self.args
        if args.trace:
            half = args.seconds / 2
            plain = run_passes(self.jobs, self.cal, half,
                               after_job=lambda s: self.check(s, reverify=True))
            traced, tracer = self.traced_passes(half)
            metrics = self.layer_metrics(plain, traced, tracer)
            samples = plain.samples + traced.samples
        else:
            setup = self.measure_setup()
            plain = run_passes(self.jobs, self.cal, args.seconds,
                               after_job=lambda s: self.check(s, reverify=True))
            metrics = self.end_to_end(plain, setup)
            samples = plain.samples
        failed = sum(s.failed for s in samples)
        result = {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": metrics,
        }
        self.print_summary(samples, metrics)
        if args.record_golden:
            self.record_golden(failed)
        print(json.dumps(result, sort_keys=True))
        return 0 if failed == 0 else 1

    def traced_passes(self, seconds):
        from harness import run_passes
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(self.jobs, self.cal, seconds, tracer=tracer,
                                after_job=lambda s: self.check(s, reverify=False))
        finally:
            tracer.uninstall()
        tracer.write(BUILD / f"trace-{self.args.workload}-{self.args.seed}.json")
        return traced, tracer

    def end_to_end(self, passes, setup) -> dict:
        from harness import job_latencies, tail

        latencies = job_latencies(passes, self.cal, len(self.jobs))
        tail_s, pct = tail(latencies)
        self.tail_note = f"p{pct:.1f} of {len(latencies)} job latencies"
        values = {
            "jobs_per_s": len(latencies) / sum(latencies),
            "job_p50_ms": statistics.median(latencies) * 1e3,
            "job_tail_ms": tail_s * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        self.raw_note = (f"raw wall: {sum(s.raw_s for s in passes.samples):.3f} s over "
                         f"{passes.count} passes; raw p50 "
                         f"{statistics.median(s.raw_s for s in passes.samples) * 1e3:.3f} ms")
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def layer_metrics(self, plain, traced, tracer) -> dict:
        from harness import job_latencies
        from tracer import layer_totals

        n = traced.count
        factors = {f"{s.pass_no}:{self.jobs[s.job].id}": self.cal.factor(s.window)
                   for s in traced.samples}
        seconds, calls = layer_totals(tracer.spans, factors)
        c = tracer.counts

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for name, unit in PER_LAYER:
            if name.endswith(".self_s"):
                values[name] = seconds[name[: -len(".self_s")]] / n
            elif name.endswith(".calls"):
                values[name] = calls[name[: -len(".calls")]] / n
        values.update({
            "exactmath.rref.cells": c["exactmath.rref.cells"] / n,
            "exactmath.matmul.mults": c["exactmath.matmul.mults"] / n,
            "exactmath.rowspace.adds": c["exactmath.rowspace.adds"] / n,
            "exactmath.rowspace.useful_ratio": ratio(c["exactmath.rowspace.useful"],
                                                     c["exactmath.rowspace.adds"]),
            "algebra.mult_cache.hit_ratio": ratio(
                c["algebra.basis_product.calls"] - c["algebra.mult_cache.misses"],
                c["algebra.basis_product.calls"]),
            "checks.trial_elements": c["checks.trial_elements"] / n,
            "checks.witness_ratio": ratio(c["checks.witnesses"], c["checks.trial_elements"]),
            "checks.rank_maps": c["checks.rank_maps"] / n,
            "checks.escalations.symbolic": c["checks.escalations.symbolic"] / n,
            "checks.escalations.exhaustive": c["checks.escalations.exhaustive"] / n,
            "cli.json_bytes": sum(s.outcome[1] for s in traced.samples) / n,
            "cli.contract_violations": sum(s.outcome[0] == "violation" for s in traced.samples) / n,
            "trace.overhead_ratio": sum(job_latencies(plain, self.cal, len(self.jobs)))
            / sum(job_latencies(traced, self.cal, len(self.jobs))),
        })
        self.layer_note = (f"{plain.count} untraced and {n} traced passes; "
                           f"{len(tracer.spans)} spans; {c['exactmath.rowspace.adds']} row adds, "
                           f"{c['algebra.basis_product.calls']} basis products, "
                           f"{c['checks.trial_elements']} trial elements over all traced passes")
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    # -- reporting ----------------------------------------------------------------

    def print_summary(self, samples, metrics) -> None:
        a = self.args
        golden = "recorded results" if self.golden is not None else "no recorded results"
        print(f"workload {a.workload}  seed {a.seed}  trace {a.trace}  "
              f"{len(self.jobs)} jobs per pass  ({golden})")
        for name, m in metrics.items():
            extra = f"  ({self.tail_note})" if name == "job_tail_ms" else ""
            print(f"  {name:36s} {m['value']:.6g} {m['unit']}{extra}")
        if not a.trace:
            print(f"  {self.raw_note}")
        else:
            print(f"  {self.layer_note}")
        bad = sum(s.failed or s.outcome[0] == "violation" for s in samples)
        print(f"  failed_frac {bad}/{len(samples)} = {bad / len(samples):.4f} ratio"
              f"  (errors and wrong results {sum(s.failed for s in samples)}, "
              f"exit-code contract violations {bad - sum(s.failed for s in samples)})")
        for job_id, detail in sorted(self.violations):
            print(f"    contract violation: {job_id}: {detail}")
        for job_id, problem in sorted(set(self.problems)):
            print(f"    FAILED: {job_id}: {problem}")

    def record_golden(self, failed: int) -> None:
        if failed:
            print("not recording results: the run had failures", file=sys.stderr)
            return
        doc = dict(self.golden_doc)
        doc[str(self.args.seed)] = {self.jobs[j].id: d for j, d in sorted(self.first.items())}
        GOLDEN.mkdir(exist_ok=True)
        path = GOLDEN / f"{self.args.workload}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
