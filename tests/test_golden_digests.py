"""Seed-0 benchmark jobs against their recorded results.

The benchmark compares every result with ``perfbench/golden``.  Running each
``ci-ladder`` and ``gorenstein-survey`` job of seed 0 once here makes a change
that moves a verdict, a witness, a certification label or a map rank fail the
test suite as well.  The benchmark's modules are loaded by path, the way
``test_tracer_names`` loads the tracer.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


corpus = _load("corpus")
jobs = _load("jobs")


@pytest.mark.parametrize("workload", ["ci-ladder", "gorenstein-survey"])
def test_seed_zero_results_match_the_golden_digests(workload):
    golden = json.loads((PERFBENCH / "golden" / f"{workload}.json").read_text(encoding="utf-8"))["0"]
    job_list = corpus.build(workload, 0).jobs
    assert sorted(job.id for job in job_list) == sorted(golden)
    for job in job_list:
        out = jobs.execute(job)
        assert out.status == "ok", (job.id, out.detail)
        assert out.digest() == golden[job.id], job.id
        assert jobs.reverify(out) == [], job.id
