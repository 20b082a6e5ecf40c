"""Seed-0 benchmark jobs against their recorded results.

The benchmark compares every result with ``perfbench/golden``.  Running each
job of seed 0 once here makes a change that moves a verdict, a witness, a
certification label, a map rank or the bytes of a CLI report fail the test
suite as well.  The benchmark's modules are loaded by path, the way
``test_tracer_names`` loads the tracer.
"""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


corpus = _load("corpus")
jobs = _load("jobs")


@pytest.mark.parametrize("workload", ["ci-ladder", "gorenstein-survey", "constructions-cli"])
def test_seed_zero_results_match_the_golden_digests(workload, tmp_path, monkeypatch):
    golden = json.loads((PERFBENCH / "golden" / f"{workload}.json").read_text(encoding="utf-8"))["0"]
    built = corpus.build(workload, 0)
    # CLI jobs name their inputs by paths relative to the checkout, and the
    # reports echo them: generated files and the bundled data go to tmp_path
    built.write_files(tmp_path)
    shutil.copytree(ROOT / corpus.DATA, tmp_path / corpus.DATA)
    monkeypatch.chdir(tmp_path)
    job_list = built.jobs
    assert sorted(job.id for job in job_list) == sorted(golden)
    for job in job_list:
        out = jobs.execute(job)
        assert out.status == "ok", (job.id, out.detail)
        assert out.digest() == golden[job.id], job.id
        assert jobs.reverify(out) == [], job.id
