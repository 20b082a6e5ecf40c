"""``scripts/profile_workload.py --wrap``: calls and wall time of wrapped
functions per pass, on a reduced job list.

The script is loaded by path, the way ``test_bench_pairs`` loads its script.
"""

import importlib.util
from pathlib import Path

import pytest

import lefschetz
from lefschetz import algebra, exactmath

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "profile_workload.py"


def _load():
    spec = importlib.util.spec_from_file_location("profile_workload", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


profile_workload = _load()


def test_wrapped_passes_count_calls_per_pass_and_restore_the_functions():
    corpus, jobs = profile_workload._load("corpus"), profile_workload._load("jobs")
    job_list = corpus.build("ci-ladder", 0).jobs[:2]  # slp-333 over QQ and GF(32003)
    from_ideal, store = algebra.from_ideal, exactmath.RowSpace.store_reduced
    targets = ["lefschetz.algebra:from_ideal", "lefschetz.exactmath:RowSpace.store_reduced"]
    got = profile_workload.wrapped_passes(jobs, job_list, targets, passes=2)
    assert list(got) == targets
    (builds, build_s), (stores, store_s) = got.values()
    assert builds == 2 and build_s > 0  # one algebra per job, called through the package
    # x^3, y^3, z^3: the unit rows of degrees 3..6 and the full degree 7
    ring = algebra.Ring(("x", "y", "z"), exactmath.QQ)
    per_job = sum(len(ring.monomials(d)) for d in range(3, 8)) - sum((1, 3, 6, 7, 6, 3, 1)[3:])
    assert stores >= 2 * per_job and store_s > 0
    assert algebra.from_ideal is from_ideal and lefschetz.from_ideal is from_ideal
    assert exactmath.RowSpace.store_reduced is store


def test_only_outermost_calls_are_counted():
    record = [0, 0.0]

    def fact(n):
        return 1 if n < 2 else n * timed(n - 1)

    timed = profile_workload.outermost_timer(fact, record)
    assert timed(6) == 720 and timed(3) == 6
    assert record[0] == 2 and record[1] > 0


def test_a_target_that_cannot_be_bound_is_an_error():
    corpus, jobs = profile_workload._load("corpus"), profile_workload._load("jobs")
    job_list = corpus.build("ci-ladder", 0).jobs[:1]
    from_ideal = algebra.from_ideal
    # json.dumps lives outside the toolkit, so no lefschetz module is patched
    targets = ["lefschetz.algebra:from_ideal", "json:dumps"]
    with pytest.raises(SystemExit, match="json:dumps"):
        profile_workload.wrapped_passes(jobs, job_list, targets, passes=1)
    assert algebra.from_ideal is from_ideal and lefschetz.from_ideal is from_ideal
