"""``scripts/profile_workload.py``: calls and wall time of wrapped functions
per pass (``--wrap``), and the summaries of the profile, on a reduced job
list.

The script is loaded by path, the way ``test_bench_pairs`` loads its script.
"""

import cProfile
import importlib.util
import json
import pstats
import re
from fractions import Fraction
from pathlib import Path

import pytest

import lefschetz
from lefschetz import algebra, exactmath
from lefschetz.exactmath import QQ

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
    from_ideal, store = algebra.from_ideal, exactmath.RowSpace.store_units
    targets = ["lefschetz.algebra:from_ideal", "lefschetz.exactmath:RowSpace.store_units"]
    got = profile_workload.wrapped_passes(jobs, job_list, targets, passes=2)
    assert list(got) == targets
    (builds, build_s), (stores, store_s) = got.values()
    assert builds == 2 and build_s > 0  # one algebra per job, called through the package
    # x^3, y^3, z^3: one bulk store for each of the degrees 0..7
    assert stores >= 2 * 8 and store_s > 0
    assert algebra.from_ideal is from_ideal and lefschetz.from_ideal is from_ideal
    assert exactmath.RowSpace.store_units is store


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


def test_workload_choices_are_the_benchmark_workloads():
    spec = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    (action,) = (a for a in profile_workload.build_parser()._actions if a.dest == "workload")
    assert list(action.choices) == [w["name"] for w in spec["workloads"]]


def _profiled(fn) -> pstats.Stats:
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    return pstats.Stats(prof)


def test_summaries_sum_self_time_by_module_and_fractions_time_by_caller(capsys):
    corpus, jobs = profile_workload._load("corpus"), profile_workload._load("jobs")
    job_list = corpus.build("ci-ladder", 0).jobs[:2]  # slp-333 over QQ and GF(32003)
    stats = _profiled(lambda: profile_workload.run_pass(jobs, job_list))
    by_module = profile_workload.self_time_by_module(stats)
    assert sum(by_module.values()) == pytest.approx(stats.total_tt)
    assert list(by_module.values()) == sorted(by_module.values(), reverse=True)
    assert {"lefschetz.exactmath", "lefschetz.algebra", "fractions"} <= set(by_module)
    by_caller = profile_workload.fraction_time_by_caller(stats)
    assert by_caller and list(by_caller.values()) == sorted(by_caller.values(), reverse=True)
    outside = profile_workload.OUTSIDE
    assert all(k == outside or re.fullmatch(r"lefschetz\.\w+\.\S+:\d+", k) for k in by_caller), by_caller
    profile_workload.print_summaries(stats, 5)
    out = capsys.readouterr().out
    assert "profiled self time by module:" in out and "lefschetz.exactmath" in out
    assert "fractions time, callees included, by direct caller" in out


def test_fractions_time_goes_to_the_toolkit_function_that_entered_the_module():
    half, third = Fraction(1, 2), Fraction(1, 3)
    stats = _profiled(lambda: [QQ.mul(half, third) for _ in range(200)])
    line = exactmath.FieldSpec.mul.__code__.co_firstlineno
    # Fraction.__mul__ calls on into fractions.py; that time is mul's
    assert list(profile_workload.fraction_time_by_caller(stats)) == [f"lefschetz.exactmath.mul:{line}"]
    assert profile_workload.module_of(exactmath.__file__) == "lefschetz.exactmath"
    assert profile_workload.module_of("~") == "(built-in)"
