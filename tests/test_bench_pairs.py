"""Verdicts of ``scripts/bench_pairs.py`` on synthetic parent/change runs.

The script is loaded by path, the way ``test_tracer_names`` loads the tracer.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()
RATE = {"name": "jobs_per_s", "better": "higher", "bound": 0.1}
LATENCY = {"name": "job_p50_ms", "better": "lower", "bound": 0.2}
TIGHT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
WIDE = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]


@pytest.mark.parametrize("metric, parent, change, verdict", [
    # tight parent runs: a change within the bound is resolved either way
    (RATE, TIGHT, [x * 0.95 for x in TIGHT], ""),
    (RATE, TIGHT, [x * 1.05 for x in TIGHT], ""),
    (RATE, TIGHT, [x * 0.85 for x in TIGHT], "WORSE"),
    (LATENCY, TIGHT, [x * 1.25 for x in TIGHT], "WORSE"),
    (LATENCY, TIGHT, [x * 0.5 for x in TIGHT], ""),
    # parent IQR (40) above bound x median (10 jobs/s, 20 ms): unresolved
    # unless every change run beats every parent run
    (RATE, WIDE, WIDE, "UNRESOLVED"),
    (RATE, WIDE, [x * 1.05 for x in WIDE], "UNRESOLVED"),
    (RATE, WIDE, [150.0 + k for k in range(10)], ""),
    (LATENCY, WIDE, [50.0 + k for k in range(10)], ""),
    (LATENCY, WIDE, [x * 1.1 for x in WIDE], "UNRESOLVED"),
    # worse beyond the bound stays WORSE however wide the spread
    (RATE, WIDE, [x * 0.5 for x in WIDE], "WORSE"),
])
def test_classify(metric, parent, change, verdict):
    assert bench_pairs.classify(metric, parent, change) == verdict


def test_unresolved_does_not_fail_the_run(monkeypatch, tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text('{"end_to_end": [{"name": "jobs_per_s", "unit": "jobs/s", '
                                             '"better": "higher", "bound": 0.1}]}')
    runs = iter([{"jobs_per_s": x} for pair in zip(WIDE, WIDE) for x in pair])
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, args: next(runs))
    assert bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "10"]) == 0
    assert "UNRESOLVED" in capsys.readouterr().out


def test_all_runs_every_workload_and_fails_on_any_worse(monkeypatch, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text('{"workloads": [{"name": "w1"}, {"name": "w2"}], "end_to_end": '
                                           '[{"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", '
                                           '"bound": 0.1}]}')
    seen = []

    def run_once(checkout, args):
        seen.append((checkout.name, args.workload))
        slow = checkout == change and args.workload == "w2"
        return {"jobs_per_s": 50.0 if slow else 100.0}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(parent), str(change), "--workload", "all", "--pairs", "3"]) == 1
    out = capsys.readouterr().out
    assert [w for _, w in seen] == ["w1"] * 6 + ["w2"] * 6
    assert "w1: 3 pairs" in out and "w2: 3 pairs" in out
    assert out.count("WORSE") == 1 and out.index("WORSE") > out.index("w2: 3 pairs")
    assert bench_pairs.main([str(parent), str(change), "--workload", "w1", "--pairs", "3"]) == 0


@pytest.mark.parametrize("metric, parent, change, want", [
    # 10/10 wins by more than the parent's IQR
    (RATE, TIGHT, [x * 1.05 for x in TIGHT], True),
    (LATENCY, TIGHT, [x * 0.9 for x in TIGHT], True),
    # 10/10 wins, but the medians differ by less than the parent's IQR (40)
    (RATE, WIDE, [x + 1 for x in WIDE], False),
    # 8/10 wins by a wide margin is not enough
    (RATE, TIGHT, [x * 1.5 for x in TIGHT[:8]] + [x * 0.9 for x in TIGHT[8:]], False),
    # 9/10 wins is enough
    (RATE, TIGHT, [x * 1.5 for x in TIGHT[:9]] + [x * 0.9 for x in TIGHT[9:]], True),
    # better in the wrong direction
    (LATENCY, TIGHT, [x * 1.05 for x in TIGHT], False),
    (RATE, TIGHT, TIGHT, False),
])
def test_gain(metric, parent, change, want):
    assert bench_pairs.gain(metric, parent, change) is want


def test_gain_and_both_spreads_are_printed(monkeypatch, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text('{"end_to_end": [{"name": "jobs_per_s", "unit": "jobs/s", '
                                           '"better": "higher", "bound": 0.1}, {"name": "job_p50_ms", '
                                           '"unit": "ms", "better": "lower", "bound": 0.2}]}')
    faster = [x * 1.3 for x in TIGHT]
    runs = {parent: iter(TIGHT), change: iter(faster)}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, args: {"jobs_per_s": next(runs[checkout]), "job_p50_ms": 100.0})
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rate = next(line for line in lines if line.strip().startswith("jobs_per_s"))
    p50 = next(line for line in lines if line.strip().startswith("job_p50_ms"))
    assert "GAIN" in rate and "change wins 10/10" in rate
    assert f"parent IQR {bench_pairs.iqr(TIGHT):8.3g}" in rate and f"change IQR {bench_pairs.iqr(faster):8.3g}" in rate
    assert "GAIN" not in p50 and "change wins 0/10" in p50
