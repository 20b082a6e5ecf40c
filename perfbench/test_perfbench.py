"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
from calibrate import NOMINAL_REF_S, Calibrator  # noqa: E402
from harness import tail  # noqa: E402
from tracer import layer_totals, self_times  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = corpus.corpus_bytes(corpus.build(workload, 11))
    assert first == corpus.corpus_bytes(corpus.build(workload, 11))
    assert first != corpus.corpus_bytes(corpus.build(workload, 12))


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.speed = 1.0  # > 1 means the host runs slow

    def __call__(self):
        return self.now

    def spend(self, nominal_s):
        self.now += nominal_s * self.speed


def test_calibration_on_a_synthetic_clock():
    clock = FakeClock()
    cal = Calibrator(clock=clock, kernel=lambda: clock.spend(NOMINAL_REF_S))
    work = [0.5, 0.02, 1.5, 0.3]
    scaled = []
    cal.probe()
    for i, nominal in enumerate(work * 3):
        clock.speed = (1.0, 1.8, 0.6)[i // len(work)]  # three host-speed phases
        _, raw, window = cal.time(lambda: clock.spend(nominal))
        scaled.append((raw, window))
    cal.probe()
    expected = work * 3
    got = [cal.scaled(raw, window) for raw, window in scaled]
    # the first job of a phase sees two probes of each phase: the median
    # mixes them; every other job comes out exact
    mixed = {4: 1.8 / 1.4, 8: 0.6 / 1.2}
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g == pytest.approx(e * mixed.get(i, 1.0), rel=1e-9)
    # one preempted probe does not move the scale of the jobs around it
    cal.refs[2] *= 50
    assert cal.scaled(*scaled[2]) == pytest.approx(expected[2], rel=1e-9)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ["job", 0.0, 10.0, -1, "a"],
        ["checks.decide", 1.0, 9.0, 0, "a"],
        ["exactmath.rref", 2.0, 4.0, 1, "a"],
        ["exactmath.matmul", 5.0, 6.0, 1, "a"],
        ["exactmath.rref", 5.2, 5.7, 3, "a"],
        ["exactmath.rref", 0.0, 3.0, -1, "b"],
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 5.0, 2: 2.0, 3: 0.5, 4: 0.5, 5: 3.0})
    seconds, calls = layer_totals(spans, {"a": 1.0, "b": 2.0})
    assert seconds["exactmath.rref"] == pytest.approx(2.0 + 0.5 + 6.0)
    assert seconds["checks.decide"] == pytest.approx(5.0)
    assert calls["exactmath.rref"] == 3


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert tail(values) == (90, 90.0)
    assert tail(values[:5]) == (5, 100.0)


def _run(cwd, *args, timeout=600):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    violations = {line.split(":")[1].strip() for line in proc.stdout.splitlines()
                  if "contract violation:" in line}
    if workload == "constructions-cli":
        # exit-code contract violations are confined to the error invocations
        assert violations <= {name for name, _ in corpus.ERROR_CONTRACT}
    else:
        assert not violations


def test_refuses_to_run_without_the_toolkit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "ci-ladder", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
