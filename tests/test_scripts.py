"""The experiment scripts in ``scripts/`` run to the end against the current
package: each in a subprocess, checked for exit 0 and one line it prints."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, line", [
    (["blowup_explorer.py"], "  H(bug)  = (1, 6, 12, 17, 17, 12, 6, 1)"),
    (["random_gorenstein_survey.py", "--samples", "2"], "  total      2"),
])
def test_experiment_script_runs(argv, line):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert line in out.stdout.splitlines()
