"""``scripts/compare_outputs.py`` on the repository against itself, and on a
runner that makes one output differ.

The script is loaded by path, the way ``test_bench_pairs`` loads its script.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_outputs.py"
SUBSET = ["src/lefschetz/data/perazzo.alg", "src/lefschetz/data/x2y2.alg"]


def _load():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _load()


def test_a_checkout_matches_itself(monkeypatch, capsys):
    monkeypatch.setattr(compare_outputs, "bundled_files", lambda checkout: SUBSET)
    assert compare_outputs.main([str(ROOT), str(ROOT)]) == 0
    commands = compare_outputs.command_set(ROOT, SUBSET)
    assert capsys.readouterr().out.splitlines()[-1] == f"{len(commands)} commands, 0 differ"


def test_the_command_set_on_the_bundled_files():
    # 13 bundled files of 17 commands each, seven construction commands plain
    # and with --json, and paper-suite
    files = compare_outputs.bundled_files(ROOT)
    assert len(files) == 13
    assert len(compare_outputs.construction_commands()) == 14
    assert len(compare_outputs.command_set(ROOT, files)) == 236


def test_one_differing_line_fails_the_comparison(monkeypatch, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    monkeypatch.setattr(compare_outputs, "bundled_files", lambda checkout: SUBSET)
    # the checkouts are empty: the sl2 elements are read from this one
    variable_sum = compare_outputs.variable_sum
    monkeypatch.setattr(compare_outputs, "variable_sum", lambda checkout, path: variable_sum(ROOT, path))

    def runner(checkout, commands):
        out = [["same\n", "", 0] for _ in commands]
        if checkout == change:
            out[3] = ["other\n", "", 0]
        return out

    monkeypatch.setattr(compare_outputs, "run_side", runner)
    assert compare_outputs.main([str(parent), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    cmd = " ".join(compare_outputs.command_set(ROOT, SUBSET)[3])
    assert lines == [f"lefschetz {cmd}: stdout differs, line 1: 'same' != 'other'",
                     "src .py lines: 0 -> 0",
                     f"{len(compare_outputs.command_set(ROOT, SUBSET))} commands, 1 differ"]
