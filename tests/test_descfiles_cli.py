import hashlib
import json
import subprocess
import sys
from importlib import resources

import pytest

from lefschetz import cli
from lefschetz.algebra import Ring
from lefschetz.descfiles import (
    DescriptionError,
    format_algebra_description,
    format_map,
    parse_algebra_text,
    parse_map_text,
)
from lefschetz.exactmath import GF, QQ


DATA = resources.files("lefschetz") / "data"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lefschetz.cli", *argv],
        capture_output=True,
        text=True,
    )


def data_path(name: str) -> str:
    return str(DATA / name)


# -- description files ---------------------------------------------------------


def test_parse_basic_ideal_file():
    desc = parse_algebra_text("vars: x, y\nideal:\nx^2\ny^2\n")
    assert desc.ring.varnames == ("x", "y")
    assert desc.ring.field == QQ
    alg = desc.build()
    assert alg.hilbert_function() == (1, 2, 1)


def test_parse_field_and_weights():
    desc = parse_algebra_text(
        "vars: x, y\nweights: 1, 3\nfield: Fp(5)\nideal:\nx^2\ny^2\n"
    )
    assert desc.ring.field == GF(5)
    assert desc.ring.weights == (1, 3)
    assert desc.build().hilbert_function() == (1, 1, 0, 1, 1)


def test_parse_dualgen_file():
    desc = parse_algebra_text("vars: x, y, z\ndualgen:\nX^2 + Y^2 + Z^2\n")
    alg = desc.build()
    assert alg.hilbert_function() == (1, 3, 1)


def test_round_trip_all_bundled_files():
    for entry in sorted(DATA.iterdir()):
        if not entry.name.endswith(".alg"):
            continue
        text = entry.read_text()
        desc = parse_algebra_text(text)
        out = format_algebra_description(desc)
        assert parse_algebra_text(out) == desc
        # formatting is a fixed point
        assert format_algebra_description(parse_algebra_text(out)) == out


def test_bundled_map_files_round_trip():
    a = parse_algebra_text((DATA / "ex71_a.alg").read_text()).build()
    t = parse_algebra_text((DATA / "ex71_t.alg").read_text()).build()
    text = (DATA / "ex71_map_a.map").read_text()
    images = parse_map_text(text, a.ring, t.ring)
    out = format_map(a.ring, t.ring, images)
    assert parse_map_text(out, a.ring, t.ring) == images


def test_parse_errors_carry_line():
    with pytest.raises(DescriptionError):
        parse_algebra_text("vars: x\nideal:\nx^2 +\n")
    with pytest.raises(DescriptionError):
        parse_algebra_text("ideal:\nx^2\n")
    with pytest.raises(DescriptionError):
        parse_algebra_text("vars: x\nfield: GF(4)\nideal:\nx^2\n")


def test_map_missing_variable():
    a = parse_algebra_text("vars: x, y\nideal:\nx^2\ny^2\n")
    t = parse_algebra_text("vars: z\nideal:\nz^2\n")
    with pytest.raises(DescriptionError):
        parse_map_text("map: x -> z", a.ring, t.ring)


# -- CLI ------------------------------------------------------------------------


def test_cli_hilbert_expect_pass_and_fail():
    good = run_cli("hilbert", data_path("x2y2z2.alg"), "--expect", "1 3 3 1")
    assert good.returncode == 0
    assert good.stdout.strip() == "1 3 3 1"
    bad = run_cli("hilbert", data_path("x2y2z2.alg"), "--expect", "1 2 1")
    assert bad.returncode == 1


# Description files the test writes, by the placeholder that stands for their path.
WRITTEN = {
    "<broken>": "vars: x\nideal:\nx^2 + *\n",
    "<half-in-f2>": "vars: x, y\nfield: Fp(2)\nideal:\nx^2\n1/2*y^2\n",
    # (10^9 + 7)(10^9 + 9): trial division would run for minutes
    "<large-composite-char>": "vars: x\nfield: Fp(1000000016000000063)\nideal:\nx^2\n",
    "<not-artinian>": "vars: x, y\nideal:\nx^2\n",
    "<not-gorenstein>": "vars: x, y\nideal:\nx^2\nx*y\ny^2\n",
}
# Map files the test writes, likewise.
WRITTEN_MAPS = {
    "<zero-map>": "map: x -> 0; y -> 0\n",
    "<identity-map>": "map: x -> x; y -> y\n",
}

# Inputs the toolkit must reject with exit 2, one "error:" line on stderr and
# nothing on stdout, whichever layer notices the problem.
INPUT_ERRORS = [
    ["hilbert", "/nonexistent/path.alg"],
    ["hilbert", "<broken>"],
    ["sl2", "--element", "x", data_path("x2y2z2.alg")],
    ["sl2", "--element", "x+y+z", data_path("x2y2z2_f2.alg")],
    ["nll", data_path("ikeda.alg")],
    ["nll", "--mode", "strong", data_path("stanley_333.alg")],
    ["hessian", data_path("x2y2z2_f2.alg")],
    ["check", "--mode", "wlp", "--element", "x^2", data_path("x2y2z2.alg")],
    ["jordan", "--element", "x*y", data_path("x2y2z2.alg")],
    ["hessian", "--degree", "9", data_path("ikeda.alg")],
    # denominators that vanish in the field
    ["hilbert", "<half-in-f2>"],
    # a characteristic that is composite
    ["hilbert", "<large-composite-char>"],
    ["jordan", "--element", "1/2*x+y+z", data_path("x2y2z2_f2.alg")],
    ["blowup", data_path("notgor_a.alg"), data_path("notgor_t.alg"),
     "--map", data_path("notgor_map.map"), "--coeffs", "x;0", "--lam", "1/0"],
    # a connected sum over T needs both maps
    ["connect-sum", data_path("ex71_a.alg"), data_path("ex71_b.alg"), data_path("ex71_t.alg"),
     "--map-a", data_path("ex71_map_a.map")],
    # an --out path that cannot be written
    ["tensor", data_path("x2y2.alg"), data_path("x2y2.alg"), "--out", "/nonexistent/dir/x.alg"],
    ["connect-sum", data_path("x2y2.alg"), data_path("x2y2.alg"),
     "--out", "/nonexistent/dir/x.alg"],
    # sampling needs at least one trial and a positive coefficient bound
    ["check", "--mode", "wlp", "--generic", "--trials", "0", data_path("x2y2z2.alg")],
    ["check", "--mode", "wlp", "--generic", "--bound", "-5", data_path("x2y2z2.alg")],
    ["socle", "<not-artinian>"],
    ["ann", "<not-artinian>"],
    ["dualgen", "<not-gorenstein>"],
    # f-vectors that are not integer lists of the stated length
    ["hvector", "--fvector", "3,x", "--dim", "2"],
    ["hvector", "--fvector", "3", "--dim", "2"],
    ["hvector", "--fvector", "3,3", "--dim", "-1"],
    # a connected sum needs equal socle degrees
    ["connect-sum", data_path("x2y2.alg"), data_path("notgor_a.alg")],
    # a fiber product needs surjective maps
    ["fiber-product", data_path("ex71_a.alg"), data_path("ex71_b.alg"), data_path("ex71_t.alg"),
     "--map-a", "<zero-map>", "--map-b", data_path("ex71_map_b.map")],
    # a blowup needs a socle degree of A above that of T, and n - 1 middle coefficients
    ["blowup", data_path("x2y2.alg"), data_path("x2y2.alg"), "--map", "<identity-map>"],
    ["blowup", data_path("notgor_a.alg"), data_path("notgor_t.alg"),
     "--map", data_path("notgor_map.map"), "--coeffs", "x"],
    # an orientation element with no top-degree component
    ["connect-sum", data_path("ex71_a.alg"), data_path("ex71_b.alg"), data_path("ex71_t.alg"),
     "--map-a", data_path("ex71_map_a.map"), "--map-b", data_path("ex71_map_b.map"), "--orient-a", "x"],
]


def test_cli_input_error_exit_2(tmp_path):
    paths = {}
    for suffix, written in ((".alg", WRITTEN), (".map", WRITTEN_MAPS)):
        for placeholder, text in written.items():
            paths[placeholder] = tmp_path / f"{placeholder.strip('<>')}{suffix}"
            paths[placeholder].write_text(text)
    for argv in INPUT_ERRORS:
        out = run_cli(*(str(paths.get(a, a)) for a in argv))
        lines = out.stderr.splitlines()
        assert out.returncode == 2, (argv, out.stderr)
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, out.stderr)
        assert out.stdout == "", argv


# `lefschetz sl2 --json` results, pinned by the sha256 of the canonical dump
SL2_RESULTS = {
    ("x2y2.alg", "x+y"): "c5cf4159185412166c1138cd90cbec5e1e4926e381d0f312a19ff5f86f35f5de",
    ("x2y2z2.alg", "x+y+z"): "9fa1f541b987e3d5f0dce5c02c239997f846e5dffacaa165377468c973dfa310",
    ("stanley_333.alg", "x+y+z"): "c79b660f3141f4e01f91edb90bc2c76ca2426ad58cb927ce369e2b275c90101c",
}


def test_cli_sl2_json_results_pinned():
    import hashlib

    for (name, element), want in SL2_RESULTS.items():
        out = run_cli("sl2", "--json", "--element", element, data_path(name))
        assert out.returncode == 0, out.stderr
        results = json.loads(out.stdout)["results"]
        got = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
        assert got == want, name


def test_cli_check_generic_witness():
    out = run_cli(
        "check",
        "--mode",
        "slp",
        "--generic",
        "--seed",
        "7",
        data_path("stanley_333.alg"),
    )
    assert out.returncode == 0
    assert "slp holds" in out.stdout
    assert "witness:" in out.stdout


def test_cli_json_reports_are_deterministic():
    args = (
        "check",
        "--mode",
        "wlp",
        "--generic",
        "--seed",
        "3",
        "--json",
        data_path("x2y2z2.alg"),
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    rep = json.loads(a.stdout)
    assert rep["schema"] == 1
    assert rep["results"]["verdict"] is True
    assert rep["certification"]["seed"] == 3


def test_cli_seed_from_environment():
    import os

    env = dict(os.environ)
    env["LEFSCHETZ_SEED"] = "12"
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "lefschetz.cli",
            "check",
            "--mode",
            "wlp",
            "--generic",
            "--json",
            data_path("x2y2z2.alg"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    rep = json.loads(out.stdout)
    assert rep["certification"]["seed"] == 12


def test_cli_check_char2_fails_exhaustively():
    out = run_cli(
        "check", "--mode", "wlp", "--generic", "--json", data_path("x2y2z2_f2.alg")
    )
    rep = json.loads(out.stdout)
    assert rep["results"]["verdict"] is False
    assert rep["certification"]["mode"] == "exhaustive"


def test_cli_fiber_product_and_connect_sum():
    fp = run_cli(
        "fiber-product",
        data_path("ex71_a.alg"),
        data_path("ex71_b.alg"),
        data_path("ex71_t.alg"),
        "--map-a",
        data_path("ex71_map_a.map"),
        "--map-b",
        data_path("ex71_map_b.map"),
        "--expect",
        "1 3 5 4 2",
    )
    assert fp.returncode == 0
    cs = run_cli(
        "connect-sum",
        data_path("ex71_a.alg"),
        data_path("ex71_b.alg"),
        data_path("ex71_t.alg"),
        "--map-a",
        data_path("ex71_map_a.map"),
        "--map-b",
        data_path("ex71_map_b.map"),
        "--expect",
        "1 3 5 3 1",
    )
    assert cs.returncode == 0


def test_cli_blowup():
    out = run_cli(
        "blowup",
        data_path("notgor_a.alg"),
        data_path("notgor_t.alg"),
        "--map",
        data_path("notgor_map.map"),
        "--coeffs",
        "x;0",
        "--lam",
        "1",
        "--json",
    )
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["results"]["hilbert_function"] == [1, 3, 5, 3, 1]
    assert rep["results"]["gorenstein"] is True
    assert rep["results"]["thom_class"] == "x*y^2"
    assert rep["results"]["square_commutes"] is True
    assert rep["results"]["exceptional_divisor_hilbert"] == [1, 2, 2, 1]


def test_cli_dualgen_and_hessian():
    out = run_cli("dualgen", data_path("x2y2z2.alg"), "--expect", "X*Y*Z")
    assert out.returncode == 0
    h = run_cli("hessian", data_path("sum_of_squares.alg"), "--degree", "1")
    assert h.returncode == 0
    assert h.stdout.strip() == "8"


def test_cli_weighted_check():
    out = run_cli(
        "check",
        "--mode",
        "wlp",
        "--element",
        "x",
        data_path("weighted_y3.alg"),
    )
    assert out.returncode == 0
    assert "wlp holds" in out.stdout


def test_cli_paper_suite_passes():
    out = run_cli("paper-suite", "--json")
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["results"]["failed"] == 0
    assert rep["results"]["passed"] >= 25


@pytest.mark.parametrize("expect, code, err_lines", [("0/29 passed", 1, 1), ("29/29 passed", 0, 0)])
def test_cli_paper_suite_expect(expect, code, err_lines):
    out = run_cli("paper-suite", "--expect", expect)
    assert out.returncode == code
    assert out.stdout.splitlines()[-1] == "29/29 cases passed"
    assert len(out.stderr.splitlines()) == err_lines
    if err_lines:
        assert out.stderr == f"expected {expect!r}, got '29/29 passed'\n"


# -- in-process runs ------------------------------------------------------------


PARSER_RUNS = [
    ["hilbert", data_path("x2y2z2.alg"), "--json"],
    ["hilbert", "/nonexistent/path.alg"],
    ["hilbert", data_path("x2y2z2.alg"), "--expect", "1,3,3"],
    ["socle", data_path("x2y2z2.alg")],
]


def _main_runs(capsys, runs):
    out = []
    for argv in runs:
        code = cli.main(argv)
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_shared_parser_matches_fresh_parsers(capsys, monkeypatch):
    shared = _main_runs(capsys, PARSER_RUNS)
    assert [code for code, _, _ in shared] == [0, 2, 1, 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert _main_runs(capsys, PARSER_RUNS) == shared


@pytest.mark.parametrize(
    "env, argv, want",
    [(None, [], 0), ("7", [], 7), ("7", ["--seed", "3"], 3), ("7", ["--seed", "0"], 0)],
)
def test_hessian_seed_follows_the_flag_then_the_environment(monkeypatch, capsys, env, argv, want):
    seen = []
    original = cli.slp_by_hessian

    def recording(alg, **kwargs):
        seen.append(kwargs["seed"])
        return original(alg, **kwargs)

    monkeypatch.setattr(cli, "slp_by_hessian", recording)
    if env is None:
        monkeypatch.delenv("LEFSCHETZ_SEED", raising=False)
    else:
        monkeypatch.setenv("LEFSCHETZ_SEED", env)
    assert cli.main(["hessian", data_path("sum_of_squares.alg"), *argv]) == 0
    assert seen == [want]


def test_hessian_criterion_refuses_weighted_gradings(tmp_path, capsys):
    # x^3, y^2 with weights 1, 2: every Hessian determinant is nonzero, yet
    # L^4 : A_0 -> A_4 is 0, since only x has degree 1 and x^3 = 0
    path = tmp_path / "w12.alg"
    path.write_text("vars: x, y\nweights: 1, 2\nideal:\nx^3\ny^2\n")
    assert cli.main(["check", str(path), "--mode", "slp"]) == 0
    assert capsys.readouterr().out.startswith("slp fails (symbolic)")
    for name in (str(path), data_path("weighted_y3.alg")):
        assert cli.main(["hessian", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the Hessian criterion applies to standard gradings only (every weight 1)"]
    # one Hessian determinant is still computed on request
    assert cli.main(["hessian", str(path), "--degree", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["vanishes"] is False


# file -> (weak, strong) conditions of ``nll --json``, recorded when the
# generic powers were products of the symbolic step matrices; None is an
# input error.  weighted_y3.alg --mode strong (h = 1, 1, 0, 1, 1) raised an
# IndexError then: its map A_1 -> A_3 passes A_2 = 0, so its locus is "0".
NLL_CONDITIONS = {
    "ex71_a.alg": (["a2"], ["a2", "a1*a2"]),
    "ex71_b.alg": ([], ["a1*a2"]),
    "ex71_t.alg": (["a1"], ["a1"]),
    "ikeda.alg": (None, None),
    "notgor_a.alg": ([], ["a1*a2"]),
    "notgor_t.alg": (["a1"], ["a1"]),
    "perazzo.alg": (["0"], ["0", "a1*a4^2 + a2*a4*a5 + a3*a5^2"]),
    "stanley_333.alg": (None, None),
    "sum_of_squares.alg": ([], ["a1^2 + a2^2 + a3^2"]),
    "weighted_y3.alg": (["a1"], ["a1", "0"]),
    "x2y2.alg": ([], ["a1*a2"]),
    "x2y2z2.alg": (["a1*a2*a3"], ["a1*a2*a3"]),
    "x2y2z2_f2.alg": (["0"], ["0"]),
}


def test_nll_conditions_cover_every_bundled_file():
    assert sorted(NLL_CONDITIONS) == sorted(e.name for e in DATA.iterdir() if e.name.endswith(".alg"))


@pytest.mark.parametrize("mode", ["weak", "strong"])
@pytest.mark.parametrize("name", sorted(NLL_CONDITIONS))
def test_cli_nll_on_every_bundled_file(capsys, name, mode):
    code = cli.main(["nll", data_path(name), "--mode", mode, "--json"])
    captured = capsys.readouterr()
    want = NLL_CONDITIONS[name][mode == "strong"]
    if want is None:
        assert (code, captured.out) == (2, "")
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    else:
        assert code == 0
        assert json.loads(captured.out)["results"]["conditions"] == want


def test_tensor_check_failure_exits_2_with_one_error_line(monkeypatch, capsys):
    def broken(a, b):
        raise AssertionError("tensor product violates the convolution identity")

    monkeypatch.setattr(cli, "tensor_product", broken)
    assert cli.main(["tensor", data_path("x2y2.alg"), data_path("x2y2.alg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: tensor product violates the convolution identity"]


def guarded_fiber_product(tmp_path) -> list:
    """The argv of A x_k B of two algebras with A_1 and B_1 of dimensions 5
    and 4: its nine degree-one generators exceed the presentation guard of
    eight."""
    files = {
        "a.alg": "vars: a, b, c, d, e\nideal:\n" + "\n".join(f"{x}*{y}" for x in "abcde" for y in "abcde" if x <= y),
        "b.alg": "vars: u, v, w, s\nideal:\n" + "\n".join(f"{x}*{y}" for x in "uvws" for y in "uvws" if x <= y),
        "k.alg": "vars: t\nideal:\nt\n",
        "a.map": "map: " + "; ".join(f"{x} -> 0" for x in "abcde") + "\n",
        "b.map": "map: " + "; ".join(f"{x} -> 0" for x in "uvws") + "\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    p = lambda name: str(tmp_path / name)
    return ["fiber-product", p("a.alg"), p("b.alg"), p("k.alg"), "--map-a", p("a.map"), "--map-b", p("b.map")]


def test_presentation_size_guard_is_labelled(tmp_path, capsys):
    assert cli.main(guarded_fiber_product(tmp_path) + ["--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["hilbert_function"] == [1, 9]
    assert results["presentation"] == "omitted (size guard)"
    assert "description" not in results


def test_presentation_size_guard_is_named_in_the_human_output(tmp_path, capsys):
    assert cli.main(guarded_fiber_product(tmp_path)) == 0
    assert capsys.readouterr().out.splitlines() == ["H = [1, 9]; gorenstein: False", "presentation: omitted (size guard)"]


def test_out_without_a_presentation_exits_2_and_writes_nothing(tmp_path, capsys):
    # ikeda x_k perazzo over k = Q[w]/(w) with zero maps has nine degree-one
    # generators: there is no presentation to write
    (tmp_path / "k.alg").write_text("vars: w\nideal:\nw\n")
    (tmp_path / "za.map").write_text("map: x -> 0; y -> 0; z -> 0; w -> 0\n")
    (tmp_path / "zb.map").write_text("map: x -> 0; y -> 0; z -> 0; u -> 0; v -> 0\n")
    out = tmp_path / "out.alg"
    argv = ["fiber-product", data_path("ikeda.alg"), data_path("perazzo.alg"), str(tmp_path / "k.alg"),
            "--map-a", str(tmp_path / "za.map"), "--map-b", str(tmp_path / "zb.map"), "--out", str(out)]
    for extra in ([], ["--json"]):
        assert cli.main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: cannot write {out}: presentation omitted by the size guard")
        assert not out.exists()
    # without --out the same command reports the Hilbert function and exits 0
    assert cli.main(argv[:-2]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "H = [1, 9, 15, 11, 4, 1]; gorenstein: False", "presentation: omitted (size guard)"]


def test_failed_presentation_check_exits_2_with_one_error_line(monkeypatch, capsys):
    def broken(alg):
        raise AssertionError("extracted presentation has the wrong Hilbert function")

    monkeypatch.setattr(cli, "presented_algebra", broken)
    argv = ["fiber-product", data_path("ex71_a.alg"), data_path("ex71_b.alg"), data_path("ex71_t.alg"),
            "--map-a", data_path("ex71_map_a.map"), "--map-b", data_path("ex71_map_b.map"), "--json"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: extracted presentation has the wrong Hilbert function"]


def test_jordan_check_failure_exits_2_with_one_error_line(monkeypatch, capsys):
    from lefschetz import checks

    def broken(table):
        raise AssertionError("strand bookkeeping lost dimensions")

    monkeypatch.setattr(checks, "_jordan_type", broken)
    assert cli.main(["jordan", "--element", "x+y+z", data_path("x2y2z2.alg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: strand bookkeeping lost dimensions"]


def test_blowup_command_computes_one_thom_class(monkeypatch, capsys):
    from lefschetz import constructions

    calls = []
    real = constructions.thom_class

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(constructions, "thom_class", counted)
    monkeypatch.setattr(cli, "thom_class", counted, raising=False)
    monkeypatch.chdir(str(DATA))
    argv = ["blowup", "notgor_a.alg", "notgor_t.alg", "--map", "notgor_map.map", "--coeffs", "x;0", "--lam", "1", "--json"]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    # the report's bytes, recorded when the command computed the class twice
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "7df2d977f35a73d71c331a65d796af1f3e8e374a22fd7e2c16805db838d29451"


@pytest.mark.parametrize(
    "option, value, argv",
    [
        ("--lam", "-1/3", ["blowup", "notgor_a.alg", "notgor_t.alg", "--map", "notgor_map.map", "--coeffs", "x;0"]),
        ("--coeffs", "-x;0", ["blowup", "notgor_a.alg", "notgor_t.alg", "--map", "notgor_map.map"]),
        ("--element", "-x+y+z", ["check", "x2y2z2.alg", "--mode", "slp"]),
        ("--expect", "-1", ["hilbert", "x2y2z2.alg"]),
    ],
)
def test_a_separate_value_may_start_with_a_dash(monkeypatch, capsys, option, value, argv):
    # argparse alone reads a separate value such as "-1/3" as an option; it
    # is the option's value, as in the "--lam=-1/3" form
    monkeypatch.chdir(str(DATA))
    for tail in (["--json"], []):
        joined, separate = _main_runs(capsys, [[*argv, f"{option}={value}", *tail], [*argv, option, value, *tail]])
        assert separate == joined
        assert joined[0] in (0, 1) and joined[1]


def test_an_option_after_a_value_option_stays_an_option(capsys):
    # "--out --json" is a missing value, not an output file named "--json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["tensor", data_path("x2y2.alg"), data_path("x2y2.alg"), "--out", "--json"])
    assert exc.value.code == 2
    assert "argument --out: expected one argument" in capsys.readouterr().err


def test_check_refuses_generic_with_element(capsys):
    # an element check would ignore --generic, so the pair is an input error
    path = data_path("x2y2z2.alg")
    assert cli.main(["check", "--mode", "wlp", "--generic", "--element", "x+y+z", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --generic and --element exclude each other"]
    for flags in (["--element", "x+y+z"], ["--generic"]):
        assert cli.main(["check", "--mode", "wlp", *flags, path]) == 0
        assert capsys.readouterr().out.startswith("wlp holds")
