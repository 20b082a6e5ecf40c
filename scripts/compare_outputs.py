#!/usr/bin/env python3
"""Compare the command-line outputs of two checkouts, byte for byte.

    python3 scripts/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout directories.  The command set is, on every
bundled ``src/lefschetz/data/*.alg`` file (as listed in PARENT), each with
``--json``: ``hilbert``, ``socle``, ``dualgen``, ``ann``, ``check --mode M``
for M in wlp, slp and slpn (plain, ``--certify`` and ``--generic --seed 7``),
``nll --mode weak``, ``nll --mode strong``, ``hessian`` and ``sl2 --element``
the sum of the file's variables (a refusal, exit 2, is compared as any other
output); then the five construction commands of the README and two with
non-default orientations (``connect-sum`` over T) and a non-default lambda
(``blowup``), each plain and with ``--json``; then ``paper-suite --json``.

Each checkout runs the whole set in one subprocess, with its own ``src`` on
``PYTHONPATH`` and its root as the working directory, calling
``lefschetz.cli.main`` in-process and recording each command's stdout,
stderr and exit code.  Every command whose stdout, stderr or exit code
differs between the two is printed with the first differing line, then
the line counts of the ``.py`` files under ``src/`` of both checkouts, then
the number of commands and of differing ones.  The exit status is 1 if any
command differs, 0 otherwise.  Nothing is written to either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

DATA = Path("src") / "lefschetz" / "data"

# Run by ``python -c`` inside a checkout: read the commands as JSON on stdin,
# write [stdout, stderr, exit code] per command as JSON on stdout.
RUNNER = """
import contextlib, io, json, sys
from lefschetz.cli import main
out = []
for argv in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out.append([stdout.getvalue(), stderr.getvalue(), code])
json.dump(out, sys.__stdout__)
"""


def bundled_files(checkout: Path) -> list[str]:
    return sorted(str(DATA / p.name) for p in (checkout / DATA).glob("*.alg"))


def construction_commands() -> list[list[str]]:
    """The five construction commands of the README, then ``connect-sum`` over T
    with three orientations and ``blowup`` with lambda and the orientation of
    T given, each plain and with ``--json``."""
    d = str(DATA)
    ex71 = [f"{d}/ex71_a.alg", f"{d}/ex71_b.alg", f"{d}/ex71_t.alg",
            "--map-a", f"{d}/ex71_map_a.map", "--map-b", f"{d}/ex71_map_b.map"]
    notgor = [f"{d}/notgor_a.alg", f"{d}/notgor_t.alg", "--map", f"{d}/notgor_map.map", "--coeffs", "x;0"]
    seven = [
        ["tensor", f"{d}/x2y2.alg", f"{d}/x2y2.alg"],
        ["fiber-product", *ex71],
        ["connect-sum", *ex71],
        ["connect-sum", f"{d}/x2y2.alg", f"{d}/x2y2.alg"],
        ["blowup", *notgor, "--lam", "1"],
        ["connect-sum", *ex71, "--orient-a", "2*x*y^3", "--orient-b", "-u^2*v^2", "--orient-t", "3*z"],
        ["blowup", *notgor, "--lam", "-1/3", "--orient-t", "2*x"],
    ]
    return seven + [cmd + ["--json"] for cmd in seven]


def variable_sum(checkout: Path, path: str) -> str:
    """The sum of the variables on the ``vars:`` line of a description file."""
    line = next(line for line in (checkout / path).read_text().splitlines() if line.startswith("vars:"))
    return "+".join(v.strip() for v in line[len("vars:"):].split(","))


def command_set(checkout: Path, files: list[str]) -> list[list[str]]:
    """The commands on the files, each relative to ``checkout``."""
    out = []
    for f in files:
        out += [[name, f, "--json"] for name in ("hilbert", "socle", "dualgen", "ann")]
        for mode in ("wlp", "slp", "slpn"):
            for extra in ([], ["--certify"], ["--generic", "--seed", "7"]):
                out.append(["check", "--mode", mode, *extra, f, "--json"])
        out += [["nll", f, "--mode", mode, "--json"] for mode in ("weak", "strong")]
        out.append(["hessian", f, "--json"])
        out.append(["sl2", f, "--element", variable_sum(checkout, f), "--json"])
    return out + construction_commands() + [["paper-suite", "--json"]]


def run_side(checkout: Path, commands: list[list[str]]) -> list[list]:
    """[stdout, stderr, exit code] of each command, run in one subprocess in
    ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(commands), capture_output=True,
                          text=True, cwd=checkout, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: the runner failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def src_lines(checkout: Path) -> int:
    """The number of lines of the ``.py`` files under ``checkout/src``."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def first_difference(a: str, b: str) -> str:
    for k, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {k}: {x!r} != {y!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    args = ap.parse_args(argv)
    commands = command_set(args.parent, bundled_files(args.parent))
    parent, change = run_side(args.parent, commands), run_side(args.change, commands)
    differ = 0
    for cmd, p, c in zip(commands, parent, change):
        for label, x, y in (("stdout", p[0], c[0]), ("stderr", p[1], c[1]), ("exit code", str(p[2]), str(c[2]))):
            if x != y:
                differ += 1
                print(f"lefschetz {' '.join(cmd)}: {label} differs, {first_difference(x, y)}")
                break
    print(f"src .py lines: {src_lines(args.parent)} -> {src_lines(args.change)}")
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
