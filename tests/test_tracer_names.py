"""The benchmark tracer wraps toolkit functions by name: they must resolve.

``perfbench/tracer.py`` looks every traced function up in its owner's
``__dict__``; a renamed function would only show when the benchmark runs with
``--trace 1``.  Installing the tracer here fails on such a rename, and one
traced decision checks that rank counting and elimination spans still fire.
"""

import importlib.util
from importlib import resources
from pathlib import Path

from lefschetz import checks
from lefschetz.descfiles import parse_algebra_text

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_records():
    text = (resources.files("lefschetz") / "data" / "x2y2z2.alg").read_text()
    alg = parse_algebra_text(text).build()
    L = alg.ring.parse("x + y + z")
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        rep = checks.report_for_element(alg, L, "slp")
    finally:
        tracer.uninstall()
    assert rep.holds
    assert tracer.counts["checks.rank_maps"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"checks.decide", "exactmath.rref"} <= names
