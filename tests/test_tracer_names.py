"""The benchmark tracer wraps toolkit functions by name: they must resolve.

``perfbench/tracer.py`` looks every traced function up in its owner's
``__dict__``; a renamed function would only show when the benchmark runs with
``--trace 1``.  Installing the tracer here fails on such a rename; one traced
decision checks that rank counting and sparse elimination spans fire with no
dense power matrix, rref or matrix product; a traced sl2 triple on the same
algebra that it opens only its own span and sparse elimination; the triple's
dense checks and direct calls of the dense views that the product, kernel,
rref, inverse and dense power spans still fire; a traced connected sum and
blowup that the model spans, whose wrappers look up each model's
``multiply``, still fire; and a traced certified negative that its
symbolic work lands in the decision and in Bareiss, with no polynomial matrix
products.
"""

import importlib.util
from importlib import resources
from pathlib import Path

from lefschetz import checks, exactmath, sl2
from lefschetz.constructions import algebra_map, blowup, connected_sum
from lefschetz.descfiles import parse_algebra_text, parse_map_text
from lefschetz.exactmath import Matrix

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
    assert {"checks.decide", "exactmath.rowspace"} <= names
    # powers of L are pushed sparse columns, ranked as they are built: no
    # dense view, rref or matrix product on the way to a verdict
    assert not {"exactmath.matmul", "exactmath.rref", "checks.power_matrix"} & names

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        triple = sl2.triple_from_lefschetz(alg, L)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    # the triple is solved on the chains' sparse columns: no dense power,
    # inverse or matrix product
    assert names == {"sl2.triple", "exactmath.rowspace"}
    assert not {"exactmath.invert", "exactmath.matmul", "checks.power_matrix"} & names

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert sl2.verify_triple(triple)
        sl2.weight_decomposition(triple.h)
        table = checks.RankTable(alg, checks.degree_one_vector(alg, L))
        checks.power_map_matrix(table, 2, 1)
        m = Matrix.from_rows(alg.field, [[1, 2], [3, 4]])
        exactmath.rref(m)
        exactmath.invert(m)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    # the dense checks of a triple and the dense views, called directly
    assert {"exactmath.matmul", "exactmath.kernel", "exactmath.rref", "exactmath.invert",
            "checks.power_matrix"} <= names


def _read(name):
    return (resources.files("lefschetz") / "data" / name).read_text()


def test_tracer_spans_the_construction_models():
    a, b, t = (parse_algebra_text(_read(f"ex71_{k}.alg")).build() for k in "abt")
    na, nt = (parse_algebra_text(_read(f"notgor_{k}.alg")).build() for k in "at")
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        pa = algebra_map(a, t, parse_map_text(_read("ex71_map_a.map"), a.ring, t.ring))
        pb = algebra_map(b, t, parse_map_text(_read("ex71_map_b.map"), b.ring, t.ring))
        cs = connected_sum(a, b, t, pa, pb)
        pi = algebra_map(na, nt, parse_map_text(_read("notgor_map.map"), na.ring, nt.ring))
        bug = blowup(na, nt, pi, [na.ring.parse("x"), na.ring.parse("0")], 1)
        e = Matrix.identity(cs.field, cs.dim(1)).entries
        cs.multiply(1, e[0], 1, e[-1])
        x = bug.embed_a(1, na.vector(na.ring.parse("x"), 1))
        bug.multiply(1, x, 1, x)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"algebra.operator_matrix", "constructions.pair", "constructions.blowup"} <= names


def test_tracer_spans_a_certified_negative():
    alg = parse_algebra_text(_read("perazzo.alg")).build()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        rep = checks.slp_generic(alg, checks.GenericityConfig(certify=True))
    finally:
        tracer.uninstall()
    assert (rep.holds, rep.certification) == (False, "symbolic")
    names = {span[0] for span in tracer.spans}
    assert {"checks.decide", "symbolic.bareiss"} <= names
    assert "symbolic.poly_mat_mul" not in names
