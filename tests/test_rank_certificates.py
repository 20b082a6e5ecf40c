"""Certified ranks and power matrices of ``RankTable`` against dense references.

``RankTable`` skips exact work in two ways: bijective narrow maps certify
every power map, and over QQ a full rank of its one integer chain modulo
``MODULAR_PRIME`` certifies a full rank over ZZ.  Each (d, i) it reports must
be the exact rank of L^d : A_i -> A_{i+d}, and the rank modulo the prime of
every power of the chain at most that rank.  Its powers are sparse column
chains (``PowerChains``); the references below are the dense step matrices
and their products that the toolkit used before, kept verbatim: every
``power_map_matrix(table, d, i)`` must equal the dense product over every
field, on quotients, dual-generator algebras, the fiber product, the
connected sum and the blowup, across a vanishing middle degree too.  The
dense steps are the reference operators of ``reference_operators``.

Ranks are read off the sparse chains by ``exactmath.echelon_rank``
(``PowerChains.rank``) and off dense matrices by one ``RowSpace`` (``rank``);
the reference rank is the pivot count of the padded ``rref`` that ``rank``
used before, kept verbatim as ``ref_rank``.  ``echelon_rank`` is checked
against it over ZZ, with entries beyond 2^64, and modulo 2, 32003 and
2^31 - 1.  Over QQ the chains push integer multiples of the powers: on dual
generators with non-unit denominators and rational forms, every pushed value
must be an ``int`` and the dense view must still be the true power.
"""

from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import checks
from lefschetz.algebra import Ideal, Ring, from_dual_generator, from_ideal, is_gorenstein
from lefschetz.checks import (
    MODULAR_PRIME,
    PowerChains,
    RankTable,
    degree_one_vector,
    generic_report,
    power_map_matrix,
    report_for_element,
)
from lefschetz.constructions import algebra_map, blowup, connected_sum, fiber_product
from lefschetz.descfiles import parse_algebra_text, parse_map_text
from lefschetz.exactmath import GF, QQ, Matrix, RowSpace, echelon_rank, rank, rows_of, rref
from lefschetz.polynomials import DualPoly, Poly, monomials
from reference_operators import ref_operator_matrix
from test_rank_table_reference import SOCLE_XZ


def ref_rank(m: Matrix) -> int:
    return len(rref(m)[1])


def ref_step_matrices(alg, Lvec) -> list[Matrix]:
    """Multiplication by L from each degree i, for i = 0..D-1, as the dense
    reference operators."""
    return [ref_operator_matrix(alg, 1, Lvec, i) for i in range(alg.socle_degree)]


def ref_power_map_matrix(steps: list[Matrix], d: int, i: int) -> Matrix:
    m = steps[i]
    for k in range(i + 1, i + d):
        m = steps[k].mul(m)
    return m


def ref_power(steps: list[Matrix], memo: dict, d: int, i: int) -> Matrix:
    """L^d on A_i, built as L on A_{i+d-1} times L^{d-1} on A_i, memoised."""
    if d == 1:
        return steps[i]
    key = (d, i)
    if key not in memo:
        memo[key] = steps[i + d - 1].mul(ref_power(steps, memo, d - 1, i))
    return memo[key]


def all_pairs(alg):
    D = alg.socle_degree
    return [(d, i) for d in range(1, D + 1) for i in range(D - d + 1)]


def assert_canonical(m: Matrix):
    p = m.field.characteristic
    for x in (x for row in m.entries for x in row):
        assert type(x) is int and 0 <= x < p if p else type(x) is Fraction, (m.field, x)


def assert_certified_ranks(alg, L):
    Lvec = degree_one_vector(alg, L)
    steps = ref_step_matrices(alg, Lvec)
    pairs = all_pairs(alg)
    want = {(d, i): ref_rank(ref_power_map_matrix(steps, d, i)) for d, i in pairs}
    # ascending d makes the d = 1 ranks exact; descending d asks for the
    # narrow certificate first, so d = 1 may be read off it
    for order in (pairs, pairs[::-1]):
        table = RankTable(alg, Lvec)
        got = {(d, i): table.rank(d, i) for d, i in order}
        assert got == want


def assert_powers_match(alg, Lvec):
    """Every rank and every power of ``RankTable``, the rank of every power
    of its chain, and over QQ that rank modulo the prime, against the dense
    references."""
    F = alg.field
    assert_certified_ranks(alg, Lvec)
    steps, memo = ref_step_matrices(alg, Lvec), {}
    table = RankTable(alg, Lvec)
    # descending d pushes each chain to its top first; the shorter powers
    # are then read off the memoised chain
    for d, i in all_pairs(alg)[::-1]:
        got = power_map_matrix(table, d, i)
        assert got == ref_power(steps, memo, d, i) == ref_power_map_matrix(steps, d, i), (d, i)
        assert_canonical(got)
        assert table.chains.rank(d, i) == ref_rank(got), (d, i)
        if F.characteristic == 0:
            assert_modular_rank_bounded(table, d, i, ref_rank(got))


def assert_modular_rank_bounded(table, d, i, exact: int):
    """The integer chain reduced modulo ``MODULAR_PRIME`` (reduction ZZ ->
    F_p is a ring map) has rank at most the exact one, and a full rank
    modulo the prime is the exact one."""
    mod, cols = GF(MODULAR_PRIME), table.chains.power(d, i)
    assert all(type(x) is int for col in cols for x in col.values())
    rows = range(table.chains.dims[i + d])
    got = ref_rank(Matrix(mod, len(cols), tuple(tuple(mod.coerce(c.get(r, 0)) for c in cols) for r in rows)))
    assert got <= exact, (d, i)
    if got == min(len(cols), len(rows)):
        assert got == exact, (d, i)


coefficients = st.integers(min_value=-3, max_value=3)


@st.composite
def shaped_matrices(draw):
    """Tall, wide, empty and all-zero matrices over QQ, GF(2) and GF(32003),
    with small entries, so that ranks are often deficient."""
    F = draw(st.sampled_from([QQ, GF(2), GF(32003)]))
    kind = draw(st.sampled_from(["tall", "wide", "empty", "zero"]))
    short = draw(st.integers(min_value=1, max_value=4))
    long = draw(st.integers(min_value=short + 1, max_value=7))
    rows, cols = (long, short) if kind == "tall" else (short, long)
    if kind == "empty":
        rows, cols = draw(st.sampled_from([(0, long), (long, 0)]))
    if kind == "zero" and draw(st.booleans()):
        rows, cols = cols, rows
    values = [0, 1, -1, 2, 3, 32003] + ([Fraction(2, 3)] if F == QQ else [])
    entry = st.just(0) if kind == "zero" else st.sampled_from(values)
    entries = [[F.coerce(draw(entry)) for _ in range(cols)] for _ in range(rows)]
    return Matrix(F, cols, tuple(map(tuple, entries)))


@given(shaped_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_matches_the_rref_reference(m):
    assert rank(m) == ref_rank(m)


@st.composite
def dual_generator_algebras(draw):
    """Gorenstein algebras: symmetric Hilbert functions."""
    n = draw(st.integers(min_value=2, max_value=3))
    deg = draw(st.integers(min_value=2, max_value=4))
    support = draw(st.lists(st.sampled_from(monomials(n, deg)), min_size=1, max_size=4, unique=True))
    terms = {m: draw(coefficients.filter(bool)) for m in support}
    alg = from_dual_generator(DualPoly.make(n, QQ, terms), Ring(tuple("xyz"[:n]), QQ))
    return alg, draw(st.lists(coefficients, min_size=n, max_size=n))


@st.composite
def ideal_algebras(draw):
    """Powers of the variables plus random forms: often non-symmetric h."""
    n = draw(st.integers(min_value=2, max_value=3))
    r = Ring(tuple("xyz"[:n]), QQ)
    gens = [r.parse(f"{v}^{draw(st.integers(min_value=2, max_value=4))}") for v in r.varnames]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        deg = draw(st.integers(min_value=2, max_value=3))
        support = draw(st.lists(st.sampled_from(monomials(n, deg)), min_size=1, max_size=3, unique=True))
        gens.append(Poly.make(n, QQ, {m: draw(coefficients.filter(bool)) for m in support}))
    alg = from_ideal(Ideal(r, tuple(gens)))
    return alg, draw(st.lists(coefficients, min_size=n, max_size=n))


@given(dual_generator_algebras())
@settings(max_examples=40, deadline=None)
def test_certified_ranks_gorenstein(case):
    alg, coeffs = case
    assert_certified_ranks(alg, Poly.linear_form(alg.nvars, QQ, coeffs))


@given(ideal_algebras())
@settings(max_examples=40, deadline=None)
def test_certified_ranks_from_ideal(case):
    alg, coeffs = case
    assert_certified_ranks(alg, Poly.linear_form(alg.nvars, QQ, coeffs))


@pytest.mark.parametrize("name", ["perazzo.alg", "stanley_333.alg"])
@pytest.mark.parametrize("coeffs", [(1, 1, 1, 1, 1), (3, -2, 5, 7, 1), (1, 0, 0, 0, 0)])
def test_certified_ranks_bundled(name, coeffs):
    text = (resources.files("lefschetz") / "data" / name).read_text()
    alg = parse_algebra_text(text).build()
    assert_certified_ranks(alg, Poly.linear_form(alg.nvars, QQ, coeffs[: alg.nvars]))


FIELDS = [QQ, GF(2), GF(5), GF(32003)]
# over QQ, MODULAR_PRIME makes a map deficient modulo the prime (it is
# ranked over ZZ too) and 1/MODULAR_PRIME is scaled to 1 on the chain
form_coefficients = st.sampled_from([0, 1, -1, 2, 3, Fraction(2, 3), MODULAR_PRIME, Fraction(1, MODULAR_PRIME)])


@st.composite
def field_algebras(draw):
    """Quotients by powers of the variables plus random forms, and algebras of
    dual generators, over every field."""
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(min_value=1, max_value=3))
    r = Ring(tuple("xyz"[:n]), F)
    nonzero = coefficients.filter(lambda c: F.coerce(c))
    if draw(st.booleans()):
        deg = draw(st.integers(min_value=1, max_value=4))
        support = draw(st.lists(st.sampled_from(monomials(n, deg)), min_size=1, max_size=4, unique=True))
        terms = {m: F.coerce(draw(nonzero)) for m in support}
        alg = from_dual_generator(DualPoly.make(n, F, terms), r)
    else:
        gens = [r.parse(f"{v}^{draw(st.integers(min_value=1, max_value=4))}") for v in r.varnames]
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            deg = draw(st.integers(min_value=2, max_value=3))
            support = draw(st.lists(st.sampled_from(monomials(n, deg)), min_size=1, max_size=3, unique=True))
            gens.append(Poly.make(n, F, {m: F.coerce(draw(nonzero)) for m in support}))
        alg = from_ideal(Ideal(r, tuple(gens)))
    return alg, draw(form_vectors(alg))


@st.composite
def form_vectors(draw, alg):
    F = alg.field
    coeffs = draw(st.lists(form_coefficients, min_size=alg.dim(1), max_size=alg.dim(1)))
    return tuple(F.coerce(c) for c in coeffs)


@given(field_algebras())
@settings(max_examples=60, deadline=None)
def test_powers_match_the_dense_references(case):
    assert_powers_match(*case)


@st.composite
def integer_vectors(draw):
    """Sparse vectors of tall, wide, empty and all-zero matrices over ZZ
    (entries beyond 2^64 included, and rows that are combinations of earlier
    ones) or modulo 2, 32003 and 2^31 - 1, as (p, vectors, their matrix)."""
    p = draw(st.sampled_from([0, 2, 32003, MODULAR_PRIME]))
    kind = draw(st.sampled_from(["tall", "wide", "empty", "zero"]))
    short = draw(st.integers(min_value=1, max_value=4))
    long = draw(st.integers(min_value=short + 1, max_value=7))
    rows, cols = (long, short) if kind == "tall" else (short, long)
    if kind == "empty":
        rows, cols = draw(st.sampled_from([(0, long), (long, 0)]))
    values = [0, 1, -1, 2, 3, 32003, MODULAR_PRIME, 2**64 + 13, -(3**50)]
    entry = st.just(0) if kind == "zero" else st.sampled_from(values)
    entries = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for k in range(1, rows) if kind != "zero" else ():
        if draw(st.booleans()):  # a combination of the rows before
            a, b = draw(st.sampled_from(values[1:])), draw(st.sampled_from(values))
            j = draw(st.integers(min_value=0, max_value=k - 1))
            entries[k] = [a * x + b * y for x, y in zip(entries[j], entries[k - 1])]
    F = GF(p) if p else QQ
    m = Matrix(F, cols, tuple(tuple(F.coerce(x) for x in row) for row in entries))
    vectors = [{c: x % p if p else x for c, x in enumerate(row) if (x % p if p else x)} for row in entries]
    return p, vectors, m


@given(integer_vectors(), st.integers(min_value=0, max_value=8))
@settings(max_examples=300, deadline=None)
def test_echelon_rank_matches_the_rref_reference(case, stop):
    p, vectors, m = case
    copies = [dict(v) for v in vectors]
    want = ref_rank(m)
    assert echelon_rank(vectors, p, min(m.rows, m.cols)) == want
    # rows and columns have one rank; a smaller stop caps it
    assert echelon_rank(rows_of([v.items() for v in vectors], m.cols), p, m.rows) == want
    assert echelon_rank(iter(vectors), p, stop) == min(stop, want)
    assert vectors == copies


def test_echelon_rank_draws_nothing_past_its_stop():
    drawn = []

    def vectors():
        for v in ({0: 1}, {1: 1}, {2: 1}):
            drawn.append(v)
            yield v

    assert echelon_rank(vectors(), 0, 2) == 2 and len(drawn) == 2
    drawn.clear()
    assert echelon_rank(vectors(), 7, 0) == 0 and drawn == []


@st.composite
def rational_dual_generator_algebras(draw):
    """Dual generators with non-unit denominators, and rational forms such as
    1/3 x + 2/7 y + z."""
    n = draw(st.integers(min_value=2, max_value=3))
    deg = draw(st.integers(min_value=2, max_value=4))
    support = draw(st.lists(st.sampled_from(monomials(n, deg)), min_size=1, max_size=4, unique=True))
    fractions = st.sampled_from([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 4), Fraction(3), Fraction(-1)])
    alg = from_dual_generator(DualPoly.make(n, QQ, {m: draw(fractions) for m in support}), Ring(tuple("xyz"[:n]), QQ))
    form = st.sampled_from([Fraction(1, 3), Fraction(2, 7), Fraction(1), Fraction(0), Fraction(-5, 6)])
    return alg, tuple(draw(form) for _ in range(alg.dim(1)))


def assert_integer_chains(chains: PowerChains):
    """Every pushed value of a chain over QQ is an ``int``: no ``Fraction``
    arithmetic was made."""
    values = [x for step in chains._steps.values() for col in step for x in col.values()]
    values += [x for chain in chains._chains.values() for cols in chain for col in cols for x in col.values()]
    assert all(type(x) is int for x in values), {type(x) for x in values}


@given(rational_dual_generator_algebras())
@settings(max_examples=60, deadline=None)
def test_powers_with_denominators_match_the_dense_references(case):
    alg, Lvec = case
    assert_powers_match(alg, Lvec)
    table = RankTable(alg, Lvec)
    for d, i in all_pairs(alg):
        table.chains.rank(d, i)
    assert_integer_chains(table.chains)


def test_rational_form_on_a_bundled_algebra_pushes_integers():
    alg = parse_algebra_text(_bundled("stanley_333.alg", QQ)).build()
    Lvec = degree_one_vector(alg, alg.ring.parse("1/3*x + 2/7*y + z"))
    assert_powers_match(alg, Lvec)
    table = RankTable(alg, Lvec)
    assert [table.chains.rank(d, i) for d, i in all_pairs(alg)] == [
        ref_rank(power_map_matrix(table, d, i)) for d, i in all_pairs(alg)]
    assert_integer_chains(table.chains)
    assert any(s > 1 for s in table.chains.scales)


def _bundled(name, F):
    return (resources.files("lefschetz") / "data" / name).read_text().replace("QQ", str(F))


def _example_71(F):
    a, b, t = (parse_algebra_text(_bundled(f"ex71_{k}.alg", F)).build() for k in "abt")
    pa = algebra_map(a, t, parse_map_text(_bundled("ex71_map_a.map", F), a.ring, t.ring))
    pb = algebra_map(b, t, parse_map_text(_bundled("ex71_map_b.map", F), b.ring, t.ring))
    return pa, pb


def _notgor_blowup(F):
    a, t = (parse_algebra_text(_bundled(f"notgor_{k}.alg", F)).build() for k in "at")
    pi = algebra_map(a, t, parse_map_text(_bundled("notgor_map.map", F), a.ring, t.ring))
    return blowup(pi, [a.ring.parse("x"), a.ring.parse("0")], 1)


CONSTRUCTIONS = {
    "fiber_product": lambda F: fiber_product(*_example_71(F)),
    "connected_sum": lambda F: connected_sum(*_example_71(F)),
    "blowup": _notgor_blowup,
}


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_powers_of_constructions_match_the_dense_references(name, F, data):
    alg = CONSTRUCTIONS[name](F)
    assert_powers_match(alg, data.draw(form_vectors(alg)))


@pytest.mark.parametrize("F", FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_powers_across_a_vanishing_middle_degree(F, data):
    # weights (1, 3): A_2 = 0, so L^d through degree 2 is the zero map
    r = Ring(("x", "y"), F, (1, 3))
    alg = from_ideal(Ideal(r, (r.parse("x^2"), r.parse("y^2"))))
    assert alg.hilbert_function() == (1, 1, 0, 1, 1)
    Lvec = data.draw(form_vectors(alg))
    assert_powers_match(alg, Lvec)
    table = RankTable(alg, Lvec)
    assert power_map_matrix(table, 3, 0) == Matrix.zero(F, 1, 1)


def recorded_moduli(monkeypatch) -> list:
    """The modulus p of every ``echelon_rank`` call of ``PowerChains.rank``
    (0 for a rank over ZZ)."""
    moduli, echelon_rank = [], checks.echelon_rank

    def recording(vectors, p, stop):
        moduli.append(p)
        return echelon_rank(vectors, p, stop)

    monkeypatch.setattr(checks, "echelon_rank", recording)
    return moduli


def _fallback_moduli(monkeypatch, names: str, gens: list) -> list:
    # L = P x vanishes modulo the certificate's prime, but not over QQ
    r = Ring(tuple(names.split(",")), QQ)
    alg = from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)))
    table = RankTable(alg, degree_one_vector(alg, (MODULAR_PRIME,) + (0,) * (r.nvars - 1)))
    moduli = recorded_moduli(monkeypatch)
    assert [table.rank(d, i) for d, i in [(1, 0), (1, 1), (2, 0)]] == [1, 1, 1]
    ranked = list(moduli)
    assert_powers_match(alg, table._Lvec)
    return ranked


def test_modular_deficiency_falls_back_to_qq(monkeypatch):
    # Gorenstein: L on A_1 is the adjoint of the middle map L on A_0
    assert _fallback_moduli(monkeypatch, "x", ["x^3"]) == [MODULAR_PRIME, 0] * 2


def test_modular_deficiency_falls_back_to_qq_off_gorenstein(monkeypatch):
    # h = (1, 2, 1) with y in the socle: every map is ranked
    assert _fallback_moduli(monkeypatch, "x,y", ["x^3", "x*y", "y^2"]) == [MODULAR_PRIME, 0] * 3


def test_denominator_divisible_by_the_prime_is_scaled_away(monkeypatch):
    # L = x / P is pushed as x, so the modular certificate applies
    r = Ring(("x",), QQ)
    alg = from_ideal(Ideal(r, (r.parse("x^3"),)))
    table = RankTable(alg, degree_one_vector(alg, (Fraction(1, MODULAR_PRIME),)))
    moduli = recorded_moduli(monkeypatch)
    assert [table.rank(d, i) for d, i in [(2, 0), (1, 0), (1, 1)]] == [1, 1, 1]
    assert moduli and 0 not in moduli
    assert table.chains.scales == [MODULAR_PRIME] * 2
    assert_powers_match(alg, table._Lvec)


def test_maps_full_modulo_the_prime_make_no_exact_rank(monkeypatch):
    r = Ring(("x", "y", "z"), QQ)
    alg = from_ideal(Ideal(r, tuple(r.parse(g) for g in ("x^2", "y^3", "z^3"))))
    table = RankTable(alg, degree_one_vector(alg, r.parse("x + 2*y - 3*z")))
    moduli = recorded_moduli(monkeypatch)
    D = alg.socle_degree
    ranks = {(d, i): table.rank(d, i) for d in range(1, D + 1) for i in range(D - d + 1)}
    assert all(r == min(alg.dim(i), alg.dim(i + d)) for (d, i), r in ranks.items())
    assert moduli and 0 not in moduli
    want = ref_step_matrices(alg, table._Lvec)
    assert [power_map_matrix(table, 1, i) for i in range(D)] == want


def test_middle_map_certifies_only_algebras_generated_in_degree_one():
    # weights (1, 2): (x^2, y^3) is a Gorenstein complete intersection with
    # h = (1, 1, 1, 1, 1, 1), unimodal, and x : A_2 -> A_3 (y -> xy) is full.
    # But y is a generator of degree 2, and x kills A_1 and A_3
    r = Ring(("x", "y"), QQ, (1, 2))
    alg = from_ideal(Ideal(r, (r.parse("x^2"), r.parse("y^3"))))
    assert alg.hilbert_function() == (1,) * 6 and is_gorenstein(alg)
    rep = report_for_element(alg, r.parse("x"), "wlp")
    assert [m.achieved for m in rep.maps] == [1, 0, 1, 0, 1] and rep.holds is False
    generic = generic_report(alg, "wlp")
    assert (generic.holds, generic.certification) == (False, "symbolic")


def test_full_middle_map_decides_the_weak_report(monkeypatch):
    # x2y2z2.alg, h = (1, 3, 3, 1): L on A_1 is the middle map, and its full
    # rank certifies L on A_0 and A_2 with no further rank
    alg = parse_algebra_text(_bundled("x2y2z2.alg", QQ)).build()
    L = alg.ring.parse("x + y + z")
    report_for_element(alg, L, "wlp")  # builds the maps outside the count
    moduli = recorded_moduli(monkeypatch)
    assert report_for_element(alg, L, "wlp").holds
    assert moduli == [MODULAR_PRIME]


def test_injective_narrow_maps_do_not_certify_without_symmetry():
    # h = (1, 3, 2): L^2 = x^2 is injective on A_0, yet x A_1 = <x^2> does
    # not fill A_2; asking for d = 2 first must not certify d = 1
    r = Ring(("x", "y", "z"), QQ)
    gens = tuple(r.parse(g) for g in ("x*y", "x*z", "y*z", "z^2", "x^3", "y^3"))
    alg = from_ideal(Ideal(r, gens))
    assert alg.hilbert_function() == (1, 3, 2)
    table = RankTable(alg, degree_one_vector(alg, r.parse("x")))
    assert [table.rank(2, 0), table.rank(1, 1), table.rank(1, 0)] == [1, 1, 1]


@pytest.mark.parametrize(
    "name, form, mode",
    [("x2y2z2.alg", "x + y + z", "slp"), ("socle_xz", "x + y + z", "slp"), ("x2y2z2.alg", "x", "slp"),
     ("perazzo.alg", "x + y + z + u + v", "slp"), ("x2y2z2.alg", f"{MODULAR_PRIME}*x + y", "wlp")],
)
def test_rank_tables_stop_adding_at_full_rank(monkeypatch, name, form, mode):
    # each chain rank draws columns into ``echelon_rank`` only while the rows
    # it has stored are fewer than min(h_i, h_{i+d}); a reference RowSpace
    # over the field of the draw, fed the same columns, counts the rows
    # stored.  The last form is deficient modulo MODULAR_PRIME, so its maps
    # are ranked over ZZ too
    alg = parse_algebra_text(SOCLE_XZ if name == "socle_xz" else _bundled(name, QQ)).build()
    L = alg.ring.parse(form)
    report_for_element(alg, L, mode)  # builds the maps outside the count
    draws, ranked = [], []
    chain_rank, echelon_rank = PowerChains.rank, checks.echelon_rank

    def tracking_rank(self, d, i):
        ranked.append(self.dims[i + d])
        try:
            return chain_rank(self, d, i)
        finally:
            ranked.pop()

    def counting_rank(vectors, p, stop):
        field = GF(p) if p else QQ
        space = RowSpace(field, ranked[-1])

        def drawn():
            for v in vectors:
                before = space.rank
                draws.append((before, stop, space.add({r: field.coerce(x) for r, x in v.items()}), p))
                yield v

        got = echelon_rank(drawn(), p, stop)
        assert got == space.rank
        return got

    monkeypatch.setattr(PowerChains, "rank", tracking_rank)
    monkeypatch.setattr(checks, "echelon_rank", counting_rank)
    report_for_element(alg, L, mode)
    assert draws and all(before < top for before, top, _, _ in draws)
    fields = {p for *_, p in draws}
    if form == "x + y + z":
        # h = (1, 3, 3, 1), all modulo the prime.  On the Gorenstein
        # x2y2z2.alg the middle map L on A_1 is full, which certifies L on A_0
        # and A_2, and the narrow maps are L^3 on A_0 and L on A_1: 3 + 1
        # columns, each stored.  On SOCLE_XZ, not Gorenstein, L on A_0, A_1,
        # A_2 and L^3 on A_0 are ranked: 1 + 3 + 3 + 1 columns, where L
        # kills xz and yz
        stored = [True] * 4 if name == "x2y2z2.alg" else [True] * 4 + [False, False, True, True]
        assert [s for _, _, s, _ in draws] == stored
        assert fields == {MODULAR_PRIME}
    else:
        assert fields == {0, MODULAR_PRIME}
