"""Certified ranks of ``RankTable`` against plain exact ranks over QQ.

``RankTable`` skips exact work in two ways: bijective narrow maps certify
every power map, and a full rank modulo ``MODULAR_PRIME`` certifies a full
rank over QQ.  Each (d, i) it reports must be the QQ rank of the product of
the step matrices.
"""

from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.algebra import Ideal, Ring, from_dual_generator, from_ideal
from lefschetz.checks import (
    MODULAR_PRIME,
    RankTable,
    degree_one_vector,
    power_map_matrix,
    step_matrices,
)
from lefschetz.descfiles import parse_algebra_text
from lefschetz.exactmath import QQ, rank
from lefschetz.polynomials import DualPoly, Poly, monomials


def assert_certified_ranks(alg, L):
    Lvec = degree_one_vector(alg, L)
    steps = step_matrices(alg, Lvec)
    D = alg.socle_degree
    pairs = [(d, i) for d in range(1, D + 1) for i in range(D - d + 1)]
    want = {(d, i): rank(power_map_matrix(steps, d, i)) for d, i in pairs}
    # ascending d makes the d = 1 ranks exact; descending d asks for the
    # narrow certificate first, so d = 1 may be read off it
    for order in (pairs, pairs[::-1]):
        table = RankTable(alg, Lvec)
        got = {(d, i): table.rank(d, i) for d, i in order}
        assert got == want


coefficients = st.integers(min_value=-3, max_value=3)


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


def test_modular_deficiency_falls_back_to_qq():
    # L = P x vanishes modulo the certificate's prime, but not over QQ
    r = Ring(("x",), QQ)
    alg = from_ideal(Ideal(r, (r.parse("x^3"),)))
    table = RankTable(alg, degree_one_vector(alg, (MODULAR_PRIME,)))
    assert [table.rank(d, i) for d, i in [(1, 0), (1, 1), (2, 0)]] == [1, 1, 1]


def test_denominator_divisible_by_the_prime_skips_the_modular_path():
    r = Ring(("x",), QQ)
    alg = from_ideal(Ideal(r, (r.parse("x^3"),)))
    table = RankTable(alg, degree_one_vector(alg, (Fraction(1, MODULAR_PRIME),)))
    assert [table.rank(d, i) for d, i in [(2, 0), (1, 0), (1, 1)]] == [1, 1, 1]
    assert "steps" in table.__dict__


def test_maps_settled_modulo_the_prime_never_build_the_exact_steps():
    r = Ring(("x", "y", "z"), QQ)
    alg = from_ideal(Ideal(r, tuple(r.parse(g) for g in ("x^2", "y^3", "z^3"))))
    table = RankTable(alg, degree_one_vector(alg, r.parse("x + 2*y - 3*z")))
    D = alg.socle_degree
    ranks = {(d, i): table.rank(d, i) for d in range(1, D + 1) for i in range(D - d + 1)}
    assert all(r == min(alg.dim(i), alg.dim(i + d)) for (d, i), r in ranks.items())
    assert "steps" not in table.__dict__
    assert [s.rows for s in table.steps] == [alg.dim(i + 1) for i in range(D)]


def test_injective_narrow_maps_do_not_certify_without_symmetry():
    # h = (1, 3, 2): L^2 = x^2 is injective on A_0, yet x A_1 = <x^2> does
    # not fill A_2; asking for d = 2 first must not certify d = 1
    r = Ring(("x", "y", "z"), QQ)
    gens = tuple(r.parse(g) for g in ("x*y", "x*z", "y*z", "z^2", "x^3", "y^3"))
    alg = from_ideal(Ideal(r, gens))
    assert alg.hilbert_function() == (1, 3, 2)
    table = RankTable(alg, degree_one_vector(alg, r.parse("x")))
    assert [table.rank(2, 0), table.rank(1, 1), table.rank(1, 0)] == [1, 1, 1]
