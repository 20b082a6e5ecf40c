"""Every model's sparse operator columns against the dense reference operators.

``operator_matrix(alg, w, v, i)`` returns multiplication by v in A_w from A_i
as one tuple of (row, value) pairs per basis vector of A_i.  Densified, the
columns must equal ``reference_operators.ref_operator_matrix`` exactly, with
the same scalar types, on quotients (from ideals with weights 1, 2 and 3 and
from dual generators), on fiber products and quotients of fiber products,
and on blowups with n >= 3 and nonzero middle coefficients, over QQ, GF(2),
GF(5) and GF(32003).  A quotient's generator maps are the product table's
own entries, and a pair model still rejects an ambient vector outside it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.algebra import (
    GradedAlgebra,
    Ideal,
    Ring,
    algebra_generators,
    from_dual_generator,
    from_ideal,
    operator_matrix,
)
from lefschetz.constructions import QuotientAlgebra, algebra_map, blowup, fiber_product
from lefschetz.exactmath import GF, QQ, RowSpace
from lefschetz.polynomials import DualPoly, Poly, contract, mono_mul, monomials
from reference_operators import densify, ref_operator_matrix

FIELDS = [QQ, GF(2), GF(5), GF(32003)]
fields = st.sampled_from(FIELDS)


def units(F):
    """Small integers that are nonzero in F."""
    return st.integers(-3, 3).filter(lambda c: F.coerce(c))


def random_form(draw, F, n, d, weights=None):
    """A nonzero form of (weighted) degree d with up to three terms, or None
    when there is no monomial of that degree."""
    monos = monomials(n, d, weights or (1,) * n)
    if not monos:
        return None
    support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
    return Poly.make(n, F, {m: F.coerce(draw(units(F))) for m in support})


def ideal_generators(draw, r):
    """Powers of every variable plus up to two random forms."""
    gens = [r.parse(f"{v}^{draw(st.integers(2, 4))}") for v in r.varnames]
    for _ in range(draw(st.integers(0, 2))):
        f = random_form(draw, r.field, r.nvars, draw(st.integers(1, 4)), r.weights)
        if f is not None:
            gens.append(f)
    return gens


@st.composite
def weighted_quotients(draw, F):
    n = draw(st.integers(1, 3))
    r = Ring(tuple("xyz"[:n]), F, tuple(draw(st.sampled_from([1, 2, 3])) for _ in range(n)))
    return from_ideal(Ideal(r, tuple(ideal_generators(draw, r))))


@st.composite
def dual_generator_quotients(draw, F):
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.sampled_from([1, 2, 3])) for _ in range(n))
    deg = draw(st.integers(1, 5))
    monos = monomials(n, deg, weights)
    if not monos:
        monos, weights = monomials(n, deg), (1,) * n
    support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    G = DualPoly.make(n, F, {m: F.coerce(draw(units(F))) for m in support})
    return from_dual_generator(G, Ring(tuple("xyz"[:n]), F, weights))


@st.composite
def fiber_products(draw, F):
    """A x_T B for quotients A, B of one ring and T the quotient by both
    ideals and one more form, each variable mapped to itself."""
    n = draw(st.integers(1, 3))
    r = Ring(tuple("xyz"[:n]), F)
    gens_a, gens_b = ideal_generators(draw, r), ideal_generators(draw, r)
    extra = random_form(draw, F, n, draw(st.integers(1, 2)))
    A, B = from_ideal(Ideal(r, tuple(gens_a))), from_ideal(Ideal(r, tuple(gens_b)))
    T = from_ideal(Ideal(r, tuple(gens_a + gens_b + ([extra] if extra else []))))
    names = list(r.varnames)
    return fiber_product(algebra_map(A, T, names), algebra_map(B, T, names))


@st.composite
def quotients_of_fiber_products(draw, F):
    """A fiber product modulo the principal ideal of one of its elements,
    whose relation rows are read off the dense reference operator."""
    fp = draw(fiber_products(F))
    n = draw(st.integers(1, max(1, fp.socle_degree)))
    t = element(draw, fp, n)
    relations = []
    for i in range(fp.socle_degree + 1):
        rel = RowSpace(F, fp.dim(i))
        for col in ref_operator_matrix(fp, n, t, i - n).transpose().entries if i >= n else ():
            rel.add({c: x for c, x in enumerate(col) if x})
        relations.append(rel)
    return QuotientAlgebra(fp, relations)


@st.composite
def blowups(draw, F):
    """The blowup of A = Ann(G) along A -> T = Ann(g . G), n = deg g = 3, with
    both middle coefficients nonzero forms.  g divides a term of G, whose
    contraction by g is then a term of g . G."""
    n = draw(st.integers(2, 3))
    r = Ring(tuple("xyz"[:n]), F)
    D = draw(st.integers(4, 5))
    support = draw(st.lists(st.sampled_from(monomials(n, D)), min_size=1, max_size=3, unique=True))
    G = DualPoly.make(n, F, {m: F.coerce(draw(units(F))) for m in support})
    top = draw(st.sampled_from(support))
    g = draw(st.sampled_from([m for m in monomials(n, 3) if all(a <= b for a, b in zip(m, top))]))
    A = from_dual_generator(G, r)
    T = from_dual_generator(contract(Poly.make(n, F, {g: F.one()}), G), r)
    middle = [random_form(draw, F, n, i) for i in (1, 2)]
    lam = F.coerce(draw(units(F)))
    return blowup(algebra_map(A, T, list(r.varnames)), middle, lam)


def element(draw, alg, d):
    F = alg.field
    dens = st.sampled_from([1, 3] if F.characteristic == 2 else [1, 2, 3])
    return tuple(F.coerce(Fraction(draw(st.integers(-3, 3)), draw(dens))) for _ in range(alg.dim(d)))


MODELS = {
    "weighted_quotient": weighted_quotients,
    "dual_generator_quotient": dual_generator_quotients,
    "fiber_product": fiber_products,
    "quotient_of_fiber_product": quotients_of_fiber_products,
    "blowup": blowups,
}


def assert_columns_match(alg, w, v, i):
    F = alg.field
    cols = operator_matrix(alg, w, v, i)
    assert type(cols) is list and len(cols) == alg.dim(i)
    for col in cols:
        rows = [r for r, _ in col]
        assert type(col) is tuple and len(set(rows)) == len(rows)
        assert all(0 <= r < alg.dim(i + w) for r in rows)
        for _, x in col:
            assert x and type(x) is (Fraction if F.characteristic == 0 else int)
            assert F.characteristic == 0 or 0 <= x < F.characteristic
    assert densify(F, cols, alg.dim(i + w)) == ref_operator_matrix(alg, w, v, i), (w, v, i)


@pytest.mark.parametrize("model", sorted(MODELS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_operator_columns_match_the_dense_references(model, data):
    F = data.draw(fields)
    alg = data.draw(MODELS[model](F))
    D = alg.socle_degree
    for w in range(D + 1):
        for i in range(D - w + 1):
            assert_columns_match(alg, w, element(data.draw, alg, w), i)
    if model == "blowup":
        assert alg.n == 3
    for g in algebra_generators(alg):
        for i, cols in enumerate(g.maps):
            assert densify(F, cols, alg.dim(i + g.degree)) == ref_operator_matrix(alg, g.degree, g.vector, i)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_quotient_generator_maps_are_the_product_table_entries(data):
    F = data.draw(fields)
    kind = data.draw(st.sampled_from([weighted_quotients, dual_generator_quotients]))
    alg = data.draw(kind(F))
    assert isinstance(alg, GradedAlgebra)
    ring = alg.ring
    for g in algebra_generators(alg):
        j = ring.varnames.index(g.label)
        var = tuple(int(k == j) for k in range(ring.nvars))
        for i, cols in enumerate(g.maps):
            e = i + g.degree
            for col, m in zip(cols, alg.basis(i)):
                assert col is alg._basis_product(e, alg._index[e][mono_mul(var, m)])


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_pair_coordinates_reject_a_non_member(F):
    r = Ring(("x", "y"), F)
    a = from_ideal(Ideal(r, (r.parse("x^2"), r.parse("y^2"))))
    t = from_ideal(Ideal(r, (r.parse("x^2"), r.parse("y"))))
    pi = algebra_map(a, t, ["x", "0"])
    fp = fiber_product(pi, pi)
    x = a.basis(1).index((1, 0))
    # (x, 0) maps to (x, 0) in T + T, not onto the diagonal
    with pytest.raises(ValueError, match="not in the pair subalgebra"):
        fp.coords(1, {x: F.one()})
    # (x, x) lies in it
    assert fp.coords(1, {x: F.one(), a.dim(1) + x: F.one()})
