"""Degree pieces of ``from_ideal`` against a naive Macaulay-matrix build and
against the build that eliminated every row.

``from_ideal`` spans the degree-e piece by the generators of degree e and the
shifts x_j * r of the stored rows of lower degrees: monomials of the ideal
are stored as unit rows, a degree whose unit rows are every monomial is
stored with no elimination, and only the other rows are eliminated.  One oracle adds m * g for
every generator g and every monomial m of degree e - deg g, with no skipping
and no shift tables; the other (``ref_extend_to``) adds every generator and
every shift, skipping only a shift equal to the row stored at its lead.  All
must give the same reduced rows, Hilbert function and minimal generators.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lefschetz.algebra import Ideal, NotArtinianError, Ring, _IdealPieces, _shift_table, from_ideal
from lefschetz.exactmath import GF, QQ, RowSpace
from lefschetz.polynomials import Poly, mono_mul

fields = st.sampled_from([QQ, GF(5), GF(32003)])
coefficients = st.integers(min_value=-4, max_value=4).filter(bool)


def macaulay_space(ring, gens, e):
    """Span of every m * g of degree e, each product added on its own."""
    idx = {m: i for i, m in enumerate(ring.monomials(e))}
    space = RowSpace(ring.field, len(idx))
    for g in gens:
        for m in ring.monomials(e - ring.degree(g)):
            space.add({idx[mono_mul(m, t)]: c for t, c in g.terms})
    return space


def naive_minimal_generators(ring, spaces):
    """Greedy pick, in rref order, of the rows of I_d outside the span of
    x_j * I_{d - w_j}, products taken monomial by monomial."""
    out = []
    for d in range(1, len(spaces)):
        monos = ring.monomials(d)
        idx = {m: i for i, m in enumerate(monos)}
        span = RowSpace(ring.field, len(monos))
        for j, w in enumerate(ring.weights):
            if d < w:
                continue
            lower = ring.monomials(d - w)
            xj = tuple(int(k == j) for k in range(ring.nvars))
            for row in spaces[d - w].rref_rows():
                span.add({idx[mono_mul(lower[c], xj)]: v for c, v in row.items()})
        for row in spaces[d].rref_rows():
            if span.add(row):
                out.append(Poly.make(ring.nvars, ring.field, {monos[c]: v for c, v in row.items()}))
    return out


def ref_add_shifted_rows(space: RowSpace, ring: Ring, e: int, piece) -> None:
    """The shift loop with no unit rows."""
    for j, w in enumerate(ring.weights):
        if e < w:
            continue
        shift = _shift_table(ring.nvars, ring.weights, e, j)
        stores, add = space.stores, space.add
        for pc, row in piece(e - w).pivot_rows():
            shifted = {shift[c]: v for c, v in row.items()}
            if not stores(shifted, shift[pc]):
                add(shifted)


def ref_extend_to(self: _IdealPieces, d: int) -> None:
    """``_IdealPieces.extend_to`` adding every generator and every shift."""
    ring = self.ring
    while len(self.spaces) <= d:
        e = len(self.spaces)
        monos = ring.monomials(e)
        idx = {m: i for i, m in enumerate(monos)}
        space = RowSpace(ring.field, len(monos))
        for g in self.generators:
            if ring.degree(g) == e:
                space.add({idx[m]: c for m, c in g.terms})
        ref_add_shifted_rows(space, ring, e, lambda d: self.spaces[d])
        self.monos.append(monos)
        self.spaces.append(space)


def ref_ideal_space(alg, d: int) -> RowSpace:
    if d <= alg.socle_degree:
        return alg._spaces[d]
    full = RowSpace(alg.field, len(alg.ring.monomials(d)))
    one = alg.field.one()
    for i in range(full.ncols):
        full.store_reduced(i, {i: one})
    return full


def ref_minimal_generators(alg) -> list:
    """``GradedAlgebra.minimal_generators`` on ``ref_add_shifted_rows``."""
    ring = alg.ring
    F = alg.field
    maxw = max(ring.weights)
    out = []
    for d in range(1, alg.socle_degree + maxw + 1):
        monos = alg.monomial_basis(d)
        span = RowSpace(F, len(monos))
        ref_add_shifted_rows(span, ring, d, lambda e: ref_ideal_space(alg, e))
        ideal = ref_ideal_space(alg, d)
        for row in ideal.rref_rows():
            if span.rank == ideal.rank:
                break
            if span.add(row):
                out.append(
                    Poly.make(alg.nvars, F, {monos[c]: v for c, v in row.items()})
                )
    return out


def assert_reduced(space: RowSpace) -> None:
    """The RowSpace invariants: each stored row is 1 at its pivot, its
    smallest column, zero at every other pivot, with nonzero entries only,
    all in ``_cols``."""
    pivots = space.pivots()
    for pc, row in space.pivot_rows():
        assert min(row) == pc and row[pc] == 1
        assert all(row.get(q, 0) == 0 for q in pivots if q != pc), (pc, row)
        assert all(row.values()) and set(row) <= space._cols


@st.composite
def ideals(draw):
    """Powers of the variables, some perturbed, plus random forms and
    monomials that are not powers."""
    F = draw(fields)
    n = draw(st.integers(min_value=1, max_value=3))
    weights = tuple(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))) if draw(st.booleans()) else ()
    ring = Ring(tuple("xyz"[:n]), F, weights)
    gens = []
    for j in range(n):
        a = draw(st.integers(min_value=2, max_value=4))
        power = tuple(a if k == j else 0 for k in range(n))
        terms = {power: 1}
        if draw(st.booleans()):
            deg = a * ring.weights[j]
            for m in draw(st.lists(st.sampled_from(ring.monomials(deg)), max_size=2, unique=True)):
                terms[m] = draw(coefficients)
        gens.append(Poly.make(n, F, terms))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        deg = draw(st.integers(min_value=1, max_value=4))
        choices = ring.monomials(deg)
        if not choices:
            continue
        support = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3, unique=True))
        gens.append(Poly.make(n, F, {m: draw(coefficients) for m in support}))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        choices = ring.monomials(draw(st.integers(min_value=2, max_value=4)))
        if choices:
            gens.append(Poly.make(n, F, {draw(st.sampled_from(choices)): draw(coefficients)}))
    gens = [g for g in gens if not g.is_zero()]
    return Ideal(ring, tuple(draw(st.permutations(gens))))


def _ideal(names, field, gens, weights=()):
    ring = Ring(names, field, weights)
    return Ideal(ring, tuple(ring.parse(g) for g in gens))


# monomial generators that are not powers, over QQ and GF(5)
MONOMIAL_MIX = _ideal(("x", "y", "z"), QQ, ("x^2", "y^3", "z^2", "x*y", "3*x*z^2"))
MONOMIAL_MIX_5 = _ideal(("x", "y", "z"), GF(5), ("x^2", "y^3", "z^2", "x*y", "3*x*z^2"))


@given(ideals())
@example(MONOMIAL_MIX)
@example(MONOMIAL_MIX_5)
@settings(max_examples=80, deadline=None)
def test_ideal_pieces_match_the_macaulay_build(ideal):
    assume(len(ideal.generators) >= ideal.ring.nvars)
    try:
        alg = from_ideal(ideal)
    except NotArtinianError:
        assume(False)
    ring, D = ideal.ring, alg.socle_degree
    maxw = max(ring.weights)
    naive = [macaulay_space(ring, ideal.generators, e) for e in range(D + maxw + 1)]
    for e in range(D + 1):
        assert alg.ideal_space(e).rref_rows() == naive[e].rref_rows(), e
    for e in range(D + 1, D + maxw + 1):
        assert naive[e].rank == len(ring.monomials(e)), e
    assert alg.hilbert_function() == tuple(len(ring.monomials(e)) - naive[e].rank for e in range(D + 1))
    assert alg.minimal_generators() == naive_minimal_generators(ring, naive)
    p = ring.field.characteristic
    for e in range(D + 1):
        for x in (x for row in alg.ideal_space(e).rref_rows() for x in row.values()):
            assert type(x) is int and 0 <= x < p if p else type(x) is Fraction


@given(ideals())
@example(MONOMIAL_MIX)
@example(MONOMIAL_MIX_5)
@settings(max_examples=80, deadline=None)
def test_ideal_pieces_match_the_build_that_adds_every_row(ideal):
    assume(len(ideal.generators) >= ideal.ring.nvars)
    try:
        alg = from_ideal(ideal)
    except NotArtinianError:
        assume(False)
    ring, D = ideal.ring, alg.socle_degree
    top = D + max(ring.weights)
    pieces, ref = _IdealPieces(ring, ideal.generators), _IdealPieces(ring, ideal.generators)
    pieces.extend_to(top)
    ref_extend_to(ref, top)
    for e in range(top + 1):
        assert_reduced(pieces.spaces[e])
        assert pieces.spaces[e].rref_rows() == ref.spaces[e].rref_rows(), e
    assert alg.hilbert_function() == tuple(len(ref.monos[e]) - ref.spaces[e].rank for e in range(D + 1))
    assert alg.minimal_generators() == ref_minimal_generators(alg)


def _count(monkeypatch, name):
    """Count the calls of ``RowSpace.<name>``, by the degree of the space."""
    calls = []
    original = getattr(RowSpace, name)

    def counting(self, *args):
        calls.append(self.ncols)
        return original(self, *args)

    monkeypatch.setattr(RowSpace, name, counting)
    return calls


def test_complete_intersection_adds_only_rows_that_enlarge_the_space(monkeypatch):
    # Every monomial of a monomial ideal is stored as its own unit row, and
    # degree D + 1, whose shifted unit rows are every monomial, as the
    # identity: nothing is eliminated and every stored row is stored once.
    adds, reduces = _count(monkeypatch, "add"), _count(monkeypatch, "reduce")
    stored = _count(monkeypatch, "store_reduced")
    ring = Ring(("x", "y", "z", "w", "v"), QQ)
    exps = (2, 2, 2, 2, 4)
    gens = tuple(ring.parse(f"{v}^{a}") for v, a in zip(ring.varnames, exps))
    alg = from_ideal(Ideal(ring, gens))
    D = alg.socle_degree
    assert D == sum(a - 1 for a in exps)
    # degrees 0..D, then degree D + 1, where the piece is everything
    ranks = [len(ring.monomials(e)) - alg.dim(e) for e in range(D + 1)] + [len(ring.monomials(D + 1))]
    assert adds == [] and reduces == []
    assert len(stored) == sum(ranks)
    pieces = _IdealPieces(ring, gens)
    pieces.extend_to(D + 1)
    n = len(ring.monomials(D + 1))
    assert pieces.spaces[D + 1].rref_rows() == [{c: 1} for c in range(n)]
    assert adds == [] and reduces == []


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_leads_that_come_only_from_elimination_are_eliminated(monkeypatch, field):
    # (x^2 - y^2, xy): the shifted degree-2 pivots x^2, xy miss y^3 in
    # degree 3, so there the unit rows are not everything, and y^3 is
    # reached only by eliminating y(x^2 - y^2) against the unit row x^2 y.
    ideal = _ideal(("x", "y"), field, ("x^2 - y^2", "x*y"))
    ring = ideal.ring
    adds = _count(monkeypatch, "add")
    alg = from_ideal(ideal)
    assert alg.hilbert_function() == (1, 2, 1)
    assert len(adds) == 3
    shifted = {mono_mul(ring.monomials(2)[pc], x) for pc in alg.ideal_space(2).pivots() for x in ((1, 0), (0, 1))}
    assert (0, 3) not in shifted
    pieces = _IdealPieces(ring, ideal.generators)
    adds.clear()
    for e in range(5):
        pieces.extend_to(e)
        assert_reduced(pieces.spaces[e])
    # one add for x^2 - y^2; in degree 3, x^3 - xy^2 and x^2 y - y^3
    assert adds == [3, 4, 4]
    ref = _IdealPieces(ring, ideal.generators)
    ref_extend_to(ref, 4)
    assert [s.rref_rows() for s in pieces.spaces] == [s.rref_rows() for s in ref.spaces]


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_weighted_degrees_above_the_socle_are_certified(monkeypatch, field):
    # weights (1, 2): x^3, y^2 give D = 4, and the shifts of the unit rows
    # of degrees 3 and 4 are every monomial of degrees 5 and 6
    ideal = _ideal(("x", "y"), field, ("x^3", "y^2"), (1, 2))
    ring = ideal.ring
    alg = from_ideal(ideal)
    D = alg.socle_degree
    assert (D, alg.hilbert_function()) == (4, (1, 1, 2, 1, 1))
    pieces = _IdealPieces(ring, ideal.generators)
    pieces.extend_to(D)
    adds, reduces = _count(monkeypatch, "add"), _count(monkeypatch, "reduce")
    for e in (D + 1, D + 2):
        pieces.extend_to(e)
        n = len(ring.monomials(e))
        assert pieces.spaces[e].rref_rows() == [{c: 1} for c in range(n)]
    assert adds == [] and reduces == []
    assert alg.minimal_generators() == ref_minimal_generators(alg)
