"""Degree pieces of ``from_ideal`` against a naive Macaulay-matrix build.

``from_ideal`` spans the degree-e piece by the generators of degree e and the
shifts x_j * r of the stored rows of lower degrees, skipping a shift equal to
a row already stored.  The oracle adds m * g for every generator g and every
monomial m of degree e - deg g, with no skipping and no shift tables; both
must give the same reduced rows, Hilbert function and minimal generators.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefschetz.algebra import Ideal, NotArtinianError, Ring, from_ideal
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


@st.composite
def ideals(draw):
    """Powers of the variables, some perturbed, plus random forms."""
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
    gens = [g for g in gens if not g.is_zero()]
    return Ideal(ring, tuple(draw(st.permutations(gens))))


@given(ideals())
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


def test_complete_intersection_adds_only_rows_that_enlarge_the_space(monkeypatch):
    # Every shift already stored is skipped unreduced, so a monomial ideal
    # calls RowSpace.add once per row of each degree piece it builds.
    calls = []
    add = RowSpace.add

    def counting_add(self, row):
        calls.append(len(row))
        return add(self, row)

    monkeypatch.setattr(RowSpace, "add", counting_add)
    ring = Ring(("x", "y", "z", "w", "v"), QQ)
    exps = (2, 2, 2, 2, 4)
    alg = from_ideal(Ideal(ring, tuple(ring.parse(f"{v}^{a}") for v, a in zip(ring.varnames, exps))))
    D = alg.socle_degree
    assert D == sum(a - 1 for a in exps)
    # degrees 0..D, then degree D + 1, where the piece is everything
    ranks = [len(ring.monomials(e)) - alg.dim(e) for e in range(D + 1)] + [len(ring.monomials(D + 1))]
    assert len(calls) == sum(ranks)
    assert set(calls) == {1}

