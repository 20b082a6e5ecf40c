"""Tensor products from the factors' normal forms against ``from_ideal``.

``tensor_product`` writes the reduced row x^a * y^b - nf_A(x^a) * nf_B(y^b)
of every non-standard joined monomial straight into its degree piece.  The
oracle is the former ``tensor_product``, kept verbatim: ``from_ideal`` on
I_A + I_B in the joined ring.  Both must give the same monomials, reduced
rows, pivots, generators and generator maps, over QQ and GF(p), for factors
from ideals and from dual generators, weighted, Gorenstein or not, with
colliding variable names.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefschetz.algebra import (
    Ideal,
    NotArtinianError,
    Ring,
    algebra_generators,
    from_dual_generator,
    from_ideal,
    tensor_pieces,
)
from lefschetz.constructions import _joined_generators, tensor_product
from lefschetz.exactmath import GF, QQ, RowSpace
from lefschetz.polynomials import DualPoly, Poly

fields = st.sampled_from([QQ, GF(2), GF(5), GF(32003)])
coefficients = st.integers(min_value=-4, max_value=4).filter(bool)


# -- the former implementation, verbatim ----------------------------------------


def ref_tensor_product(A, B):
    """Quotient by both ideals on the disjoint union of the variables."""
    ring, gens_a, gens_b = _joined_generators(A, B)
    out = from_ideal(
        Ideal(ring, tuple(gens_a + gens_b)),
        max_degree=A.socle_degree + B.socle_degree + max(ring.weights),
    )
    ha, hb = A.hilbert_function(), B.hilbert_function()
    conv = [
        sum(ha[i] * hb[k - i] for i in range(max(0, k - len(hb) + 1), min(k, len(ha) - 1) + 1))
        for k in range(len(ha) + len(hb) - 1)
    ]
    if list(out.hilbert_function()) != conv:
        raise AssertionError("tensor product violates the convolution identity")
    return out


# -- drawn factors ----------------------------------------------------------------


@st.composite
def factors(draw, F):
    """A quotient in one or two variables named from x, y, z (so the two
    factors' names often collide), weights in {1, 2, 3}: the apolar algebra of
    a drawn dual generator, or the quotient by powers of the variables (some
    perturbed) plus up to two random forms, which is seldom Gorenstein."""
    names = draw(st.sampled_from(["x", "y", "xy", "yx", "yz"]))
    n = len(names)
    ring = Ring(tuple(names), F, tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))))
    if draw(st.booleans()):
        support = ring.monomials(draw(st.integers(min_value=1, max_value=4)))
        assume(support)
        terms = draw(st.lists(st.sampled_from(support), min_size=1, max_size=3, unique=True))
        dual = DualPoly.make(n, F, {m: draw(coefficients) for m in terms})
        assume(not dual.is_zero())
        return from_dual_generator(dual, ring)
    gens = []
    for j in range(n):
        power = tuple(draw(st.integers(2, 3)) if k == j else 0 for k in range(n))
        terms = {power: 1}
        if draw(st.booleans()):
            others = [m for m in ring.monomials(ring.weights[j] * power[j]) if m != power]
            for m in draw(st.lists(st.sampled_from(others), max_size=2, unique=True)) if others else ():
                terms[m] = draw(coefficients)
        gens.append(Poly.make(n, F, terms))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        choices = ring.monomials(draw(st.integers(min_value=1, max_value=4)))
        if choices:
            support = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3, unique=True))
            gens.append(Poly.make(n, F, {m: draw(coefficients) for m in support}))
    try:
        return from_ideal(Ideal(ring, tuple(g for g in gens if not g.is_zero())))
    except NotArtinianError:  # a common factor, e.g. (x + 2y)^2 and 2x^3 + y^3 over GF(5)
        assume(False)


pairs = fields.flatmap(lambda F: st.tuples(factors(F), factors(F)))


def sorted_maps(alg):
    # the pair order in a column follows the key order of the stored rows,
    # which neither route fixes; the columns' entries are the contract
    return [(g.label, g.degree, g.vector, [[sorted(col) for col in m] for m in g.maps])
            for g in algebra_generators(alg)]


@given(pairs)
@settings(max_examples=60, deadline=None)
def test_tensor_pieces_match_the_from_ideal_route(pair):
    A, B = pair
    got, want = tensor_product(A, B), ref_tensor_product(A, B)
    assert got.ring == want.ring
    assert got.socle_degree == want.socle_degree == A.socle_degree + B.socle_degree
    for d in range(got.socle_degree + 1):
        assert got.monomial_basis(d) == want.monomial_basis(d), d
        assert got.ideal_space(d).rref_rows() == want.ideal_space(d).rref_rows(), d
        assert got.ideal_space(d).pivots() == want.ideal_space(d).pivots(), d
    assert got.generators == want.generators
    assert got.hilbert_function() == want.hilbert_function()
    assert sorted_maps(got) == sorted_maps(want)


# -- elimination counts ---------------------------------------------------------------


def _adds(monkeypatch, run):
    calls = []
    add = RowSpace.add
    with monkeypatch.context() as m:
        m.setattr(RowSpace, "add", lambda self, row: calls.append(row) or add(self, row))
        got = run()
    return calls, got


def test_tensor_product_eliminates_nothing(monkeypatch):
    # factors given by generators: their presentation is read, not computed
    ring = Ring(("x", "y", "z"), QQ)
    a = from_ideal(Ideal(ring, tuple(ring.parse(g) for g in ("x^2", "x*y", "y^2", "x*z", "y*z", "z^5"))))
    calls, t = _adds(monkeypatch, lambda: tensor_product(a, a))
    assert calls == []
    assert t.hilbert_function() == (1, 6, 11, 8, 9, 8, 3, 2, 1)


def test_tensor_pieces_of_dual_generator_factors_eliminate_nothing(monkeypatch):
    ring = Ring(("x", "y"), GF(5), (1, 2))
    a = from_dual_generator(ring.parse_dual("X^[2]*Y + 2*Y^[2]"), ring)
    b = from_dual_generator(Ring(("x",), GF(5)).parse_dual("X^[3]"), Ring(("x",), GF(5)))
    joined, _ = a.ring.joined(b.ring)
    calls, spaces = _adds(monkeypatch, lambda: tensor_pieces(a, b, joined))
    assert calls == []
    assert len(spaces) == a.socle_degree + b.socle_degree + 1
