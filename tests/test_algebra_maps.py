"""Algebra maps on sparse columns against the former dense maps, and the
constructions that read them against a second route to the same algebra.

``AlgebraMap`` keeps each degree as sparse columns of the monomial images
and reads its section off one elimination per degree.  The references in
``reference_operators`` are the former dense implementations, verbatim: a
substitution per standard monomial (``ref_map_matrix``), one ``solve`` per
unit vector of T_d (``ref_lift_matrix``) and a substitution per reduced
ideal row (``ref_check_well_defined``).  Every output must agree with them,
over QQ, over GF(p) and on weighted rings.

Two differential oracles run the rewritten map through whole constructions:
the pair-model connected sum over the field k = k[t]/(t) against
``connected_sum_over_field``, and the blowup of Ann(G) along
Ann(t o G) against its extracted presentation.
"""

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from lefschetz.algebra import Ideal, Ring, from_dual_generator, from_ideal, hilbert_function, is_gorenstein
from lefschetz.checks import GenericityConfig, generic_report
from lefschetz.constructions import (
    AlgebraMap,
    PresentationSizeError,
    blowup,
    blowup_square_commutes,
    connected_sum,
    connected_sum_over_field,
    exceptional_divisor,
    identity_map,
    presented_algebra,
)
from lefschetz.exactmath import GF, QQ, rank
from lefschetz.polynomials import DualPoly, Poly, contract, monomials
from reference_operators import densify, ref_check_well_defined, ref_lift_matrix, ref_map_matrix

coefficients = st.sampled_from((-2, -1, 1, 2))
CERTIFIED = GenericityConfig(seed=3, certify=True)


# -- maps against the dense references ------------------------------------------


def _form(draw, ring: Ring, d: int, monomial: bool = False) -> Poly:
    """A random nonzero form of weighted degree d (one unit term when monomial)."""
    support = ring.monomials(d)
    terms = draw(st.lists(st.sampled_from(support), min_size=1, max_size=1 if monomial else 3, unique=True))
    F = ring.field
    return Poly.make(ring.nvars, F, {m: F.one() if monomial else F.coerce(draw(coefficients)) for m in terms})


@st.composite
def maps(draw, field, weights):
    """(A, T, images): A = R/I with I artinian, T = R/(I + J), and images of
    one of four kinds on the variables of R.

    - identity: well defined and onto;
    - scaled (I and J monomial): x_j -> c_j x_j with c_j possibly 0, well
      defined, and onto exactly when every zero c_j has x_j in J;
    - zero: well defined, onto exactly when T is the field;
    - random forms of the variables' weights: mostly not well defined.
    """
    ring = Ring(("x", "y", "z")[: len(weights)], field, weights)
    kind = draw(st.sampled_from(("identity", "scaled", "zero", "random")))
    monomial = kind == "scaled"
    powers = [ring.variable(j) ** draw(st.integers(2, 3)) for j in range(ring.nvars)]
    extra = [_form(draw, ring, draw(st.integers(2, 3)), monomial) for _ in range(draw(st.integers(0, 2)))]
    A = from_ideal(Ideal(ring, tuple(powers + extra)))
    more = [_form(draw, ring, draw(st.integers(1, 3)), monomial) for _ in range(draw(st.integers(0, 2)))]
    T = from_ideal(Ideal(ring, tuple(powers + extra + more)))
    if kind == "identity":
        images = [ring.variable(j) for j in range(ring.nvars)]
    elif kind == "scaled":
        images = [ring.variable(j).scale(field.coerce(draw(st.integers(0, 2)))) for j in range(ring.nvars)]
    elif kind == "zero":
        images = [Poly.zero(ring.nvars, field)] * ring.nvars
    else:
        images = [_form(draw, ring, w) for w in weights]
    return A, T, images


def _check_against_references(A, T, images) -> str:
    """Compare the map with the references; returns the case's kind."""
    try:
        ref_check_well_defined(A, T, images)
    except ValueError:
        with pytest.raises(ValueError, match="not well defined"):
            AlgebraMap(A, T, images)
        return "not well defined"
    pi, F = AlgebraMap(A, T, images), A.field
    for d in range(-1, A.socle_degree + 2):
        want = ref_map_matrix(pi, d)
        assert densify(F, pi.columns(d), T.dim(d)) == want
        try:
            section = ref_lift_matrix(pi, d)
        except ValueError:
            with pytest.raises(ValueError, match="not surjective"):
                pi.section(d)
        else:
            assert densify(F, pi.section(d), A.dim(d)) == section
        vec = tuple(F.coerce(k + 2) for k in range(A.dim(d)))
        assert pi.apply(d, vec) == (want.mul_vec(vec) if T.dim(d) else ())
        if T.dim(d):
            for wrong in (vec + (F.one(),), vec[1:]):
                with pytest.raises(ValueError):
                    want.mul_vec(wrong)
                with pytest.raises(ValueError):
                    pi.apply(d, wrong)
    assert pi.surjective == all(rank(ref_map_matrix(pi, d)) == T.dim(d) for d in range(T.socle_degree + 1))
    return "onto" if pi.surjective else "not onto"


@pytest.mark.parametrize("field, weights", [
    (QQ, (1, 1)), (QQ, (1, 1, 1)), (GF(5), (1, 1, 1)), (GF(32003), (1, 1)), (QQ, (1, 2)), (GF(7), (1, 1, 2)),
])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_map_matches_the_dense_reference(field, weights, data):
    event(_check_against_references(*data.draw(maps(field, weights))))


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_pinned_maps_match_the_dense_reference(field):
    # onto T, not onto T_1, and not well defined onto T3 (x^2 -> x^2 != 0)
    ring = Ring(("x", "y"), field)
    A, T, T3 = (from_ideal(Ideal(ring, tuple(ring.parse(g) for g in gens)))
                for gens in (("x^2", "y^2"), ("x^2", "y"), ("x^3", "y")))
    cases = ((T, ["x", "0"], "onto"), (T, ["0", "0"], "not onto"), (T, ["y", "x"], "onto"),
             (T3, ["x", "0"], "not well defined"))
    for target, images, kind in cases:
        assert _check_against_references(A, target, [ring.parse(i) for i in images]) == kind


def test_apply_refuses_a_vector_of_the_wrong_length():
    ring = Ring(("x", "y"), QQ)
    A = from_ideal(Ideal(ring, (ring.parse("x^2"), ring.parse("y^2"))))
    pi = identity_map(A)
    assert pi.apply(1, (QQ.one(), QQ.zero())) == (QQ.one(), QQ.zero())
    for vec in ((QQ.one(),), (QQ.one(),) * 3):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pi.apply(1, vec)


# -- the pair model against the presentation ---------------------------------------

# (variables of A, of B, degree, terms), the shapes of the benchmark's connected sums
PAIR_SHAPES = ((2, 3, 3, 3), (3, 2, 3, 4), (3, 3, 3, 4), (2, 2, 4, 3), (3, 2, 4, 4), (2, 3, 4, 4))


def _dual_generator_algebra(draw, names: str, degree: int, nterms: int):
    support = draw(st.lists(st.sampled_from(monomials(len(names), degree)), min_size=nterms, max_size=nterms,
                            unique=True))
    terms = {m: QQ.coerce(draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))) for m in support}
    return from_dual_generator(DualPoly.make(len(names), QQ, terms), Ring(tuple(names), QQ))


@st.composite
def gorenstein_pairs(draw):
    na, nb, degree, nterms = draw(st.sampled_from(PAIR_SHAPES))
    return _dual_generator_algebra(draw, "xyz"[:na], degree, nterms), _dual_generator_algebra(draw, "uvw"[:nb],
                                                                                             degree, nterms)


@settings(max_examples=20, deadline=None)
@given(gorenstein_pairs())
def test_pair_model_connected_sum_matches_the_presentation(pair):
    A, B = pair
    k_ring = Ring(("t",), QQ)
    k = from_ideal(Ideal(k_ring, (k_ring.parse("t"),)))
    zero = Poly.zero(1, QQ)
    cs = connected_sum(A, B, k, AlgebraMap(A, k, [zero] * A.nvars), AlgebraMap(B, k, [zero] * B.nvars))
    over = connected_sum_over_field(A, B)
    assert hilbert_function(cs) == over.hilbert_function()
    assert is_gorenstein(cs) and is_gorenstein(over)
    verdict = generic_report(over, "wlp", CERTIFIED)
    event(f"wlp {verdict.holds} ({verdict.certification})")
    assert generic_report(cs, "wlp", CERTIFIED).holds == verdict.holds


# -- the blowup against its extracted presentation ---------------------------------


@st.composite
def blowup_data(draw):
    """A = Ann(G) and T = Ann(t o G) for a form t of degree n: A -> T is the
    identity on the variables, since t o G is killed by all G kills."""
    nvars, degree = draw(st.sampled_from(((2, 3), (2, 4), (3, 3))))
    ring = Ring(("x", "y", "z")[:nvars], QQ)
    nterms = draw(st.integers(2, 3 if nvars == 2 else 4))
    A = _dual_generator_algebra(draw, "xyz"[:nvars], degree, nterms)
    n = draw(st.integers(1, degree - 1))
    t = _form(draw, ring, n)
    image = contract(t, A.dual_generator())
    assume(image.terms)
    return A, from_dual_generator(image, ring), n


@settings(max_examples=20, deadline=None)
@given(blowup_data())
def test_blowup_matches_its_presentation(case):
    A, T, n = case
    pi = AlgebraMap(A, T, [A.ring.variable(j) for j in range(A.nvars)])
    assert pi.surjective
    bug = blowup(A, T, pi, [Poly.zero(A.nvars, QQ)] * (n - 1), 1)
    assert blowup_square_commutes(bug, exceptional_divisor(T, bug.t_coeffs, bug.lam, bug.tau_t))
    try:
        presented = presented_algebra(bug)
    except PresentationSizeError:
        assume(False)
    verdict = generic_report(bug, "wlp", CERTIFIED)
    event(f"n = {n}, wlp {verdict.holds} ({verdict.certification})")
    assert generic_report(presented, "wlp", CERTIFIED).holds == verdict.holds
