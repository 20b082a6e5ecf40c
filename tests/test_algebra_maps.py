"""Algebra maps on sparse columns against the former dense maps, and the
constructions that read them against a second route to the same algebra.

``AlgebraMap`` keeps each degree as sparse columns of the monomial images
and reads its section off one elimination per degree.  The references in
``reference_operators`` are the former dense implementations, verbatim: a
substitution per standard monomial (``ref_map_matrix``), one ``solve`` per
unit vector of T_d (``ref_lift_matrix``) and a substitution per reduced
ideal row (``ref_check_well_defined``).  Every output must agree with them,
over QQ, over GF(p) and on weighted rings.  The monomial-image recursion in
T's polynomial ring, which the Thom class's dual check runs, must agree with
``Poly.substitute`` on every monomial of degree at most D_T.

Differential oracles run the rewritten map through whole constructions: the
pair-model connected sum over the field k = k[t]/(t) against
``connected_sum_over_field``, the pair-model connected sum of monomial
complete intersections over k[z]/(z^2), the pair-model connected sum of
two-variable Gorenstein algebras over k[z]/(z^(k+1)) and the blowup along
the same map, over QQ and GF(32003), and the blowup of Ann(G) along
Ann(t o G) against their extracted presentations.  Every Gorenstein
construction must satisfy Poincare duality, and a fiber product over k must
not.  The Gorenstein answers that the tensor product and the connected sum
over k record for their outputs must be the socle's.
"""

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from lefschetz.algebra import (
    Ideal,
    Orientation,
    Ring,
    default_orientation,
    from_dual_generator,
    from_ideal,
    hilbert_function,
    is_gorenstein,
    pairing_matrix,
    socle_vectors,
)
from lefschetz.checks import GenericityConfig, generic_report
from lefschetz.constructions import (
    AlgebraMap,
    PresentationSizeError,
    _monomial_images,
    blowup,
    blowup_square_commutes,
    connected_sum,
    connected_sum_over_field,
    exceptional_divisor,
    fiber_product,
    identity_map,
    presented_algebra,
    tensor_product,
    thom_class,
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


@pytest.mark.parametrize("field, weights", [(QQ, (1, 1, 1)), (GF(5), (1, 1, 1)), (QQ, (1, 2)), (GF(7), (1, 1, 2))])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_polynomial_monomial_images_match_substitution(field, weights, data):
    # the recursion in T's polynomial ring, as the Thom class's dual check
    # runs it, against one substitution per monomial of degree <= D_T
    A, T, images = data.draw(maps(field, weights))
    got = _monomial_images(A.ring, T.socle_degree, T.ring.one(), lambda j, i, image: images[j] * image)
    assert len(got) == T.socle_degree + 1
    for d, per_degree in enumerate(got):
        assert list(per_degree) == A.ring.monomials(d)
        for m, image in per_degree.items():
            assert image == Poly.make(A.nvars, field, {m: field.one()}).substitute(images)


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


def _dual_generator_algebra(draw, names: str, degree: int, nterms: int, F=QQ):
    support = draw(st.lists(st.sampled_from(monomials(len(names), degree)), min_size=nterms, max_size=nterms,
                            unique=True))
    terms = {m: F.coerce(draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))) for m in support}
    return from_dual_generator(DualPoly.make(len(names), F, terms), Ring(tuple(names), F))


def _over_the_field(A, B):
    """k = k[t]/(t) with the zero maps from A and B."""
    k_ring = Ring(("t",), QQ)
    k = from_ideal(Ideal(k_ring, (k_ring.parse("t"),)))
    zero = Poly.zero(1, QQ)
    return AlgebraMap(A, k, [zero] * A.nvars), AlgebraMap(B, k, [zero] * B.nvars)


@st.composite
def gorenstein_pairs(draw):
    na, nb, degree, nterms = draw(st.sampled_from(PAIR_SHAPES))
    return _dual_generator_algebra(draw, "xyz"[:na], degree, nterms), _dual_generator_algebra(draw, "uvw"[:nb],
                                                                                             degree, nterms)


@settings(max_examples=20, deadline=None)
@given(gorenstein_pairs())
def test_pair_model_connected_sum_matches_the_presentation(pair):
    A, B = pair
    cs = connected_sum(*_over_the_field(A, B))
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
    bug = blowup(pi, [Poly.zero(A.nvars, QQ)] * (n - 1), 1)
    assert blowup_square_commutes(bug, exceptional_divisor(bug))
    try:
        presented = presented_algebra(bug)
    except PresentationSizeError:
        assume(False)
    verdict = generic_report(bug, "wlp", CERTIFIED)
    event(f"n = {n}, wlp {verdict.holds} ({verdict.certification})")
    assert generic_report(presented, "wlp", CERTIFIED).holds == verdict.holds


# -- pair-model connected sums over k[z]/(z^2) against the presentation ---------------


def _ci_exponents(draw, socle: int) -> list[int]:
    """Exponents e_i >= 2 of a monomial complete intersection of the given
    socle degree sum(e_i - 1), each e_i at most 4."""
    out = []
    while socle:
        out.append(draw(st.integers(1, min(3, socle))) + 1)
        socle -= out[-1] - 1
    return out


@st.composite
def ci_pairs_onto_a_line(draw):
    """Monomial complete intersections A and B of one socle degree, each
    mapped onto T = k[z]/(z^2) by its first variable, the others to 0."""
    socle = draw(st.integers(2, 4))
    line = Ring(("z",), QQ)
    T = from_ideal(Ideal(line, (line.parse("z^2"),)))
    out = []
    for name in "xy":
        exps = _ci_exponents(draw, socle)
        ring = Ring(tuple(f"{name}{i}" for i in range(len(exps))), QQ)
        A = from_ideal(Ideal(ring, tuple(ring.variable(i) ** e for i, e in enumerate(exps))))
        out.append(AlgebraMap(A, T, [line.variable(0)] + [Poly.zero(1, QQ)] * (A.nvars - 1)))
    return out


@settings(max_examples=15, deadline=None)
@given(ci_pairs_onto_a_line())
def test_pair_model_connected_sum_over_a_line_matches_the_presentation(case):
    try:
        cs = connected_sum(*case)
    except ValueError:  # incompatible Thom classes
        assume(False)
    try:
        presented = presented_algebra(cs)
    except PresentationSizeError:
        assume(False)
    assert hilbert_function(cs) == presented.hilbert_function()
    assert is_gorenstein(cs) and is_gorenstein(presented)
    verdict = generic_report(presented, "wlp", CERTIFIED)
    event(f"h = {hilbert_function(cs)}, wlp {verdict.holds}")
    assert generic_report(cs, "wlp", CERTIFIED).holds == verdict.holds


# -- pair-model connected sums and blowups over k[z]/(z^(k+1)) against the presentation --


@st.composite
def pairs_onto_a_fat_point(draw, F, k):
    """Maps x -> z, y -> 0 from A = Ann(F_A) and B = Ann(F_B), random forms of
    one degree d > k in two variables, onto T = k[z]/(z^(k+1)), and an
    orientation of B under which both Thom classes have one image in T_(d-k).
    Maps that are not well defined are skipped."""
    line = Ring(("z",), F)
    T = from_ideal(Ideal(line, (line.variable(0) ** (k + 1),)))
    degree = draw(st.integers(k + 1, 5))
    pair = []
    for names in ("xy", "uv"):
        A = _dual_generator_algebra(draw, names, degree, draw(st.integers(2, min(4, degree + 1))), F)
        try:
            pair.append(AlgebraMap(A, T, [line.variable(0), Poly.zero(1, F)]))
        except ValueError:  # an ideal element has nonzero image
            assume(False)
    # T_(d-k) is the line of z^(d-k) or 0; scaling omega_B by c scales tau_B by 1/c
    omega_t, omega_b = default_orientation(T), default_orientation(pair[1].source)
    ia, ib = (pi.apply(degree - k, thom_class(pi, default_orientation(pi.source), omega_t).coords) for pi in pair)
    if ia != ib:
        assume(all(ia) and all(ib))
        omega_b = Orientation(degree, tuple(F.mul(F.div(ib[0], ia[0]), x) for x in omega_b.coeffs))
    return pair, omega_b


def _assert_same_verdict(model, presented, mode: str) -> None:
    """Equal generic verdicts, unless either is a randomized negative."""
    got, want = generic_report(model, mode, CERTIFIED), generic_report(presented, mode, CERTIFIED)
    event(f"{mode} {got.holds} ({got.certification})")
    if "randomized" not in (got.certification, want.certification):
        assert got.holds == want.holds


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("F", [QQ, GF(32003)], ids=str)
@settings(max_examples=18, deadline=None)
@given(data=st.data())
def test_pair_model_and_blowup_over_a_fat_point_match_their_presentations(F, k, data):
    (pi_a, pi_b), omega_b = data.draw(pairs_onto_a_fat_point(F, k))
    A, B, T = pi_a.source, pi_b.source, pi_a.target
    D, n = A.socle_degree, A.socle_degree - k
    cs = connected_sum(pi_a, pi_b, omega_b=omega_b)
    assert hilbert_function(cs) == tuple(A.dim(i) + B.dim(i) - T.dim(i) - T.dim(i - n) for i in range(D + 1))
    assert is_gorenstein(cs) == (len(socle_vectors(cs)) == 1)
    presented = presented_algebra(cs)
    for mode in ("wlp", "slp"):
        _assert_same_verdict(cs, presented, mode)
    middle = [_form(data.draw, A.ring, i) for i in range(1, n)]
    bug = blowup(pi_a, middle, data.draw(st.sampled_from((1, -1, 2))))
    assert blowup_square_commutes(bug, exceptional_divisor(bug))
    _assert_same_verdict(bug, presented_algebra(bug), "wlp")


# -- Poincare duality on every Gorenstein construction ----------------------------


def _poincare_duality(alg) -> bool:
    """The pairing A_i x A_{D-i} -> k has rank dim A_i = dim A_{D-i} in every degree i."""
    D, omega = alg.socle_degree, default_orientation(alg)
    return all(alg.dim(i) == alg.dim(D - i) == rank(pairing_matrix(alg, omega, i)) for i in range(D + 1))


@st.composite
def gorenstein_constructions(draw, kind):
    if kind == "tensor":
        a = _dual_generator_algebra(draw, "xy", draw(st.integers(2, 3)), draw(st.integers(2, 3)))
        return tensor_product(a, _dual_generator_algebra(draw, "uv", draw(st.integers(1, 2)), 2))
    if kind == "blowup":
        A, T, n = draw(blowup_data())
        pi = AlgebraMap(A, T, [A.ring.variable(j) for j in range(A.nvars)])
        return blowup(pi, [Poly.zero(A.nvars, QQ)] * (n - 1), draw(st.sampled_from((1, -1, 2))))
    A, B = draw(gorenstein_pairs())
    if kind == "over-field":
        return connected_sum_over_field(A, B)
    return connected_sum(*_over_the_field(A, B))


@pytest.mark.parametrize("kind", ["tensor", "over-field", "pair", "blowup"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_gorenstein_constructions_satisfy_poincare_duality(kind, data):
    alg = data.draw(gorenstein_constructions(kind))
    assert _poincare_duality(alg)
    assert is_gorenstein(alg)


@settings(max_examples=8, deadline=None)
@given(gorenstein_pairs())
def test_fiber_product_over_the_field_fails_poincare_duality(pair):
    A, B = pair
    fp = fiber_product(*_over_the_field(A, B))
    D = fp.socle_degree
    assert rank(pairing_matrix(fp, default_orientation(fp), 0)) < max(fp.dim(0), fp.dim(D))
    assert not _poincare_duality(fp)
    assert not is_gorenstein(fp)


# -- the Gorenstein answers the constructions record --------------------------------


@st.composite
def tensor_factors(draw, names: str):
    """A dual-generator algebra, Gorenstein, or the quotient by x^a, y^b and up
    to two more monomials, Gorenstein or not."""
    if draw(st.booleans()):
        return _dual_generator_algebra(draw, names, draw(st.integers(1, 3)), 2)
    ring = Ring(tuple(names), QQ)
    powers = [(draw(st.integers(1, 4)), 0), (0, draw(st.integers(1, 4)))]
    extra = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any), max_size=2))
    gens = tuple(Poly.make(2, QQ, {m: QQ.one()}) for m in powers + extra)
    return from_ideal(Ideal(ring, gens))


@settings(max_examples=30, deadline=None)
@given(tensor_factors("xy"), tensor_factors("uv"))
def test_tensor_product_records_the_socle_s_gorenstein_answer(a, b):
    out = tensor_product(a, b)
    event(f"gorenstein {is_gorenstein(out)}")
    assert is_gorenstein(out) == (len(socle_vectors(out)) == 1)


@settings(max_examples=10, deadline=None)
@given(gorenstein_pairs())
def test_connected_sum_over_the_field_records_the_socle_s_gorenstein_answer(pair):
    out = connected_sum_over_field(*pair)
    assert is_gorenstein(out) == (len(socle_vectors(out)) == 1)
