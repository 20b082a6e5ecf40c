from fractions import Fraction
from importlib import resources

import pytest

from lefschetz import algebra, constructions
from lefschetz.descfiles import parse_algebra_text, parse_map_text
from lefschetz.exactmath import QQ, rank
from lefschetz.polynomials import Poly
from lefschetz.algebra import (
    Ideal,
    NotGorensteinError,
    Ring,
    default_orientation,
    from_dual_generator,
    from_ideal,
    hilbert_function,
    is_gorenstein,
    orientation_from_socle_element,
    pairing_matrix,
    same_degreewise_ideal,
    socle_vectors,
)
from lefschetz.checks import (
    GenericityConfig,
    jordan_type,
    nll_conditions,
    slp_generic,
    slpn_for_element,
    wlp_generic,
)
from lefschetz.constructions import (
    AlgebraMap,
    BlowupAlgebra,
    algebra_map,
    blowup,
    blowup_square_commutes,
    connected_sum,
    connected_sum_over_field,
    exceptional_divisor,
    fiber_product,
    identity_map,
    lefschetz_preservation_report,
    presentation_of,
    presented_algebra,
    tensor_product,
    thom_class,
)
from reference_operators import ref_lift_matrix, ref_map_matrix


def ring(names, field=QQ, weights=None):
    return Ring(tuple(names.split(",")), field, tuple(weights) if weights else ())


def build(names, gens, field=QQ, weights=None, cap=None):
    r = ring(names, field, weights)
    return from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)), max_degree=cap)


CFG = GenericityConfig(seed=9, trials=3)


# -- tensor products ----------------------------------------------------------


def test_tensor_two_lines():
    a = build("x", ["x^2"])
    b = build("y", ["y^2"])
    t = tensor_product(a, b)
    assert t.hilbert_function() == (1, 2, 1)
    direct = build("x,y", ["x^2", "y^2"])
    assert same_degreewise_ideal(t, direct)


def test_tensor_renames_colliding_variables():
    a = build("x,y", ["x^2", "y^2"])
    t = tensor_product(a, a)
    assert t.ring.varnames == ("x", "y", "x_2", "y_2")
    assert t.hilbert_function() == (1, 4, 6, 4, 1)


def _data_algebra(name):
    return parse_algebra_text((resources.files("lefschetz") / "data" / name).read_text()).build()


def _pinned_form(alg):
    ring = alg.ring
    return alg.hilbert_function(), ring.varnames, ring.weights, [ring.format(g) for g in alg.presentation_generators()]


def test_tensor_of_weighted_algebras_is_pinned():
    # the golden corpus joins unweighted rings only; relations as formatted
    # before the generators were moved by Poly.embedded
    t = tensor_product(_data_algebra("weighted_y3.alg"), _data_algebra("x2y2.alg"))
    assert _pinned_form(t) == (
        (1, 3, 3, 2, 3, 3, 1),
        ("x", "y", "x_2", "y_2"),
        (1, 3, 1, 1),
        ["x^2", "y^2", "x_2^2", "y_2^2"],
    )


def test_connected_sum_over_field_of_weighted_algebras_is_pinned():
    a = _data_algebra("weighted_y3.alg")
    cs = connected_sum_over_field(a, a)
    assert _pinned_form(cs) == (
        (1, 2, 0, 2, 1),
        ("x", "y", "x_2", "y_2"),
        (1, 3, 1, 3),
        ["x^2", "y^2", "x_2^2", "y_2^2", "x*x_2", "x*y_2", "y*x_2", "y*y_2", "x*y + x_2*y_2"],
    )


def test_tensor_nonunimodal_remark():
    a = build("x,y,z", ["x^2", "x*y", "y^2", "x*z", "y*z", "z^5"])
    assert a.hilbert_function() == (1, 3, 1, 1, 1)
    t = tensor_product(a, a)
    assert t.hilbert_function() == (1, 6, 11, 8, 9, 8, 3, 2, 1)


def test_tensor_slpn_witness_combines():
    a = build("x,y", ["x^2", "y^2"])
    b = build("z", ["z^3"])
    t = tensor_product(a, b)
    L = t.ring.parse("x + y + z")
    assert slpn_for_element(t, L).holds
    assert slpn_for_element(a, a.ring.parse("x + y")).holds
    assert slpn_for_element(b, b.ring.parse("z")).holds


# -- algebra maps -------------------------------------------------------------


def test_map_example_71():
    a = build("x,y", ["x^2", "y^4"])
    t = build("z", ["z^2"])
    pi = algebra_map(a, t, ["z", "0"])
    assert pi.surjective


def test_identity_map_valid():
    a = build("x,y", ["x^2", "y^4"])
    assert identity_map(a).surjective


def test_ill_defined_map_rejected():
    a = build("x", ["x^2"])
    t = build("z", ["z^3"])
    with pytest.raises(ValueError):
        algebra_map(a, t, ["z"])


def test_degree_mismatch_rejected():
    a = build("x,y", ["x^2", "y^4"])
    t = build("z", ["z^4"])
    with pytest.raises(ValueError):
        algebra_map(a, t, ["z^2", "0"])


# -- Thom classes -------------------------------------------------------------


def test_thom_class_example_71():
    a = build("x,y", ["x^2", "y^4"])
    t = build("z", ["z^2"])
    pi = algebra_map(a, t, ["z", "0"])
    tau = thom_class(pi, default_orientation(a), default_orientation(t))
    assert tau.degree == 3
    assert tau.poly(a) == a.ring.parse("y^3")


def test_thom_class_example_71_b():
    b = build("u,v", ["u^3", "v^3"])
    t = build("z", ["z^2"])
    pi = algebra_map(b, t, ["z", "0"])
    tau = thom_class(pi, default_orientation(b), default_orientation(t))
    assert tau.poly(b) == b.ring.parse("u*v^2")


def _solve_off_by_e0(monkeypatch):
    """Make the Thom class's solve return tau + e_0 for the map x -> z, y -> 0
    of k[x,y]/(x^2, y^4) onto k[z]/(z^2), and return that map."""
    a = build("x,y", ["x^2", "y^4"])
    t = build("z", ["z^2"])
    solve = constructions.solve

    def off_by_e0(m, b):
        sol = solve(m, b)
        return (sol[0] + 1,) + sol[1:]

    monkeypatch.setattr(constructions, "solve", off_by_e0)
    return algebra_map(a, t, ["z", "0"])


def test_thom_class_that_fails_its_identity_is_refused(monkeypatch):
    # the identity is checked in degree D_T alone, where the pairing is
    # perfect: tau + e_0 pairs differently with some basis vector there
    pi = _solve_off_by_e0(monkeypatch)
    with pytest.raises(AssertionError, match="Thom class fails its defining identity"):
        thom_class(pi, default_orientation(pi.source), default_orientation(pi.target))


def test_thom_class_that_fails_its_dual_characterisation_is_refused(monkeypatch):
    # with the identity check off, the dual-generator route alone refuses
    # tau + e_0: its images are built in T's polynomial ring, not read off
    # the map's columns that the solve's right-hand side came from
    pi = _solve_off_by_e0(monkeypatch)
    monkeypatch.setattr(constructions, "_check_thom_identity", lambda *args: None)
    with pytest.raises(AssertionError, match="fails the dual-generator characterisation"):
        thom_class(pi, default_orientation(pi.source), default_orientation(pi.target))


def test_thom_class_to_base_field_is_socle():
    a = build("x,y", ["x^2", "y^4"])
    f = build("z", ["z"])  # the field, presented with one dead variable
    pi = algebra_map(a, f, ["0", "0"])
    tau = thom_class(pi, default_orientation(a), default_orientation(f))
    assert tau.degree == 4
    assert tau.poly(a) == a.ring.parse("x*y^3")


# -- fiber products and connected sums ----------------------------------------


def _example_71():
    a = build("x,y", ["x^2", "y^4"])
    b = build("u,v", ["u^3", "v^3"])
    t = build("z", ["z^2"])
    pa = algebra_map(a, t, ["z", "0"])
    pb = algebra_map(b, t, ["z", "0"])
    return pa, pb


def test_fiber_product_example_71():
    fp = fiber_product(*_example_71())
    assert hilbert_function(fp) == (1, 3, 5, 4, 2)


def test_fiber_product_requires_surjective():
    a = build("x,y", ["x^2", "y^4"])
    t = build("z", ["z^2"])
    pa = algebra_map(a, t, ["0", "0"])  # not surjective in degree 1
    b = build("u,v", ["u^3", "v^3"])
    pb = algebra_map(b, t, ["z", "0"])
    with pytest.raises(ValueError):
        fiber_product(pa, pb)


def test_connected_sum_example_71():
    cs = connected_sum(*_example_71())
    assert hilbert_function(cs) == (1, 3, 5, 3, 1)
    assert is_gorenstein(cs)


def test_fiber_product_presentation_matches_paper():
    # F[z1,z2,z3]/(z1^4, z2^3, z3^3, z1 z3, z1 z2^2)
    fp = fiber_product(*_example_71())
    pres = presented_algebra(fp)
    paper = build("z1,z2,z3", ["z1^4", "z2^3", "z3^3", "z1*z3", "z1*z2^2"], cap=8)
    assert hilbert_function(pres) == hilbert_function(paper) == (1, 3, 5, 4, 2)


def _example_73():
    a = build("x", ["x^4"])
    b = build("u,v", ["u^3", "v^2"])
    t = build("z", ["z^2"])
    return algebra_map(a, t, ["z"]), algebra_map(b, t, ["z", "0"])


def test_nonstandard_example_73():
    fp = fiber_product(*_example_73())
    assert hilbert_function(fp) == (1, 2, 3, 2)
    _, _, gens = presentation_of(fp)
    assert sorted(gd for gd, _ in gens) == [1, 1, 2]
    cs = connected_sum(*_example_73())
    assert hilbert_function(cs) == (1, 2, 2, 1)
    assert is_gorenstein(cs)


def _blowup_notgor_model():
    a, _, pi = _blowup_notgor()
    return blowup(pi, [a.ring.parse("x"), a.ring.parse("0")], 1)


def _presentation_text(alg):
    ring, relations, gens = presentation_of(alg)
    for _, vec in gens:
        assert all(type(x) is Fraction for x in vec)
    return ring.weights, [ring.format(p) for p in relations], [(d, tuple(map(int, v))) for d, v in gens]


E3 = [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))]
PRESENTATIONS = {
    "fiber_product_71": (
        lambda: fiber_product(*_example_71()),
        ((1, 1, 1), ["z1*z3", "z1*z2^2", "z2^3", "z3^3", "z1^4"], E3),
    ),
    "connected_sum_71": (
        lambda: connected_sum(*_example_71()),
        ((1, 1, 1), ["z1*z3", "z1^3 + z2*z3^2", "z1*z2^2", "z2^3", "z3^3"], E3),
    ),
    "blowup_notgor": (
        _blowup_notgor_model,
        ((1, 1, 1), ["z2*z3", "z1^3", "z1*z2^2 + z1*z3^2 + z3^3", "z2^3", "z1^2*z3"], E3),
    ),
    "fiber_product_73": (
        lambda: fiber_product(*_example_73()),
        (
            (1, 1, 2),
            ["z2^2", "z1^3 - z1*z3", "z2*z3", "z1^4", "z3^2"],
            [(1, (1, 0)), (1, (0, 1)), (2, (1, 0, 0))],
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_presentation_is_pinned(name):
    # ring weights, relations and generator data as extracted before the
    # generators were read from ``algebra_generators``
    make, want = PRESENTATIONS[name]
    assert _presentation_text(make()) == want


def test_presentation_generator_guard(monkeypatch):
    fp = fiber_product(*_example_71())
    monkeypatch.setattr(constructions, "MAX_PRESENTATION_GENERATORS", 2)
    with pytest.raises(ValueError, match="too many generators for a presentation"):
        presentation_of(fp)
    monkeypatch.setattr(constructions, "MAX_PRESENTATION_GENERATORS", 3)
    assert len(presentation_of(fp)[2]) == 3


def test_connected_sum_socle_degree_mismatch():
    a = build("x", ["x^4"])
    b = build("u", ["u^3"])
    t = build("z", ["z^2"])
    pa = algebra_map(a, t, ["z"])
    pb = algebra_map(b, t, ["z"])
    with pytest.raises(ValueError):
        connected_sum(pa, pb)


def test_connected_sums_refuse_a_summand_that_is_not_gorenstein():
    # h = (1, 2, 1), yet the socle is spanned by x and y^2
    a = build("x,y", ["x^2", "x*y", "y^3"])
    b = build("u,v", ["u^2", "v^2"])
    f = build("w", ["w"])
    for first, second in ((a, b), (b, a)):
        with pytest.raises(NotGorensteinError, match="^summands must be Gorenstein$"):
            connected_sum_over_field(first, second)
        maps = algebra_map(first, f, ["0", "0"]), algebra_map(second, f, ["0", "0"])
        with pytest.raises(NotGorensteinError, match="^summands must be Gorenstein$"):
            connected_sum(*maps)


def test_connected_sum_over_field_two_chains():
    a = build("x", ["x^3"])
    b = build("y", ["y^3"])
    cs = connected_sum_over_field(a, b)
    assert cs.hilbert_function() == (1, 2, 1)
    assert is_gorenstein(cs)
    # matches the pair model over the field
    f = build("w", ["w"])
    pa = algebra_map(a, f, ["0"])
    pb = algebra_map(b, f, ["0"])
    csp = connected_sum(pa, pb)
    assert hilbert_function(csp) == cs.hilbert_function()
    omega_pair = default_orientation(csp)
    omega_pres = default_orientation(cs)
    for i in range(cs.socle_degree + 1):
        mp = pairing_matrix(csp, omega_pair, i)
        mq = pairing_matrix(cs, omega_pres, i)
        assert mp.rows == mq.rows and mp.cols == mq.cols
        assert rank(mp) == rank(mq) == mp.rows


def test_connected_sum_with_truncation_pattern():
    # B = F[y]/(y^{d+1}) adds (0,1,1,...,1,0) to the Hilbert function
    a = build("x,y", ["x^2", "y^4"])  # socle degree 4
    b = build("w", ["w^5"])
    cs = connected_sum_over_field(a, b)
    expect = tuple(
        ha + (1 if 1 <= i <= 3 else 0) for i, ha in enumerate(a.hilbert_function())
    )
    assert cs.hilbert_function() == expect


def _fiber_product_over_field():
    a = build("x,y", ["x^2", "y^4"])
    b = build("u,v", ["u^3", "v^3"])
    f = build("w", ["w"])
    return a, fiber_product(algebra_map(a, f, ["0", "0"]), algebra_map(b, f, ["0", "0"]))


def test_fiber_product_over_the_field_is_not_gorenstein_before_its_socle(monkeypatch):
    # h_D = 2, and A_D lies in the socle: no socle computation is needed
    a, fp = _fiber_product_over_field()
    calls = []
    monkeypatch.setattr(algebra, "socle_vectors", lambda alg: calls.append(alg) or socle_vectors(alg))
    assert fp.dim(fp.socle_degree) == 2
    assert not is_gorenstein(fp)
    assert calls == []
    # a complete intersection is proved with no socle either; h_D = 1 on
    # (x^2, xy, y^3), three generators in two variables, so its socle decides
    assert is_gorenstein(a) and calls == []
    c = build("x,y", ["x^2", "x*y", "y^3"])
    assert not is_gorenstein(c) and calls == [c]


def test_tensor_and_connected_sum_record_their_gorenstein_answer(monkeypatch):
    # socle(A (x) B) = socle(A) (x) socle(B), and a connected sum over k of
    # Gorenstein summands of socle degree >= 1 is Gorenstein: no socle of
    # an output is computed
    r = ring("x,y")
    a = from_dual_generator(r.parse_dual("X^2*Y + 2*Y^3"), r)
    b = from_dual_generator(r.parse_dual("X^3 - X*Y^2"), r)
    c = build("x,y", ["x^2", "x*y", "y^3"])  # not Gorenstein, h_D = 1
    calls = []
    monkeypatch.setattr(algebra, "socle_vectors", lambda alg: calls.append(alg) or socle_vectors(alg))
    outs = [tensor_product(a, b), connected_sum_over_field(a, b)]
    assert [is_gorenstein(m) for m in outs] == [True, True] and calls == []
    assert not is_gorenstein(tensor_product(c, a)) and calls == [c]
    assert not is_gorenstein(tensor_product(a, c)) and calls == [c]
    assert [len(socle_vectors(m)) for m in outs] == [1, 1]


def test_is_gorenstein_is_a_one_dimensional_socle_on_every_model():
    pa, pb = _example_71()
    models = [
        pa.source,
        build("x,y", ["x^2", "x*y", "y^3"]),  # h_D = 1, socle spanned by x and y^2
        fiber_product(pa, pb),
        _fiber_product_over_field()[1],
        connected_sum(pa, pb),
        _blowup_notgor_model(),
    ]
    answers = [is_gorenstein(m) for m in models]
    assert answers == [len(socle_vectors(m)) == 1 for m in models]
    assert answers == [True, False, False, False, True, True]


def test_fiber_product_over_field_presentation():
    # Prop 7.1: all cross products die
    _, fp = _fiber_product_over_field()
    pres = build(
        "x,y,u,v",
        ["x^2", "y^4", "u^3", "v^3", "x*u", "x*v", "y*u", "y*v"],
        cap=9,
    )
    assert hilbert_function(fp) == pres.hilbert_function()


def test_example_72_first_connected_sum():
    # Ann(X^2YZ) #_{Ann(XY)} Ann(XY^2T) has H = (1,4,6,4,1) and WLP in char 0
    a = build("x,y,z", ["x^3", "y^2", "z^2"])
    b = build("x,y,t", ["x^2", "y^3", "t^2"])
    tq = build("x,y", ["x^2", "y^2"])
    pa = algebra_map(a, tq, ["x", "y", "0"])
    pb = algebra_map(b, tq, ["x", "y", "0"])
    cs = connected_sum(pa, pb)
    assert hilbert_function(cs) == (1, 4, 6, 4, 1)
    assert is_gorenstein(cs)
    rep = wlp_generic(cs, CFG)
    assert rep.holds


def test_example_72_first_matches_annihilator():
    r = ring("x,y,z,t")
    a = from_dual_generator(r.parse_dual("X^2*Y*Z - X*Y^2*T"), r)
    assert a.hilbert_function() == (1, 4, 6, 4, 1)
    explicit = build(
        "x,y,z,t",
        [
            "z*t",
            "x*z + y*t",
            "x^2*t",
            "y^2*z",
            "x^2*y^2",
            "x^3",
            "y^3",
            "z^2",
            "t^2",
        ],
        cap=5,
    )
    assert same_degreewise_ideal(a, explicit)


def test_example_72_second_fails_wlp():
    r = ring("x,y,z,t")
    a = from_dual_generator(r.parse_dual("X^3*Y*Z - X*Y^3*T"), r)
    assert a.hilbert_function() == (1, 4, 7, 7, 4, 1)
    explicit = build(
        "x,y,z,t",
        [
            "z^2",
            "t^2",
            "t*z",
            "x^2*t",
            "y^2*z",
            "x^2*z + y^2*t",
            "y^4",
            "x^2*y^2",
            "x^4",
        ],
        cap=6,
    )
    assert same_degreewise_ideal(a, explicit)
    from lefschetz.checks import hessian_det

    assert hessian_det(a, 2).is_zero()
    rep = wlp_generic(a, GenericityConfig(seed=2, trials=3, certify=True))
    assert rep.holds is False
    bad = [(m.i, m.d) for m in rep.maps if not m.full]
    assert (2, 1) in bad


# -- blowups ------------------------------------------------------------------


def _blowup_notgor():
    a = build("x,y", ["x^3", "y^3"])
    t = build("x,y", ["x^2", "y"])
    pi = algebra_map(a, t, ["x", "0"])
    return a, t, pi


def test_blowup_example_notgor():
    a, t, pi = _blowup_notgor()
    tau = thom_class(pi, default_orientation(a), default_orientation(t))
    assert tau.poly(a) == a.ring.parse("x*y^2")
    bug = blowup(pi, [a.ring.parse("x"), a.ring.parse("0")], 1)
    assert bug.hilbert_function() == (1, 3, 5, 3, 1)
    soc = socle_vectors(bug)
    assert len(soc) == 1
    d, vec = soc[0]
    assert d == 4
    a_part, slots = bug.split(4, vec)
    assert a.poly(4, a_part).monic() == a.ring.parse("x^2*y^2")
    assert all(all(x == 0 for x in s) for s in slots)


def test_blowup_exceptional_divisor_and_square():
    a, _, pi = _blowup_notgor()
    bug = blowup(pi, [a.ring.parse("x"), a.ring.parse("0")], 1)
    tt = exceptional_divisor(bug)
    assert tt.hilbert_function() == (1, 2, 2, 1)
    assert is_gorenstein(tt)
    assert blowup_square_commutes(bug, tt)


def test_blowup_square_reads_one_operator_per_first_factor_and_weight(monkeypatch):
    a, _, pi = _blowup_notgor()
    bug = blowup(pi, [a.ring.parse("x"), a.ring.parse("0")], 1)
    tt = exceptional_divisor(bug)
    calls = []
    original = BlowupAlgebra.operator
    monkeypatch.setattr(BlowupAlgebra, "operator", lambda self, *args: calls.append(args) or original(self, *args))
    assert blowup_square_commutes(bug, tt)
    # one per variable of A (the first factor) and weight of the second
    assert 0 < len(calls) <= a.nvars * len(set(a.ring.weights))


def _maps_into_two_copies_of_t():
    """The ex71 maps, each into its own parse of ex71_t.alg: equal algebras,
    but not one common quotient."""
    maps = []
    for k in "ab":
        a, t = _data_algebra(f"ex71_{k}.alg"), _data_algebra("ex71_t.alg")
        text = (resources.files("lefschetz") / "data" / f"ex71_map_{k}.map").read_text()
        maps.append(algebra_map(a, t, parse_map_text(text, a.ring, t.ring)))
    return maps


def test_connected_sum_checks_its_maps_before_any_thom_class(monkeypatch):
    pa, pb = _maps_into_two_copies_of_t()
    calls = []
    monkeypatch.setattr(constructions, "thom_class", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="maps must land in the common quotient"):
        connected_sum(pa, pb)
    assert calls == []


def test_fiber_product_refuses_maps_into_two_quotients():
    with pytest.raises(ValueError, match="maps must land in the common quotient"):
        fiber_product(*_maps_into_two_copies_of_t())


def test_blowup_lambda_zero_rejected():
    a, _, pi = _blowup_notgor()
    with pytest.raises(ValueError):
        blowup(pi, [a.ring.parse("x"), a.ring.parse("0")], 0)


def test_blowup_n1_is_isomorphic_to_base():
    a = build("x,y", ["x^2", "y^2"])
    t = build("x,y", ["x^2", "y"])
    pi = algebra_map(a, t, ["x", "0"])
    bug = blowup(pi, [], 1)
    assert bug.hilbert_function() == a.hilbert_function()
    assert is_gorenstein(bug)
    assert jordan_type(bug, (1, 1)).parts == jordan_type(a, a.ring.parse("x + y")).parts


def test_blowup_alternate_lifts_well_defined():
    # the lambda*tau*lift contribution must not depend on the chosen section
    a, t, pi = _blowup_notgor()
    bug = blowup(pi, [a.ring.parse("x"), a.ring.parse("0")], 1)
    import random

    rng = random.Random(0)
    F = a.field
    for m in range(t.socle_degree + 1):
        base = ref_lift_matrix(pi, m)
        for tcol in range(t.dim(m)):
            et = tuple(F.one() if s == tcol else F.zero() for s in range(t.dim(m)))
            lifted = base.mul_vec(et)
            # perturb the lift by a random kernel element of pi
            from lefschetz.exactmath import kernel_basis

            kern = kernel_basis(ref_map_matrix(pi, m))
            if not kern:
                continue
            pert = kern[rng.randrange(len(kern))]
            alt = tuple(F.add(x, y) for x, y in zip(lifted, pert))
            prod_base = a.multiply(bug.n, bug.tau.coords, m, lifted)
            prod_alt = a.multiply(bug.n, bug.tau.coords, m, alt)
            assert prod_base == prod_alt


def _perazzo_blowup(lam=1):
    r = ring("x,y,z,u,v")
    a = from_dual_generator(r.parse_dual("X*U^2 + Y*U*V + Z*V^2"), r)
    t = build("x,y,z,u,v", ["x^2", "y", "z", "u", "v"])
    pi = algebra_map(a, t, ["x", "0", "0", "0", "0"])
    omega_a = orientation_from_socle_element(a, 3, a.vector(a.ring.parse("x*u^2"), 3))
    omega_t = default_orientation(t)
    tau = thom_class(pi, omega_a, omega_t)
    assert tau.poly(a).monic() == a.ring.parse("u^2")
    lam_scaled = QQ.div(QQ.coerce(lam), tau.poly(a).leading_coefficient())
    bug = blowup(
        pi,
        [a.ring.parse("x").scale(-lam)],
        lam_scaled,
        omega_a=omega_a,
        omega_t=omega_t,
    )
    return a, t, pi, bug


def test_perazzo_blowup_hilbert_function():
    a, t, pi, bug = _perazzo_blowup()
    assert a.hilbert_function() == (1, 5, 5, 1)
    assert bug.hilbert_function() == (1, 6, 6, 1)
    assert is_gorenstein(bug)


def test_perazzo_blowup_symbolic_determinant():
    from lefschetz.checks import _symbolic_step_matrices, degree_one_coordinates
    from lefschetz.symbolic import poly_det

    a, t, pi, bug = _perazzo_blowup()
    coords = degree_one_coordinates(bug)
    assert len(coords) == 6
    steps = _symbolic_step_matrices(bug)
    mat = steps[1]  # degree 1 -> degree 2, a 6 x 6 polynomial matrix
    assert len(mat) == 6 and len(mat[0]) == 6
    d = poly_det(mat)
    # e is the coefficient of v (5th basis vector), f the coefficient of xi
    e_var = Poly.variable(6, QQ, 4)
    f_var = Poly.variable(6, QQ, 5)
    expect = (e_var**4) * (f_var**2)
    assert d.monic() == expect.monic()
    assert not d.is_zero()


def test_nll_conditions_on_pair_and_blowup_models():
    # the weak locus of the blowup is the squarefree part of the f^2 e^4
    # determinant above; on the fiber product it is a1 = 0.  The strong
    # conditions were recorded from products of the symbolic step matrices.
    a, t, pi, bug = _perazzo_blowup()
    ef = Poly.make(6, QQ, {(0, 0, 0, 0, 1, 1): 1})
    assert nll_conditions(bug, "weak") == [ef]
    cubic = {(1, 0, 0, 2, 0, 0): 1, (0, 1, 0, 1, 1, 0): 1, (0, 0, 1, 0, 2, 0): 1,
             (1, 0, 0, 0, 0, 2): -1, (0, 0, 0, 0, 0, 3): Fraction(-1, 3)}
    assert nll_conditions(bug, "strong") == [ef, Poly.make(6, QQ, cubic)]
    fp = fiber_product(*_example_71())
    assert nll_conditions(fp, "weak") == [Poly.make(3, QQ, {(1, 0, 0): 1})]
    strong = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0)]
    assert nll_conditions(fp, "strong") == [Poly.make(3, QQ, {m: 1}) for m in strong]


def test_perazzo_blowup_has_slp_base_fails_wlp():
    a, t, pi, bug = _perazzo_blowup()
    assert slp_generic(bug, CFG).holds
    assert wlp_generic(a, GenericityConfig(seed=7, trials=3, certify=True)).holds is False


# -- preservation reports -------------------------------------------------------


def test_preservation_blowup_slp():
    a, t, pi = _blowup_notgor()
    bug = blowup(pi, [a.ring.parse("x"), a.ring.parse("0")], 1)
    rep = lefschetz_preservation_report(
        "blowup-slp", {"A": a, "T": t}, bug, CFG
    )
    assert rep["hypotheses_satisfied"]
    assert rep["consistent"] and not rep["build_error"]


def test_preservation_fp_cs_wlp_small_quotient():
    a = build("x,y,z", ["x^3", "y^2", "z^2"])
    b = build("x,y,t", ["x^2", "y^3", "t^2"])
    tq = build("x,y", ["x^2", "y^2"])
    pa = algebra_map(a, tq, ["x", "y", "0"])
    pb = algebra_map(b, tq, ["x", "y", "0"])
    cs = connected_sum(pa, pb)
    rep = lefschetz_preservation_report(
        "fp-cs-wlp-small-quotient", {"A": a, "B": b, "T": tq}, cs, CFG
    )
    # k = 2 is not below floor((d-1)/2) = 1, so the hypothesis fails, but the
    # conclusion happens to hold; either way there is no inconsistency
    assert not rep["build_error"]
    assert rep["output"]["verdict"] is True


def test_preservation_tensor_slpn():
    a = build("x,y", ["x^2", "y^2"])
    b = build("z", ["z^3"])
    t = tensor_product(a, b)
    rep = lefschetz_preservation_report("tensor-slpn", {"A": a, "B": b}, t, CFG)
    assert rep["hypotheses_satisfied"]
    assert not rep["build_error"]


def test_preservation_cs_slp_over_field():
    a = build("x", ["x^3"])
    b = build("y", ["y^3"])
    cs = connected_sum_over_field(a, b)
    rep = lefschetz_preservation_report(
        "connected-sum-slp-over-field", {"A": a, "B": b}, cs, CFG
    )
    assert rep["hypotheses_satisfied"]
    assert not rep["build_error"]
