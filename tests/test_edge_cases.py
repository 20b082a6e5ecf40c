import pytest

from lefschetz.exactmath import GF, QQ
from lefschetz.polynomials import DualPoly, Poly, eval_linear_power, from_ordinary
from lefschetz.algebra import (
    Ideal,
    Ring,
    from_dual_generator,
    from_ideal,
    is_gorenstein,
    same_degreewise_ideal,
)
from lefschetz.checks import (
    GenericityConfig,
    generic_report,
    slpn_for_element,
    wlp_for_element,
    wlp_generic,
)
from lefschetz.constructions import algebra_map, connected_sum, fiber_product


def ring(names, field=QQ, weights=None):
    return Ring(tuple(names.split(",")), field, tuple(weights) if weights else ())


def build(names, gens, field=QQ, weights=None, cap=None):
    r = ring(names, field, weights)
    return from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)), max_degree=cap)


def test_dual_generator_route_in_characteristic_p():
    # contraction is characteristic-free: Ann(XYZ) over GF(2) is still the
    # monomial complete intersection
    for p in (2, 5):
        F = GF(p)
        r = Ring(("x", "y", "z"), F)
        a = from_dual_generator(DualPoly.make(3, F, {(1, 1, 1): 1}), r)
        b = build("x,y,z", ["x^2", "y^2", "z^2"], field=F)
        assert same_degreewise_ideal(a, b)
        assert is_gorenstein(a)


def test_divided_dual_generator_char2_nontrivial():
    # X^[2] + Y^[2] over GF(2): x*y and x^2 - y^2 annihilate it
    F2 = GF(2)
    r = Ring(("x", "y"), F2)
    a = from_dual_generator(DualPoly.make(2, F2, {(2, 0): 1, (0, 2): 1}), r)
    assert a.hilbert_function() == (1, 2, 1)
    assert a.nf_poly(r.parse("x*y")).is_zero()
    assert a.nf_poly(r.parse("x^2 + y^2")).is_zero()


def test_eval_linear_power_small_characteristic_rejected():
    F3 = GF(3)
    L = Poly.variable(1, F3, 0)
    Fd = DualPoly.make(1, F3, {(4,): 1})
    with pytest.raises(ValueError):
        eval_linear_power(L, 4, Fd)


def test_weighted_variable_not_a_linear_form():
    a = build("x,y", ["x^2", "y^2"], weights=[1, 3])
    with pytest.raises(ValueError):
        wlp_for_element(a, a.ring.parse("y"))
    with pytest.raises(ValueError):
        wlp_for_element(a, a.ring.parse("x + y"))


def test_paper_example_c_unimodal_but_no_wlp():
    # |x| = 1, |y| = 2: H = (1,1,1,1) is unimodal yet the WLP fails because
    # the only degree-one elements are multiples of x
    c = build("x,y", ["x^2", "y^2"], weights=[1, 2])
    assert c.hilbert_function() == (1, 1, 1, 1)
    rep = wlp_generic(c, GenericityConfig(seed=0, trials=2, certify=True))
    assert rep.holds is False
    assert rep.certification == "symbolic"
    bad = [(m.i, m.d) for m in rep.maps if not m.full]
    assert (1, 1) in bad


def test_slpn_generic_exhaustive_finite_field():
    a = build("x,y", ["x^2", "y^2"], field=GF(3))
    rep = generic_report(a, "slpn", GenericityConfig(seed=0, trials=2))
    assert rep.holds is True
    assert rep.certification == "exhaustive"
    a2 = build("x,y", ["x^2", "y^2"], field=GF(2))
    rep2 = generic_report(a2, "slpn", GenericityConfig(seed=0, trials=2))
    assert rep2.holds is False


def test_connected_sum_incompatible_thom_classes():
    # tau_A maps onto z but tau_B dies in T: the pair is not in the fiber
    # product, so the construction must refuse
    a = build("x", ["x^3"])
    b = build("x,y", ["x^2", "y^2"])
    t = build("z", ["z^2"])
    pa = algebra_map(a, t, ["z"])
    pb = algebra_map(b, t, ["z", "0"])
    with pytest.raises(ValueError, match="incompatible"):
        connected_sum(pa, pb)
    # the fiber product itself is fine
    fp = fiber_product(pa, pb)
    assert fp.dim(1) == 2


def test_slpn_on_field_algebra():
    a = build("x", ["x"])
    rep = slpn_for_element(a, Poly.zero(1, QQ))
    assert rep.holds


def test_from_ordinary_rejects_small_characteristic():
    F2 = GF(2)
    with pytest.raises(ValueError):
        from_ordinary(Poly.make(1, F2, {(2,): 1}))


def test_weighted_connected_sum_over_field():
    # both summands weighted with socle degree 4
    a = build("x,y", ["x^2", "y^2"], weights=[1, 3])
    b = build("u", ["u^5"])
    from lefschetz.constructions import connected_sum_over_field

    cs = connected_sum_over_field(a, b)
    expect = (1, 2, 1, 2, 1)
    assert cs.hilbert_function() == expect
    assert is_gorenstein(cs)
