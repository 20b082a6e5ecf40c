import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.exactmath import GF, QQ
from lefschetz.polynomials import (
    DualPoly,
    ParseError,
    Poly,
    contract,
    differentiate,
    divided_multiply,
    dual_pairing,
    eval_linear_power,
    format_dual,
    format_poly,
    from_ordinary,
    grevlex_key,
    monomials,
    parse_dual,
    parse_element,
    parse_poly,
    to_ordinary,
)

XYZ = ("x", "y", "z")


def P(text, names=XYZ, field=QQ):
    return parse_poly(text, names, field)


def D(text, names=XYZ, field=QQ):
    return parse_dual(text, names, field)


# -- monomial bases ---------------------------------------------------------


def test_monomials_degree_zero():
    assert monomials(3, 0) == [(0, 0, 0)]


def test_monomials_count_binomial():
    assert len(monomials(3, 2)) == 6
    for n in range(1, 5):
        for d in range(6):
            assert len(monomials(n, d)) == math.comb(n + d - 1, d)


def test_monomials_two_vars_grevlex_order():
    # oracle: in two variables descending grevlex is descending power of x
    expect = [(5 - i, i) for i in range(6)]
    assert monomials(2, 5) == expect


def test_monomials_three_vars_degree_two_order():
    expect = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert monomials(3, 2) == expect


def test_weighted_monomials():
    # x of weight 1, y of weight 3: degree 3 monomials are x^3 and y
    assert set(monomials(2, 3, weights=[1, 3])) == {(3, 0), (0, 1)}


def test_memoised_monomials_are_fresh_lists():
    first = monomials(3, 2)
    first.append((9, 9, 9))
    first[0] = (0, 0, 0)
    assert monomials(3, 2) == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert monomials(2, 3, weights=[1, 3]) == monomials(2, 3, weights=(1, 3))
    with pytest.raises(ValueError):
        monomials(2, 3, weights=[1, 0])


def test_grevlex_total_order_refines_degree():
    monos = [m for d in range(4) for m in monomials(3, d)]
    keys = [grevlex_key(m) for m in monos]
    assert len(set(keys)) == len(keys)
    ranked = sorted(monos, key=grevlex_key)
    degs = [sum(m) for m in ranked]
    assert degs == sorted(degs)


# -- contraction, differentiation, divided products --------------------------


def test_contract_single_variable_coeff():
    g = parse_dual("X^[3]", ("x",), QQ)
    out = contract(parse_poly("x", ("x",), QQ), g)
    assert out == DualPoly.make(1, QQ, {(2,): 1})


def test_contract_by_one_is_identity():
    g = D("X^2*Y + 3*Z^3")
    assert contract(P("1"), g) == g


def test_contract_termwise_oracle():
    # x^2 against the divided form X^[2]+Y^[2]+Z^[2]
    g = DualPoly.make(3, QQ, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    out = contract(P("x^2"), g)
    assert out == DualPoly.make(3, QQ, {(0, 0, 0): 1})


def test_contract_variable_count_mismatch():
    with pytest.raises(ValueError):
        contract(parse_poly("x", ("x",), QQ), D("X"))


def test_differentiate_calculus():
    g = parse_dual("X^3", ("x",), QQ)  # divided: 6 X^[3]
    out = differentiate(parse_poly("x", ("x",), QQ), to_ordinary_dual(g))
    assert out == to_ordinary_dual(parse_dual("3*X^2", ("x",), QQ))


def to_ordinary_dual(g):
    """View a divided DualPoly as the same element with ordinary coefficients."""
    p = to_ordinary(g)
    return DualPoly(p.nvars, p.field, p.terms)


def test_differentiate_mixed_partial():
    # x^2 y applied to X^2 Y gives 2! * 1! = 2
    f = P("x^2*y")
    g_ord = DualPoly.make(3, QQ, {(2, 1, 0): 1})
    out = differentiate(f, g_ord)
    assert out == DualPoly.make(3, QQ, {(0, 0, 0): 2})


def test_differentiate_small_characteristic_rejected():
    F5 = GF(5)
    f = parse_poly("x", ("x",), F5)
    g = DualPoly.make(1, F5, {(6,): 1})
    with pytest.raises(ValueError):
        differentiate(f, g)


def test_divided_square():
    a = DualPoly.make(1, QQ, {(1,): 1})
    assert divided_multiply(a, a) == DualPoly.make(1, QQ, {(2,): 2})


def test_divided_square_char2():
    F2 = GF(2)
    a = DualPoly.make(1, F2, {(1,): 1})
    assert divided_multiply(a, a).is_zero()


def test_divided_multiply_by_one():
    one = DualPoly.make(2, QQ, {(0, 0): 1})
    g = DualPoly.make(2, QQ, {(1, 2): 3, (0, 1): 2})
    assert divided_multiply(one, g) == g


def test_eval_linear_power_single_variable():
    L = parse_poly("x", ("x",), QQ)
    F3 = from_ordinary(Poly.make(1, QQ, {(3,): 1}))  # X^3
    assert eval_linear_power(L, 3, F3) == 6


def test_eval_linear_power_sum_of_squares():
    L = P("x + y + z")
    F2 = from_ordinary(Poly.make(3, QQ, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}))
    assert eval_linear_power(L, 2, F2) == 6


coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw, nvars=3, max_deg=3, field=QQ, homogeneous=None):
    monos = [m for d in range(max_deg + 1) for m in monomials(nvars, d)]
    if homogeneous is not None:
        monos = monomials(nvars, homogeneous)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4))
    cs = draw(st.lists(coeffs, min_size=len(chosen), max_size=len(chosen)))
    return Poly.make(nvars, field, dict(zip(chosen, cs)))


@st.composite
def dual_polys(draw, nvars=3, max_deg=3, field=QQ):
    monos = [m for d in range(max_deg + 1) for m in monomials(nvars, d)]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4))
    cs = draw(st.lists(coeffs, min_size=len(chosen), max_size=len(chosen)))
    return DualPoly.make(nvars, field, dict(zip(chosen, cs)))


@given(polys(), polys(), dual_polys())
@settings(max_examples=60)
def test_contraction_is_module_action(f, g, G):
    assert contract(f * g, G) == contract(f, contract(g, G))


def test_perfect_pairing_identity_matrix():
    for d in range(4):
        monos = monomials(3, d)
        for i, a in enumerate(monos):
            for j, b in enumerate(monos):
                f = Poly.make(3, QQ, {a: 1})
                g = DualPoly.make(3, QQ, {b: 1})
                assert dual_pairing(f, g) == (1 if i == j else 0)


@given(polys(max_deg=2), polys(max_deg=2))
@settings(max_examples=40)
def test_divided_multiply_transport_char0(p, q):
    # Through X^a = a! X^[a] the divided product matches the ordinary product.
    a, b = from_ordinary(p), from_ordinary(q)
    assert divided_multiply(a, b) == from_ordinary(p * q)


@given(st.data())
@settings(max_examples=40)
def test_differentiate_agrees_with_contract(data):
    # Phi(F o g) = F . Phi(g) on random inputs
    f = data.draw(polys(max_deg=2))
    g_ord_poly = data.draw(polys(max_deg=3))
    g_ord = DualPoly(g_ord_poly.nvars, QQ, g_ord_poly.terms)
    lhs = differentiate(f, g_ord)
    lhs_divided = from_ordinary(Poly(lhs.nvars, QQ, lhs.terms))
    rhs = contract(f, from_ordinary(g_ord_poly))
    assert lhs_divided == rhs


@given(st.data())
@settings(max_examples=30)
def test_eval_linear_power_matches_iterated_differentiation(data):
    nvars = 3
    cs = data.draw(st.lists(coeffs, min_size=nvars, max_size=nvars))
    c = data.draw(st.integers(min_value=1, max_value=3))
    F_ord = data.draw(polys(homogeneous=c).filter(lambda p: not p.is_zero()))
    L = Poly.linear_form(nvars, QQ, cs)
    if L.is_zero():
        L = Poly.variable(nvars, QQ, 0)
    F_div = from_ordinary(F_ord)
    got = eval_linear_power(L, c, F_div)
    g = DualPoly(nvars, QQ, F_ord.terms)
    for _ in range(c):
        g = differentiate(L, g)
    expect = g.coefficient((0, 0, 0))
    assert got == expect


# -- parsing and formatting ---------------------------------------------------


def test_parse_two_term_poly():
    p = P("x^2*y - 3*z^3")
    assert p == Poly.make(3, QQ, {(2, 1, 0): 1, (0, 0, 3): -3})


def test_parse_rejects_mixed_schemes():
    with pytest.raises(ParseError):
        parse_element("X^2 + y^2", XYZ, QQ)


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse_element("X1^2 + Y^2", XYZ, QQ)


def test_parse_rational_coefficient():
    p = P("1/2*x + 3*y")
    assert p.coefficient((1, 0, 0)) == Fraction(1, 2)


def test_parse_dual_ordinary_to_divided():
    g = D("X^2 + Y^2 + Z^2")
    assert g == DualPoly.make(3, QQ, {(2, 0, 0): 2, (0, 2, 0): 2, (0, 0, 2): 2})


def test_parse_dual_divided_syntax():
    g = D("X^[2] + 5*Y^[3]")
    assert g == DualPoly.make(3, QQ, {(2, 0, 0): 1, (0, 3, 0): 5})


def test_format_poly_examples():
    p = P("x^2*y - 3*z^3")
    assert format_poly(p, XYZ) == "x^2*y - 3*z^3"


def test_format_dual_char0_uses_ordinary_basis():
    g = from_ordinary(Poly.make(3, QQ, {(2, 0, 0): 1, (0, 2, 0): 1}))
    assert format_dual(g, XYZ) == "X^2 + Y^2"


def test_format_dual_charp_uses_divided_basis():
    F2 = GF(2)
    g = DualPoly.make(3, F2, {(3, 0, 0): 1, (1, 1, 0): 1})
    text = format_dual(g, XYZ)
    assert "X^[3]" in text
    assert parse_dual(text, XYZ, F2) == g


@given(polys())
@settings(max_examples=100)
def test_poly_format_parse_round_trip(p):
    assert parse_poly(format_poly(p, XYZ), XYZ, QQ) == p


@given(dual_polys())
@settings(max_examples=60)
def test_dual_format_parse_round_trip(g):
    assert parse_dual(format_dual(g, XYZ), XYZ, QQ) == g


@given(dual_polys(field=GF(5)))
@settings(max_examples=60)
def test_dual_format_parse_round_trip_char_p(g):
    assert parse_dual(format_dual(g, XYZ), XYZ, GF(5)) == g


def test_substitute_composition():
    p = P("x^2 + y*z")
    images = [P("x + y"), P("z"), P("x")]
    q = p.substitute(images)
    assert q == P("x^2 + 2*x*y + y^2 + x*z")
