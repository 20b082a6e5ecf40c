import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import polynomials
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


# -- the term kernel against the FieldSpec-dispatch reference ---------------
#
# The functions below are the term operations as they were written with one
# FieldSpec call per scalar, before Poly and DualPoly shared a kernel with
# plain coefficient arithmetic.  They build their terms without ``make``, so
# the kernel is checked for equal results, descending grevlex order and
# canonical coefficients.

FIELDS = [QQ, GF(2), GF(5), GF(32003)]


def _ref_terms(F, mapping):
    items = []
    for m, c in mapping.items():
        c = F.coerce(c)
        if not F.is_zero(c):
            items.append((tuple(m), c))
    items.sort(key=lambda t: grevlex_key(t[0]), reverse=True)
    return tuple(items)


def ref_add(p, q):
    F = p.field
    acc = {m: c for m, c in p.terms}
    for m, c in q.terms:
        acc[m] = F.add(acc.get(m, F.zero()), c)
    return type(p)(p.nvars, F, _ref_terms(F, acc))


def ref_neg(p):
    F = p.field
    return type(p)(p.nvars, F, tuple((m, F.neg(c)) for m, c in p.terms))


def ref_sub(p, q):
    return ref_add(p, ref_neg(q))


def ref_scale(p, c):
    F = p.field
    c = F.coerce(c)
    if F.is_zero(c):
        return type(p)(p.nvars, F, ())
    return type(p)(p.nvars, F, tuple((m, F.mul(c, v)) for m, v in p.terms))


def ref_mul(p, q):
    F = p.field
    acc = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            m = tuple(x + y for x, y in zip(m1, m2))
            acc[m] = F.add(acc.get(m, F.zero()), F.mul(c1, c2))
    return Poly(p.nvars, F, _ref_terms(F, acc))


def ref_pow(p, n):
    out = Poly(p.nvars, p.field, _ref_terms(p.field, {(0,) * p.nvars: 1}))
    for _ in range(n):
        out = ref_mul(out, p)
    return out


def ref_evaluate(p, values):
    F = p.field
    vals = [F.coerce(v) for v in values]
    acc = F.zero()
    for m, c in p.terms:
        term = c
        for e, v in zip(m, vals):
            for _ in range(e):
                term = F.mul(term, v)
        acc = F.add(acc, term)
    return acc


def ref_substitute(p, images):
    F = p.field
    n = images[0].nvars
    out = Poly(n, F, ())
    for m, c in p.terms:
        term = Poly(n, F, _ref_terms(F, {(0,) * n: c}))
        for e, img in zip(m, images):
            if e:
                term = ref_mul(term, ref_pow(img, e))
        out = ref_add(out, term)
    return out


def _ref_pairs(f, g, pair):
    F = f.field
    acc = {}
    for a, ca in f.terms:
        for b, cb in g.terms:
            hit = pair(a, b)
            if hit is not None:
                m, k = hit
                acc[m] = F.add(acc.get(m, F.zero()), F.mul(F.mul(ca, cb), F.from_int(k)))
    return DualPoly(g.nvars, F, _ref_terms(F, acc))


def ref_contract(f, g):
    return _ref_pairs(
        f, g, lambda a, b: (tuple(y - x for x, y in zip(a, b)), 1) if all(x <= y for x, y in zip(a, b)) else None
    )


def ref_differentiate(f, g):
    def pair(a, b):
        if not all(x <= y for x, y in zip(a, b)):
            return None
        m = tuple(y - x for x, y in zip(a, b))
        return m, math.prod(math.factorial(e) for e in b) // math.prod(math.factorial(e) for e in m)

    return _ref_pairs(f, g, pair)


def ref_divided_multiply(a, b):
    return _ref_pairs(
        a, b, lambda m1, m2: (tuple(x + y for x, y in zip(m1, m2)), math.prod(math.comb(x + y, x) for x, y in zip(m1, m2)))
    )


def _factorial(m):
    return math.prod(math.factorial(e) for e in m)


def ref_to_ordinary(g):
    F = g.field
    return Poly(g.nvars, F, _ref_terms(F, {m: F.div(c, F.from_int(_factorial(m))) for m, c in g.terms}))


def ref_from_ordinary(p):
    F = p.field
    return DualPoly(p.nvars, F, _ref_terms(F, {m: F.mul(c, F.from_int(_factorial(m))) for m, c in p.terms}))


def ref_dual_pairing(f, g):
    F = f.field
    gmap = {m: c for m, c in g.terms}
    acc = F.zero()
    for m, c in f.terms:
        if m in gmap:
            acc = F.add(acc, F.mul(c, gmap[m]))
    return acc


def ref_eval_linear_power(L, c, G):
    F = L.field
    coeffs = [F.zero()] * L.nvars
    for m, cf in L.terms:
        coeffs[m.index(1)] = cf
    acc = F.zero()
    for b, cb in G.terms:
        term = F.mul(cb, F.from_int(math.factorial(c) // _factorial(b)))
        for e, a in zip(b, coeffs):
            for _ in range(e):
                term = F.mul(term, a)
        acc = F.add(acc, term)
    return acc


def assert_canonical_scalar(F, c):
    if F.characteristic == 0:
        assert type(c) is Fraction, c
    else:
        assert type(c) is int and 0 <= c < F.characteristic, c


def assert_canonical(x):
    """Terms strictly descending in grevlex, no zeros, canonical scalars."""
    keys = [grevlex_key(m) for m, _ in x.terms]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys), x
    for m, c in x.terms:
        assert type(m) is tuple and len(m) == x.nvars
        assert c != 0, x
        assert_canonical_scalar(x.field, c)


def same(got, want):
    """Equal, of the same class, and canonical."""
    assert type(got) is type(want)
    assert got == want, (got, want)
    assert_canonical(got)


# raw coefficients: ints of any size and fractions whose denominators are
# units in every field drawn (make coerces them)
raw_coeffs = st.one_of(
    st.integers(min_value=-40000, max_value=40000),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from([1, 3, 7, 9])),
)
fields = st.sampled_from(FIELDS)


@st.composite
def elements(draw, F, cls=Poly, nvars=3, max_deg=3, homogeneous=None):
    monos = (
        monomials(nvars, homogeneous)
        if homogeneous is not None
        else [m for d in range(max_deg + 1) for m in monomials(nvars, d)]
    )
    chosen = draw(st.lists(st.sampled_from(monos), max_size=5))
    return cls.make(nvars, F, {m: draw(raw_coeffs) for m in chosen})


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_dispatch_reference(data):
    F = data.draw(fields)
    cls = data.draw(st.sampled_from([Poly, DualPoly]))
    p, q = data.draw(elements(F, cls)), data.draw(elements(F, cls))
    c = data.draw(raw_coeffs)
    assert_canonical(p)
    same(p + q, ref_add(p, q))
    same(p - q, ref_sub(p, q))
    same(-p, ref_neg(p))
    same(p.scale(c), ref_scale(p, c))
    assert_canonical_scalar(F, p.coefficient((1, 1, 1)))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_ring_operations_match_dispatch_reference(data):
    F = data.draw(fields)
    p, q = data.draw(elements(F, max_deg=2)), data.draw(elements(F, max_deg=2))
    n = data.draw(st.integers(min_value=0, max_value=3))
    point = data.draw(st.lists(raw_coeffs, min_size=3, max_size=3))
    images = [data.draw(elements(F, nvars=2, max_deg=2)) for _ in range(3)]
    same(p * q, ref_mul(p, q))
    same(p**n, ref_pow(p, n))
    got = p.evaluate(point)
    assert got == ref_evaluate(p, point)
    assert_canonical_scalar(F, got)
    same(p.substitute(images), ref_substitute(p, images))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_module_actions_match_dispatch_reference(data):
    F = data.draw(fields)
    f = data.draw(elements(F, max_deg=2))
    g, h = data.draw(elements(F, DualPoly)), data.draw(elements(F, DualPoly, max_deg=2))
    same(contract(f, g), ref_contract(f, g))
    same(divided_multiply(g, h), ref_divided_multiply(g, h))
    pairing = dual_pairing(f, g)
    assert pairing == ref_dual_pairing(f, g)
    assert_canonical_scalar(F, pairing)
    if F.factorial_invertible(3):
        same(differentiate(f, g), ref_differentiate(f, g))
        p = data.draw(elements(F))
        same(from_ordinary(p), ref_from_ordinary(p))
        c = data.draw(st.integers(min_value=1, max_value=3))
        G = data.draw(elements(F, DualPoly, homogeneous=c))
        L = Poly.linear_form(3, F, data.draw(st.lists(raw_coeffs, min_size=3, max_size=3)))
        if not G.is_zero() and not L.is_zero():
            value = eval_linear_power(L, c, G)
            assert value == ref_eval_linear_power(L, c, G)
            assert_canonical_scalar(F, value)
    if F.characteristic == 0:
        same(to_ordinary(g), ref_to_ordinary(g))


def _reduce(x, F):
    """The ring map QQ -> GF(p) on p-integral elements and scalars."""
    if isinstance(x, (Poly, DualPoly)):
        return type(x).make(x.nvars, F, dict(x.terms))
    return F.coerce(x)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_reduction_mod_p_commutes_with_the_kernel(data):
    # raw_coeffs keep every denominator prime to 2, 5 and 32003
    F = data.draw(st.sampled_from(FIELDS[1:]))
    p, q = data.draw(elements(QQ, max_deg=2)), data.draw(elements(QQ, max_deg=2))
    g, h = data.draw(elements(QQ, DualPoly)), data.draw(elements(QQ, DualPoly, max_deg=2))
    c = data.draw(raw_coeffs)
    point = data.draw(st.lists(raw_coeffs, min_size=3, max_size=3))
    images = [data.draw(elements(QQ, max_deg=1)) for _ in range(3)]
    pF, qF, gF, hF = (_reduce(x, F) for x in (p, q, g, h))
    assert _reduce(p + q, F) == pF + qF
    assert _reduce(p - q, F) == pF - qF
    assert _reduce(-g, F) == -gF
    assert _reduce(g.scale(c), F) == gF.scale(c)
    assert _reduce(p * q, F) == pF * qF
    assert _reduce(p**2, F) == pF**2
    assert _reduce(p.evaluate(point), F) == pF.evaluate(point)
    assert _reduce(p.substitute(images), F) == pF.substitute([_reduce(i, F) for i in images])
    assert _reduce(contract(p, g), F) == contract(pF, gF)
    assert _reduce(divided_multiply(g, h), F) == divided_multiply(gF, hF)
    assert _reduce(dual_pairing(p, g), F) == dual_pairing(pF, gF)
    if F.factorial_invertible(3):
        assert _reduce(differentiate(p, g), F) == differentiate(pF, gF)
        assert _reduce(from_ordinary(p), F) == from_ordinary(pF)


def test_negation_and_scaling_do_not_sort(monkeypatch):
    # both keep the terms in order and build them directly: no sort key
    calls = []
    monkeypatch.setattr(polynomials, "grevlex_key", lambda m: calls.append(m) or grevlex_key(m))
    for F in FIELDS:
        for cls in (Poly, DualPoly):
            x = cls.make(3, F, {m: k + 1 for k, m in enumerate(monomials(3, 1) + monomials(3, 2))})
            assert calls, "make sorts through the module's grevlex_key"
            calls.clear()
            got = [-x, x.scale(3), x.scale(Fraction(-2, 7))]
            assert calls == []
            for y, want in zip(got, [ref_neg(x), ref_scale(x, 3), ref_scale(x, Fraction(-2, 7))]):
                same(y, want)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_embedding_is_a_renaming_substitution(data):
    F = data.draw(fields)
    k = data.draw(st.integers(min_value=1, max_value=3))
    p = data.draw(elements(F, nvars=k))
    n = data.draw(st.integers(min_value=k, max_value=5))
    off = data.draw(st.integers(min_value=0, max_value=n - k))
    got = p.embedded(n, off)
    same(got, p.substitute([Poly.variable(n, F, off + j) for j in range(k)]))
    with pytest.raises(ValueError):
        p.embedded(n, n - k + 1)


def test_poly_and_dual_with_equal_terms_stay_distinct():
    p = P("x^2 + 3*y")
    g = DualPoly(p.nvars, p.field, p.terms)
    assert p != g and g != p
    assert repr(p).startswith("Poly(") and repr(g).startswith("DualPoly(")
    assert type(-g) is DualPoly and type(g + g) is DualPoly and type(g.scale(2)) is DualPoly
    assert type(DualPoly.zero(3, QQ)) is DualPoly and type(Poly.make(3, QQ, {})) is Poly
