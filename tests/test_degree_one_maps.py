"""Generator maps and the steps of L built from them, model by model.

``algebra_generators`` stores each generator's map X_g : A_i -> A_{i+w} as
sparse columns; ``integer_maps`` scales the maps of the degree-one
generators to integers, ``RankTable``'s one chain combines them with the
coordinates of L (read back as the dense ``power_map_matrix(table, 1, i)``),
and ``socle_vectors`` takes the common kernel of the X_g.  The oracles build each map as the dense
reference operator (``reference_operators.ref_operator_matrix``, which
composes every derived model from its parts' dense operators), and the socle
from every basis vector of every positive degree.  Both sides must give the
same field elements, of the same Python types (``Fraction(2) == 2``, so
equality alone would miss a drift).  The product tables of the derived
models and of bundled quotients are pinned by digest, sampled products are
checked against the algebra axioms and the blowup relations, and a
quotient's operator is checked against reduced polynomial products.
Every generic power L^d of ``_generic_powers`` is checked against the chain
of polynomial matrix products of the per-coordinate step matrices; on dual
generators with non-unit denominators, the generic chains must push only
``int`` values and hand on ``Fraction`` coefficients.
"""

import hashlib
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import checks
from lefschetz.algebra import (
    GradedAlgebra,
    Ideal,
    Ring,
    algebra_generators,
    default_orientation,
    from_dual_generator,
    from_ideal,
    operator_matrix,
    orientation_from_socle_element,
    socle_vectors,
)
from lefschetz.checks import (
    MODULAR_PRIME,
    RankTable,
    _generic_powers,
    _symbolic_step_matrices,
    degree_one_coordinates,
    integer_maps,
    power_map_matrix,
)
from lefschetz.constructions import (
    algebra_map,
    blowup,
    connected_sum,
    connected_sum_over_field,
    fiber_product,
    tensor_product,
    thom_class,
)
from lefschetz.descfiles import parse_algebra_text, parse_map_text
from lefschetz.exactmath import GF, QQ, Matrix, dense, kernel_basis
from lefschetz.polynomials import DualPoly, Poly, contract, monomials
from lefschetz.symbolic import poly_mat_mul
from reference_operators import densify, ref_map_matrix, ref_operator_matrix

FIELDS = [QQ, GF(5), GF(32003)]
fields = st.sampled_from(FIELDS)
coefficients = st.integers(min_value=-4, max_value=4)


def assert_canonical_values(F, values):
    p = F.characteristic
    for x in values:
        if p:
            assert type(x) is int and 0 <= x < p, (F, x)
        else:
            assert type(x) is Fraction, x


def assert_canonical(F, mats):
    for m in mats:
        assert_canonical_values(F, (x for row in m.entries for x in row))


def assert_columns(F, cols, ncols, nrows):
    """The column format of every multiplication map: one tuple per basis
    vector of the source, of (row, value) pairs with distinct rows in range
    and nonzero values, reduced mod p."""
    assert type(cols) is list and len(cols) == ncols
    for col in cols:
        assert type(col) is tuple
        rows = [r for r, _ in col]
        assert len(set(rows)) == len(rows) and all(0 <= r < nrows for r in rows), col
        assert all(v for _, v in col), col
        assert_canonical_values(F, [v for _, v in col])


def assert_generator_maps(alg):
    """Every generator's X_g against ``ref_operator_matrix`` on each A_i."""
    F, D = alg.field, alg.socle_degree
    gens = algebra_generators(alg)
    for g in gens:
        assert len(g.vector) == alg.dim(g.degree)
        assert_canonical_values(F, g.vector)
        assert len(g.maps) == D - g.degree + 1
        for i, cols in enumerate(g.maps):
            assert_columns(F, cols, alg.dim(i), alg.dim(i + g.degree))
            got = densify(F, cols, alg.dim(i + g.degree))
            assert got == ref_operator_matrix(alg, g.degree, g.vector, i), (g.label, i)
    if isinstance(alg, GradedAlgebra):
        # the variables of weight at most D, zero images included
        ring = alg.ring
        want = [(ring.varnames[j], w, alg.vector(ring.variable(j), w))
                for j, w in enumerate(ring.weights) if w <= D]
        assert [(g.label, g.degree, g.vector) for g in gens] == want
    else:
        # basis vectors, and in degree one every basis vector
        assert all([bool(x) for x in g.vector].count(True) == 1 and 1 in g.vector for g in gens)
        n = alg.dim(1)
        units = [(f"e{j}", tuple(F.one() if k == j else F.zero() for k in range(n))) for j in range(n)]
        assert [(g.label, g.vector) for g in gens if g.degree == 1] == units


def reference_socle(alg):
    """The socle as the common kernel of multiplication by every basis vector
    of every positive degree."""
    F = alg.field
    out = []
    for d in range(alg.socle_degree + 1):
        nd = alg.dim(d)
        if nd == 0:
            continue
        stacked = []
        for w in range(1, alg.socle_degree - d + 1):
            for j in range(alg.dim(w)):
                unit = tuple(F.one() if k == j else F.zero() for k in range(alg.dim(w)))
                stacked.extend(ref_operator_matrix(alg, w, unit, d).entries)
        out.extend((d, v) for v in kernel_basis(Matrix(F, nd, tuple(stacked))))
    return out


def assert_socle_matches(alg):
    got = socle_vectors(alg)
    assert got == reference_socle(alg)
    assert_canonical_values(alg.field, (x for _, v in got for x in v))


def old_symbolic_steps(alg, coords):
    """Per degree, the generic form's matrix assembled from per-coordinate
    ``ref_operator_matrix`` calls."""
    F = alg.field
    k = len(coords)
    out = []
    for i in range(alg.socle_degree):
        per_coord = [ref_operator_matrix(alg, 1, vec, i) for _, vec in coords]
        mat = []
        for r in range(alg.dim(i + 1)):
            row = []
            for c in range(alg.dim(i)):
                mapping = {}
                for j in range(k):
                    coeff = per_coord[j].entries[r][c]
                    if not F.is_zero(coeff):
                        mapping[tuple(1 if t == j else 0 for t in range(k))] = coeff
                row.append(Poly.make(k, F, mapping))
            mat.append(row)
        out.append(mat)
    return out


def chain_power(steps, d, i):
    """L^d on A_i as the chain of polynomial matrix products of the steps."""
    m = steps[i]
    for e in range(i + 1, i + d):
        m = poly_mat_mul(steps[e], m)
    return m


def assert_symbolic_powers_match(alg):
    """Every generic power L^d : A_i -> A_{i+d} against the chain of the
    per-coordinate steps; a chain through an empty degree collapses to [],
    where the power must be the zero matrix of full shape."""
    steps = old_symbolic_steps(alg, degree_one_coordinates(alg))
    D = alg.socle_degree
    power = _generic_powers(alg, D)
    for d in range(1, D + 1):
        for i in range(D - d + 1):
            got = power(d, i)
            assert [len(row) for row in got] == [alg.dim(i)] * alg.dim(i + d), (d, i)
            if all(alg.dim(e) for e in range(i + 1, i + d)):
                assert got == chain_power(steps, d, i), (d, i)
            else:
                assert all(x.is_zero() for row in got for x in row), (d, i)


def assert_integer_maps(alg):
    """Each map of ``integer_maps`` on A_e, divided by its scale, is the
    dense reference operator of its degree-one generator; over QQ every
    value is an ``int``, and over GF(p) every scale is 1."""
    F, D = alg.field, alg.socle_degree
    maps, scales = integer_maps(alg)
    gens = [g for g in algebra_generators(alg) if g.degree == 1]
    assert len(maps) == len(scales) == D and all(len(per_e) == len(gens) for per_e in maps)
    for e, (per_e, s) in enumerate(zip(maps, scales)):
        assert type(s) is int and s >= 1 and (s == 1 or F.characteristic == 0)
        for g, cols in zip(gens, per_e):
            assert all(type(v) is int for col in cols for _, v in col)
            true = [tuple((r, F.div(F.coerce(v), F.coerce(s))) for r, v in col) for col in cols]
            assert densify(F, true, alg.dim(e + 1)) == ref_operator_matrix(alg, 1, g.vector, e), (g.label, e)


def assert_maps_match(alg, Lvec):
    F, D = alg.field, alg.socle_degree
    assert_integer_maps(alg)
    table = RankTable(alg, Lvec)
    got = [power_map_matrix(table, 1, i) for i in range(D)]
    want = [ref_operator_matrix(alg, 1, Lvec, i) for i in range(D)]
    assert got == want
    assert_canonical(F, got)
    coords = degree_one_coordinates(alg)
    assert _symbolic_step_matrices(alg) == old_symbolic_steps(alg, coords)


def element_vector(draw, alg, d):
    F, n = alg.field, alg.dim(d)
    nums = draw(st.lists(coefficients, min_size=n, max_size=n))
    dens = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return tuple(F.coerce(Fraction(a, b)) for a, b in zip(nums, dens))


def linear_vector(draw, alg):
    return element_vector(draw, alg, 1)


@st.composite
def ideal_cases(draw, weighted=False):
    """Powers of the variables plus random forms, some of degree one, and
    perhaps a variable itself (a generator whose image is zero).  Sometimes
    one dense form takes the place of both: it is supported on every
    monomial of one of the two lowest (weighted) degrees from 2 to 6 that
    have at least three monomials, and every power of a variable lies above that degree, so that
    monomials have normal forms of several terms.  Weighted cases draw each
    variable's weight from 1, 2 and 3."""
    F = draw(fields)
    n = draw(st.integers(min_value=1, max_value=3))
    weights = tuple(draw(st.sampled_from([1, 2, 3])) if weighted else 1 for _ in range(n))
    r = Ring(tuple("xyz"[:n]), F, weights)
    dense_degrees = [d for d in range(2, 7) if len(monomials(n, d, weights)) > 2][:2]
    dense = draw(st.sampled_from([0] + dense_degrees))
    gens = []
    for v, w in zip(r.varnames, weights):
        low = max(2, dense // w + 1)
        gens.append(r.parse(f"{v}^{draw(st.integers(min_value=low, max_value=max(4, low)))}"))
    if dense:
        supports = [monomials(n, dense, weights)]
    else:
        supports = []
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            deg = draw(st.sampled_from([d for d in (1, 2, 3) if monomials(n, d, weights)]))
            supports.append(draw(st.lists(st.sampled_from(monomials(n, deg, weights)), min_size=1, max_size=3, unique=True)))
        if draw(st.booleans()):
            gens.append(r.variable(draw(st.integers(min_value=0, max_value=n - 1))))
    for support in supports:
        gens.append(Poly.make(n, F, {m: F.coerce(draw(coefficients.filter(bool))) for m in support}))
    alg = from_ideal(Ideal(r, tuple(gens)))
    return alg, linear_vector(draw, alg)


@st.composite
def dual_generator_cases(draw):
    F = draw(fields)
    n = draw(st.integers(min_value=1, max_value=3))
    deg = draw(st.integers(min_value=1, max_value=4))
    support = draw(st.lists(st.sampled_from(monomials(n, deg)), min_size=1, max_size=4, unique=True))
    terms = {m: F.coerce(draw(coefficients.filter(bool))) for m in support}
    alg = from_dual_generator(DualPoly.make(n, F, terms), Ring(tuple("xyz"[:n]), F))
    return alg, linear_vector(draw, alg)


@given(ideal_cases())
@settings(max_examples=60, deadline=None)
def test_maps_from_ideal(case):
    assert_maps_match(*case)


@given(dual_generator_cases())
@settings(max_examples=60, deadline=None)
def test_maps_from_dual_generator(case):
    assert_maps_match(*case)


@given(ideal_cases(weighted=True))
@settings(max_examples=60, deadline=None)
def test_generator_maps_from_weighted_ideal(case):
    alg, Lvec = case
    assert_generator_maps(alg)
    assert_maps_match(alg, Lvec)


@given(dual_generator_cases())
@settings(max_examples=30, deadline=None)
def test_generator_maps_from_dual_generator(case):
    assert_generator_maps(case[0])


@given(ideal_cases(weighted=True))
@settings(max_examples=60, deadline=None)
def test_socle_from_weighted_ideal(case):
    assert_socle_matches(case[0])


@given(dual_generator_cases())
@settings(max_examples=40, deadline=None)
def test_socle_from_dual_generator(case):
    assert_socle_matches(case[0])


QUOTIENT_CASES = {
    "ideal": ideal_cases(),
    "weighted_ideal": ideal_cases(weighted=True),
    "dual_generator": dual_generator_cases(),
}


def assert_operator_columns(alg, w, v):
    """Column k of a quotient's operator for v in A_w is the normal form of
    the polynomial product v * m_k, which reads no product table."""
    F = alg.field
    f = alg.poly(w, v)
    for i in range(alg.socle_degree - w + 1):
        X = operator_matrix(alg, w, v, i)
        assert_columns(F, X, alg.dim(i), alg.dim(i + w))
        for k, e in enumerate(Matrix.identity(F, alg.dim(i)).entries):
            assert dense(F, alg.dim(i + w), dict(X[k])) == alg.vector(f * alg.poly(i, e), i + w), (w, v, i, k)


@pytest.mark.parametrize("kind", sorted(QUOTIENT_CASES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_quotient_operator_against_polynomial_products(kind, data):
    alg = data.draw(QUOTIENT_CASES[kind])[0]
    w = data.draw(st.integers(0, alg.socle_degree))
    assert_operator_columns(alg, w, element_vector(data.draw, alg, w))


def _dense_quotient(kind, F):
    """Fixed quotients whose product tables have normal forms of several
    terms: a dense quadric, a dense weighted form, a dense dual generator."""
    if kind == "dual_generator":
        r = Ring(tuple("xyz"), F)
        return from_dual_generator(r.parse_dual("X^3 + X^2*Y + X*Y*Z + 2*Y^3 + Z^3"), r)
    weights, gens = {
        "ideal": ((1, 1, 1), ["x^2 + 2*x*y - y^2 + y*z + 3*z^2", "x^3", "y^3", "z^3"]),
        "weighted_ideal": ((1, 1, 2), ["x^2 + x*y + 2*y^2 - z", "x^4", "y^4", "z^3"]),
    }[kind]
    r = Ring(tuple("xyz"), F, weights)
    return from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)))


@pytest.mark.parametrize("F", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("kind", sorted(QUOTIENT_CASES))
def test_quotient_operator_on_fixed_dense_quotients(kind, F):
    """The column check above on every basis vector of every degree of fixed
    quotients; the bundled quotients all have one-term normal forms."""
    alg = _dense_quotient(kind, F)
    for w in range(alg.socle_degree + 1):
        for v in Matrix.identity(F, alg.dim(w)).entries:
            assert_operator_columns(alg, w, v)
    assert any(len(entry) >= 2 for entry in alg._mult_cache.values())


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_maps_with_a_vanishing_middle_degree(F):
    # weights (1, 3): A_2 = 0 between nonzero A_1 and A_3
    r = Ring(("x", "y"), F, (1, 3))
    alg = from_ideal(Ideal(r, (r.parse("x^2"), r.parse("y^2"))))
    assert alg.hilbert_function() == (1, 1, 0, 1, 1)
    assert_maps_match(alg, (F.coerce(3),))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_maps_without_degree_one(F):
    r = Ring(("x", "y"), F, (2, 3))
    alg = from_ideal(Ideal(r, (r.parse("x^2"), r.parse("y^2"))))
    assert alg.dim(1) == 0
    assert_maps_match(alg, ())
    table = RankTable(alg, ())
    assert all(power_map_matrix(table, 1, i).is_zero() for i in range(alg.socle_degree))


def _scaled_away_moduli(monkeypatch, names: str, extra: list) -> list:
    # x^2 = -y^2 / P in the quotient, so X_x has a denominator P: the maps on
    # A_1 are scaled by P to integers, and the chain of x + y is still full
    # modulo P, so no rank is taken over ZZ
    r = Ring(tuple(names.split(",")), QQ)
    alg = from_ideal(Ideal(r, tuple(r.parse(g) for g in [f"{MODULAR_PRIME}*x^2 + y^2", "x*y", *extra])))
    assert integer_maps(alg)[1] == [1, MODULAR_PRIME]
    Lvec = alg.vector(r.parse("x + y"), 1)
    assert_maps_match(alg, Lvec)
    table = RankTable(alg, Lvec)
    moduli, echelon_rank = [], checks.echelon_rank
    monkeypatch.setattr(checks, "echelon_rank", lambda v, p, stop: moduli.append(p) or echelon_rank(v, p, stop))
    assert [table.rank(1, 0), table.rank(1, 1), table.rank(2, 0)] == [1, 1, 1]
    return moduli


def test_map_denominator_divisible_by_the_prime_is_scaled_away(monkeypatch):
    # Gorenstein, h = (1, 2, 1): L on A_1 is the adjoint of L on A_0, so the
    # middle map L on A_0 and the narrow map L^2 on A_0 are all that is ranked
    assert _scaled_away_moduli(monkeypatch, "x,y", ["y^3"]) == [MODULAR_PRIME] * 2


def test_map_denominator_divisible_by_the_prime_is_scaled_away_off_gorenstein(monkeypatch):
    # h = (1, 3, 1) with z in the socle: every map is ranked
    assert _scaled_away_moduli(monkeypatch, "x,y,z", ["x*z", "y*z", "z^2"]) == [MODULAR_PRIME] * 3


def _example_71(F):
    def build(names, gens):
        r = Ring(tuple(names.split(",")), F)
        return from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)))

    a, b, t = build("x,y", ["x^2", "y^4"]), build("u,v", ["u^3", "v^3"]), build("z", ["z^2"])
    return algebra_map(a, t, ["z", "0"]), algebra_map(b, t, ["z", "0"])


def _notgor_blowup(F):
    def read(name):
        return (resources.files("lefschetz") / "data" / name).read_text().replace("QQ", str(F))

    a = parse_algebra_text(read("notgor_a.alg")).build()
    t = parse_algebra_text(read("notgor_t.alg")).build()
    pi = algebra_map(a, t, parse_map_text(read("notgor_map.map"), a.ring, t.ring))
    return blowup(pi, [a.ring.parse("x"), a.ring.parse("0")], 1)


def _perazzo_blowup(F):
    r = Ring(tuple("xyzuv"), F)
    a = from_dual_generator(r.parse_dual("X*U^2 + Y*U*V + Z*V^2"), r)
    t = from_ideal(Ideal(r, tuple(r.parse(g) for g in ["x^2", "y", "z", "u", "v"])))
    pi = algebra_map(a, t, ["x", "0", "0", "0", "0"])
    omega_a = orientation_from_socle_element(a, 3, a.vector(r.parse("x*u^2"), 3))
    omega_t = default_orientation(t)
    tau = thom_class(pi, omega_a, omega_t)
    lam = F.inv(tau.poly(a).leading_coefficient())
    return blowup(pi, [r.parse("x").scale(-1)], lam, omega_a=omega_a, omega_t=omega_t)


MODELS = {
    "fiber_product": lambda F: fiber_product(*_example_71(F)),
    "connected_sum": lambda F: connected_sum(*_example_71(F)),
    "blowup": _notgor_blowup,
    "perazzo_blowup": _perazzo_blowup,
}


@pytest.mark.parametrize("F", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("model", sorted(MODELS))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_maps_of_pair_and_blowup_models(model, F, data):
    alg = MODELS[model](F)
    assert_maps_match(alg, linear_vector(data.draw, alg))


@pytest.mark.parametrize("F", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_generator_maps_of_pair_and_blowup_models(model, F):
    assert_generator_maps(MODELS[model](F))


@pytest.mark.parametrize("F", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_socle_of_pair_and_blowup_models(model, F):
    assert_socle_matches(MODELS[model](F))



# -- algebra axioms -------------------------------------------------------------


def _quotient(F, names, gens):
    r = Ring(tuple(names.split(",")), F)
    return from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)), max_degree=6)


def _apolar(F):
    r = Ring(tuple("xyz"), F)
    return from_dual_generator(r.parse_dual("X^2*Y + Y*Z^2"), r)


# every model: quotients by an ideal, by the annihilator of a dual generator
# and of a tensor product, beside the pair, quotient-of-pair and blowup models
ALL_MODELS = {
    **MODELS,
    "from_ideal": lambda F: _quotient(F, "x,y", ["x^2", "x*y", "y^3"]),
    "from_dual_generator": _apolar,
    "tensor_product": lambda F: tensor_product(_quotient(F, "x,y", ["x^2", "y^3"]), _apolar(F)),
}


def assert_model_protocol(alg):
    """The dimensions, Hilbert function and unit that every model shares."""
    F, D = alg.field, alg.socle_degree
    assert alg.hilbert_function() == tuple(alg.dim(d) for d in range(D + 1))
    assert alg.dim(D) > 0
    assert alg.dim(-1) == alg.dim(D + 1) == 0
    assert alg.total_dim() == sum(alg.hilbert_function())
    assert alg.one() == (F.one(),)
    assert_canonical_values(F, alg.one())


def assert_algebra_axioms(alg, draw):
    """Products of sampled homogeneous elements are commutative, associative
    and unital."""
    F, mul = alg.field, alg.multiply
    d1, d2, d3 = (draw(st.integers(0, alg.socle_degree)) for _ in range(3))
    x, y, z = (tuple(F.coerce(c) for c in draw(st.lists(coefficients, min_size=alg.dim(d), max_size=alg.dim(d))))
               for d in (d1, d2, d3))
    assert mul(d1, x, d2, y) == mul(d2, y, d1, x)
    assert mul(d1 + d2, mul(d1, x, d2, y), d3, z) == mul(d1, x, d2 + d3, mul(d2, y, d3, z))
    assert mul(0, alg.one(), d1, x) == x


def assert_blowup_relations(bug, middle):
    """f_A(xi) = xi^n + a_1 xi^(n-1) + ... + lambda tau = 0, and xi * k = 0
    for every k in the kernel of pi."""
    F, A, n = bug.field, bug.A, bug.n
    lam_tau = tuple(F.mul(bug.lam, c) for c in bug.tau.coords)
    # xi is the coordinate of T_0 in degree one, or -lambda tau when n = 1
    xi = (F.zero(),) * A.dim(1) + (F.one(),) if n > 1 else bug.embed_a(1, [F.neg(c) for c in lam_tau])
    powers = [bug.one(), xi]
    while len(powers) <= n:
        powers.append(bug.multiply(1, xi, len(powers) - 1, powers[-1]))
    terms = [powers[n], bug.embed_a(n, lam_tau)]
    terms += [bug.multiply(i, bug.embed_a(i, A.vector(a, i)), n - i, powers[n - i]) for i, a in enumerate(middle, 1)]
    assert all(F.is_zero(sum(col, F.zero())) for col in zip(*terms))
    for k in range(A.socle_degree + 1):
        for v in kernel_basis(ref_map_matrix(bug.pi, k)):
            assert not any(bug.multiply(1, xi, k, bug.embed_a(k, v)))


PAIR_SHAPES = ((2, 3, 3, 3), (3, 2, 3, 4), (3, 3, 3, 4), (2, 2, 4, 3), (3, 2, 4, 4), (2, 3, 4, 4))


@st.composite
def connected_sums_over_the_field(draw):
    """A # B over QQ of two sampled dual generators, in the shapes (variables
    of A and of B, degree, terms) of the benchmark's connected sums."""
    na, nb, deg, t = draw(st.sampled_from(PAIR_SHAPES))
    parts = []
    for names in ("xyz"[:na], "uvw"[:nb]):
        support = draw(st.lists(st.sampled_from(monomials(len(names), deg)), min_size=t, max_size=t, unique=True))
        terms = {m: QQ.coerce(draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))) for m in support}
        parts.append(from_dual_generator(DualPoly.make(len(names), QQ, terms), Ring(tuple(names), QQ)))
    return connected_sum_over_field(*parts)


@pytest.mark.parametrize("F", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("model", sorted(ALL_MODELS))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_models_satisfy_the_algebra_axioms(model, F, data):
    alg = ALL_MODELS[model](F)
    assert_model_protocol(alg)
    assert_algebra_axioms(alg, data.draw)


@given(alg=connected_sums_over_the_field(), data=st.data())
@settings(max_examples=15, deadline=None)
def test_sampled_connected_sums_satisfy_the_algebra_axioms(alg, data):
    assert_model_protocol(alg)
    assert_algebra_axioms(alg, data.draw)


@pytest.mark.parametrize("case", ["notgor/QQ", "notgor/Fp(5)", "perazzo/QQ", "perazzo/Fp(5)", "n1",
                                  "exercise_87/0;0", "exercise_87/x+u;y*v-u^2"])
def test_blowup_relations_hold(case):
    name, _, arg = case.partition("/")
    F = GF(5) if arg == "Fp(5)" else QQ
    r = Ring(tuple("xyzuv"), F)
    if name == "notgor":
        bug, middle = _notgor_blowup(F), ["x", "0"]
    elif name == "perazzo":
        bug, middle = _perazzo_blowup(F), ["-x"]
    elif name == "n1":
        bug, middle = _n1_blowup(), []
    else:
        bug, middle = _exercise_87_blowup(arg), arg.split(";")
    assert_blowup_relations(bug, [bug.A.ring.parse(a) for a in middle])

# -- pinned product tables ----------------------------------------------------


def _n1_blowup():
    F = QQ
    r = Ring(("x", "y"), F)
    a = from_ideal(Ideal(r, (r.parse("x^2"), r.parse("y^2"))))
    t = from_ideal(Ideal(r, (r.parse("x^2"), r.parse("y"))))
    return blowup(algebra_map(a, t, ["x", "0"]), [], 1)


def _exercise_87_blowup(middle):
    r = Ring(tuple("xyzuv"), QQ)
    G = r.parse_dual("X*U^6 + Y*U^4*V^2 + Z*U^5*V")
    a = from_dual_generator(G, r)
    t = from_dual_generator(contract(r.parse("u^3"), G), r)
    pi = algebra_map(a, t, ["x", "y", "z", "u", "v"])
    tau = thom_class(pi, default_orientation(a), default_orientation(t))
    lam = QQ.div(QQ.coerce(-1), tau.poly(a).leading_coefficient())
    return blowup(pi, [r.parse(c) for c in middle.split(";")], lam)


def product_table_digest(alg):
    """sha256 of repr(multiply(d1, e_a, d2, e_b)) over every pair of basis
    vectors of every pair of degrees (the repr keeps the scalar types)."""
    F, D = alg.field, alg.socle_degree
    units = [[tuple(F.one() if k == j else F.zero() for k in range(alg.dim(d))) for j in range(alg.dim(d))]
             for d in range(D + 1)]
    h = hashlib.sha256()
    for d1 in range(D + 1):
        for d2 in range(D + 1):
            for ea in units[d1]:
                for eb in units[d2]:
                    h.update(repr(alg.multiply(d1, ea, d2, eb)).encode())
    return h.hexdigest()


def _data_algebra(name):
    return parse_algebra_text((resources.files("lefschetz") / "data" / name).read_text()).build()


# case -> (builder, digest), the digests of the derived models recorded from
# the per-vector products they had before they multiplied through operator
# matrices, and those of the bundled quotients (the ``.alg`` cases) from the
# per-pair products they had before they read one product table
PRODUCT_TABLES = {
    "blowup/QQ": (lambda: _notgor_blowup(QQ), "acf534f669edffe928a65112c9193d02c397b461085055f0027b627f1515824c"),
    "blowup/Fp(5)": (lambda: _notgor_blowup(GF(5)), "88a013ffd17fe9b48e6566513c67f6f207daadda1c4b1ccefb96759d41065fad"),
    "connected_sum/QQ": (lambda: MODELS["connected_sum"](QQ), "d689e6d9e3112c888d6db9a4f72ed1e07efb1658536552697d17e8c89ca6ddc6"),
    "connected_sum/Fp(5)": (lambda: MODELS["connected_sum"](GF(5)), "e421ead4ceb610682a22d97bcb0d1325c8d2b1b0d11851ef0ded45712a551869"),
    "fiber_product/QQ": (lambda: MODELS["fiber_product"](QQ), "a8b18898856e6b8d930a959d4317451d344c24a2d54fc59e5497b54574cb8c09"),
    "fiber_product/Fp(5)": (lambda: MODELS["fiber_product"](GF(5)), "3fd89fffe653836f77bd05d411b5469ef2da6bee9d32e03ad855b30618874ebc"),
    "perazzo_blowup/QQ": (lambda: _perazzo_blowup(QQ), "726226865c4937437757432e9bc060765f4eee94ce7cbd10810a11effefb6790"),
    "perazzo_blowup/Fp(5)": (lambda: _perazzo_blowup(GF(5)), "c029f4b6c620fb2750ac6397a1590d288958945695609e473d92909cf9c98142"),
    "blowup_n1": (_n1_blowup, "d7ef57a4aa25b5ccd24cc3b88c63d6a1e5a7463dbdfb0e793fd6b728a1372d78"),
    "exercise_87/0;0": (lambda: _exercise_87_blowup("0;0"), "21af9241a764e18f4347707aec2f04942c50bcfffac937c32f019a288c5a9970"),
    "exercise_87/x+u;y*v-u^2": (lambda: _exercise_87_blowup("x+u;y*v-u^2"), "3770c44964365e2c3ff92c1f4119e4bdc4f8b1d9ade0a5ae77334525d24530ac"),
    "weighted_y3.alg": (lambda: _data_algebra("weighted_y3.alg"), "06c573cbc916a5019855b8e8546bfe92c2d443f0b7bde215c8aaf27ec0901bef"),
    "x2y2z2_f2.alg": (lambda: _data_algebra("x2y2z2_f2.alg"), "24c20e188e117f4b4a5842959b52e7d8990efe4f96e23644fac0a5dbb2daf219"),
    "ikeda.alg": (lambda: _data_algebra("ikeda.alg"), "75d749f378650af4f0dbd2d797d6b8d82b965737d8943d445c1818a7665e8715"),
    "stanley_333.alg": (lambda: _data_algebra("stanley_333.alg"), "74d59ffaad0145b2ab02f97b9a9b4970f099efad8fe4f7a8cf3912828725a76a"),
}


@pytest.mark.parametrize("case", sorted(PRODUCT_TABLES))
def test_product_tables_are_pinned(case):
    build, digest = PRODUCT_TABLES[case]
    assert product_table_digest(build()) == digest


# -- generic powers -------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(QUOTIENT_CASES))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_symbolic_powers_of_quotients(kind, data):
    assert_symbolic_powers_match(data.draw(QUOTIENT_CASES[kind])[0])


BUNDLED_ALGEBRAS = sorted(e.name for e in (resources.files("lefschetz") / "data").iterdir() if e.name.endswith(".alg"))


@pytest.mark.parametrize("name", BUNDLED_ALGEBRAS)
def test_symbolic_powers_of_bundled_files(name):
    assert_symbolic_powers_match(_data_algebra(name))


@pytest.mark.parametrize("F", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_symbolic_powers_of_pair_and_blowup_models(model, F):
    assert_symbolic_powers_match(MODELS[model](F))


@st.composite
def rational_dual_generators(draw):
    """Algebras of dual generators whose coefficients have non-unit
    denominators, so the degree-one maps do too."""
    n = draw(st.integers(min_value=2, max_value=3))
    deg = draw(st.integers(min_value=2, max_value=5))
    support = draw(st.lists(st.sampled_from(monomials(n, deg)), min_size=1, max_size=4, unique=True))
    fractions = st.sampled_from([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 4), Fraction(3), Fraction(-1)])
    return from_dual_generator(DualPoly.make(n, QQ, {m: draw(fractions) for m in support}), Ring(tuple("xyz"[:n]), QQ))


@given(rational_dual_generators())
@settings(max_examples=40, deadline=None)
def test_generic_powers_with_denominators_push_integers(alg):
    # the generic chains push the integer maps and divide each entry by the
    # chain's scale only at the end: every pushed value is an int, every
    # coefficient handed on a Fraction, and the powers those of the chain of
    # polynomial products
    made = []

    class Recorded(checks.PowerChains):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "PowerChains", Recorded)
        assert_symbolic_powers_match(alg)
    assert made
    for chains in made:
        values = [x for step in chains._steps.values() for col in step for x in col.values()]
        values += [x for chain in chains._chains.values() for cols in chain for col in cols for x in col.values()]
        assert all(type(x) is int for x in values), {type(x) for x in values}
    D = alg.socle_degree
    power = _generic_powers(alg, D)
    assert_canonical_values(QQ, (c for d in range(1, D + 1) for i in range(D - d + 1)
                                 for row in power(d, i) for x in row for _, c in x.terms))
