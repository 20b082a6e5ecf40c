import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import algebra
from lefschetz.exactmath import GF, QQ, Matrix, RowSpace, kernel_basis, rank
from lefschetz.polynomials import DualPoly, Poly, contract, monomials
from lefschetz.algebra import (
    GradedAlgebra,
    Ideal,
    NotArtinianError,
    NotGorensteinError,
    Orientation,
    Ring,
    default_orientation,
    from_dual_generator,
    from_ideal,
    hilbert_series_text,
    ideal_degree_piece,
    integral,
    inverse_system,
    is_gorenstein,
    is_level,
    orientation_from_socle_element,
    pairing_matrix,
    same_degreewise_ideal,
    socle_vectors,
)
from lefschetz.constructions import (
    AlgebraMap,
    connected_sum_over_field,
    fiber_product,
    presented_algebra,
    tensor_product,
)
from test_rank_table_reference import weighted_complete_intersections


def ring(names="x,y,z", field=QQ, weights=None):
    return Ring(tuple(names.split(",")), field, tuple(weights) if weights else ())


def build(names, gens, field=QQ, weights=None, cap=None):
    r = ring(names, field, weights)
    return from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)), max_degree=cap)


def test_hilbert_222():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    assert a.hilbert_function() == (1, 3, 3, 1)
    assert a.socle_degree == 3
    assert hilbert_series_text(a) == "1 + 3*t + 3*t^2 + t^3"


def test_field_quotient():
    a = build("x,y,z", ["x", "y", "z"])
    assert a.hilbert_function() == (1,)


def test_not_artinian():
    r = ring("x,y")
    with pytest.raises(NotArtinianError):
        from_ideal(Ideal(r, (r.parse("x"),)), max_degree=10)


def test_truncated_ring_formula():
    for n in range(1, 5):
        for d in range(1, 6):
            names = ",".join(f"x{i}" for i in range(n))
            r = ring(names)
            gens = tuple(
                Poly.make(n, QQ, {m: 1}) for m in monomials(n, d)
            )
            a = from_ideal(Ideal(r, gens))
            expect = tuple(math.comb(n + i - 1, i) for i in range(d))
            assert a.hilbert_function() == expect


def test_ci_24():
    a = build("x,y", ["x^2", "y^4"])
    assert a.hilbert_function() == (1, 2, 2, 2, 1)


def test_weighted_grading_nonunimodal():
    a = build("x,y", ["x^2", "y^2"], weights=[1, 3])
    assert a.hilbert_function() == (1, 1, 0, 1, 1)


def test_ideal_degree_piece_222():
    r = ring("x,y,z")
    ideal = Ideal(r, tuple(r.parse(g) for g in ["x^2", "y^2", "z^2"]))
    assert ideal_degree_piece(ideal, 2).rows == 3
    assert ideal_degree_piece(ideal, 1).rows == 0


def test_ideal_degree_piece_enumeration_oracle():
    # oracle: row-reduce the explicit products m*g of total degree 3
    r = ring("x,y")
    gens = ["x^2", "x*y^2", "y^3"]
    ideal = Ideal(r, tuple(r.parse(g) for g in gens))
    monos3 = monomials(2, 3)
    idx = {m: i for i, m in enumerate(monos3)}
    rs = RowSpace(QQ, len(monos3))
    for g in gens:
        p = r.parse(g)
        for m in monomials(2, 3 - p.degree()):
            prod = p * Poly.make(2, QQ, {m: 1})
            rs.add({idx[mm]: c for mm, c in prod.terms})
    assert ideal_degree_piece(ideal, 3).rows == rs.rank


def test_normal_forms_222():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    r = a.ring
    assert a.nf_poly(r.parse("x^2")).is_zero()
    assert a.nf_poly(r.parse("x^2*y")).is_zero()
    xy = r.parse("x*y")
    assert a.nf_poly(xy) == xy
    # idempotence
    f = r.parse("x^2*y + 3*x*y - z^2")
    assert a.nf_poly(a.nf_poly(f)) == a.nf_poly(f)


def test_multiplication_map_222():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    m = a.multiplication_map(a.ring.parse("x + y + z"), 1)
    assert [list(row) for row in m.entries] == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]


def test_multiplication_map_identity():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    m = a.multiplication_map(a.ring.one(), 2)
    assert m == Matrix.identity(QQ, 3)


def test_multiplication_map_square():
    a = build("x,y", ["x^2", "y^2"])
    m = a.multiplication_map(a.ring.parse("(x + y)") ** 2 if False else a.ring.parse("x + y") ** 2, 0)
    assert [list(r) for r in m.entries] == [[2]]


def test_multiplication_map_out_of_range():
    a = build("x,y", ["x^2", "y^2"])
    with pytest.raises(ValueError):
        a.multiplication_map(a.ring.parse("x"), 2)


def test_socle_222():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    soc = socle_vectors(a)
    assert len(soc) == 1
    d, v = soc[0]
    assert d == 3 and a.poly(3, v) == a.ring.parse("x*y*z")
    assert is_gorenstein(a)
    assert is_level(a)


def test_gorenstein_exercise_ring():
    a = build("x,y,z", ["x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"])
    assert a.hilbert_function() == (1, 3, 1)
    assert is_gorenstein(a)


def test_non_gorenstein_non_level():
    a = build("x,y", ["x^2", "x*y", "y^5"])
    assert a.hilbert_function() == (1, 2, 1, 1, 1)
    soc = socle_vectors(a)
    assert len(soc) == 2
    assert {d for d, _ in soc} == {1, 4}
    assert not is_gorenstein(a)
    assert not is_level(a)


def test_gorenstein_proofs_come_before_the_socle(monkeypatch):
    calls, socle = [], algebra.socle_vectors
    monkeypatch.setattr(algebra, "socle_vectors", lambda alg: calls.append(alg) or socle(alg))
    ci = build("x,y,z", ["x^2 + y*z", "y^3", "z^2 - x*y"])
    r = Ring(("x", "y", "z"), QQ)
    dual = from_dual_generator(r.parse_dual("X^2*Y + Y*Z^2"), r)
    assert is_gorenstein(ci) and is_gorenstein(dual)
    assert calls == []
    # three generators in two variables: only the socle decides
    a = build("x,y", ["x^2", "x*y", "y^3"])
    assert a.hilbert_function() == (1, 2, 1)
    assert not is_gorenstein(a) and calls == [a]
    assert not is_gorenstein(a) and calls == [a]  # memoised
    # Gorenstein, but five generators in three variables: the socle decides
    g = build("x,y,z", ["x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"])
    assert g.hilbert_function() == (1, 3, 1)
    assert is_gorenstein(g) and calls == [a, g]

    def no_socle(alg):
        raise AssertionError("the constructor's proof should answer")

    # the dual generator handed to the constructor is recorded as the proof
    monkeypatch.setattr(algebra, "socle_vectors", no_socle)
    spaces = [dual.ideal_space(d) for d in range(dual.socle_degree + 1)]
    assert is_gorenstein(GradedAlgebra(r, spaces, dual_generator_poly=dual.dual_generator()))


@given(weighted_complete_intersections())
@settings(max_examples=40, deadline=None)
def test_complete_intersection_proof_agrees_with_the_socle(alg):
    assert is_gorenstein(alg) == (len(socle_vectors(alg)) == 1)


def test_orientation_and_integral_222():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    omega = default_orientation(a)
    r = a.ring
    prod = a.multiply(1, a.vector(r.parse("x"), 1), 2, a.vector(r.parse("y*z"), 2))
    assert integral(a, omega, 3, prod) == 1
    # integral of 1 * socle generator
    soc_d, soc_v = socle_vectors(a)[0]
    assert integral(a, omega, 3, a.multiply(0, a.one(), 3, soc_v)) == 1


def test_pairing_nonsingular_iff_gorenstein():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    omega = default_orientation(a)
    for i in range(4):
        m = pairing_matrix(a, omega, i)
        assert rank(m) == a.dim(i) == a.dim(3 - i)
    b = build("x,y", ["x^2", "x*y", "y^5"])
    omegab = default_orientation(b)
    assert any(
        rank(pairing_matrix(b, omegab, i)) < max(b.dim(i), b.dim(b.socle_degree - i))
        for i in range(b.socle_degree + 1)
    )


def test_from_dual_generator_sum_of_squares():
    r = ring("x,y,z")
    a = from_dual_generator(r.parse_dual("X^2 + Y^2 + Z^2"), r)
    b = build("x,y,z", ["x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"])
    assert a.hilbert_function() == (1, 3, 1)
    assert same_degreewise_ideal(a, b)


def test_from_dual_generator_monomial_ci():
    r = ring("x,y,z")
    a = from_dual_generator(r.parse_dual("X^2*Y*Z^3"), r)
    b = build("x,y,z", ["x^3", "y^2", "z^4"])
    assert same_degreewise_ideal(a, b)


def test_from_dual_generator_single_variable():
    r = Ring(("x",), QQ)
    a = from_dual_generator(r.parse_dual("X"), r)
    b = from_ideal(Ideal(r, (r.parse("x^2"),)))
    assert same_degreewise_ideal(a, b)


def test_ikeda_hilbert_function():
    r = ring("x,y,z,w")
    a = from_dual_generator(r.parse_dual("X*Y*W^3 + X^3*Z*W + Y^3*Z^2"), r)
    assert a.hilbert_function() == (1, 4, 10, 10, 4, 1)
    omega = default_orientation(a)
    for i in range(6):
        assert rank(pairing_matrix(a, omega, i)) == a.dim(i)


def test_dual_generator_of_222():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    F = a.dual_generator()
    assert F == DualPoly.make(3, QQ, {(1, 1, 1): 1})


def test_dual_generator_single_var():
    r = Ring(("x",), QQ)
    a = from_ideal(Ideal(r, (r.parse("x^4"),)))
    assert a.dual_generator() == DualPoly.make(1, QQ, {(3,): 1})


def test_dual_generator_requires_gorenstein():
    a = build("x,y", ["x^2", "x*y", "y^5"])
    with pytest.raises(NotGorensteinError):
        a.dual_generator()


def test_macaulay_round_trip_exercise_ring():
    a = build("x,y,z", ["x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"])
    F = a.dual_generator()
    b = from_dual_generator(F, a.ring)
    assert same_degreewise_ideal(a, b)
    # F is X^2+Y^2+Z^2 up to scalar, in divided coordinates
    div = DualPoly.make(3, QQ, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    assert F.scale(QQ.inv(F.terms[0][1])) == div


def test_inverse_system_x2_y3():
    r = ring("x,y")
    ideal = Ideal(r, (r.parse("x^2"), r.parse("y^3")))
    dims = [len(inverse_system(ideal, d)) for d in range(5)]
    assert dims == [1, 2, 2, 1, 0]
    # matches the contraction module generated by X Y^2 (divided convention)
    gen = DualPoly.make(2, QQ, {(1, 2): 1})
    for d in range(5):
        span = RowSpace(QQ, len(monomials(2, d)))
        idx = {m: i for i, m in enumerate(monomials(2, d))}
        for m in monomials(2, 3 - d):
            g = contract(Poly.make(2, QQ, {m: 1}), gen)
            if not g.is_zero():
                span.add({idx[mm]: c for mm, c in g.terms})
        got = RowSpace(QQ, len(monomials(2, d)))
        for v in inverse_system(ideal, d):
            got.add({idx[mm]: c for mm, c in v.terms})
        assert span.rank == got.rank
        for row in span.rref_rows():
            assert got.contains(row)


def test_inverse_system_two_generator_module():
    r = ring("x,y")
    ideal = Ideal(r, (r.parse("x^2"), r.parse("x*y^2"), r.parse("y^3")))
    dims = [len(inverse_system(ideal, d)) for d in range(4)]
    assert dims == [1, 2, 2, 0]
    # degree-2 piece is not reachable from degree 3, so the module needs
    # two generators there
    assert len(inverse_system(ideal, 3)) == 0


def test_inverse_system_irrelevant_ideal():
    r = ring("x,y,z")
    ideal = Ideal(r, (r.parse("x"), r.parse("y"), r.parse("z")))
    basis = inverse_system(ideal, 0)
    assert len(basis) == 1
    assert basis[0] == DualPoly.make(3, QQ, {(0, 0, 0): 1})


def test_minimal_generators_round_trip():
    r = ring("x,y,z")
    a = from_dual_generator(r.parse_dual("X^2 + Y^2 + Z^2"), r)
    gens = a.minimal_generators()
    assert len(gens) == 5
    b = from_ideal(Ideal(r, tuple(gens)), max_degree=6)
    assert same_degreewise_ideal(a, b)


def test_hilbert_symmetry_for_gorenstein():
    r = ring("x,y,z")
    import random

    rng = random.Random(7)
    for _ in range(10):
        monos = monomials(3, 4)
        F = DualPoly.make(3, QQ, {m: rng.randint(-3, 3) for m in rng.sample(monos, 5)})
        if F.is_zero() or F.degree() != 4:
            continue
        a = from_dual_generator(F, r)
        h = a.hilbert_function()
        assert h == tuple(reversed(h))
        assert is_gorenstein(a)


def test_orientation_from_socle_element():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    v = a.vector(a.ring.parse("3*x*y*z"), 3)
    omega = orientation_from_socle_element(a, 3, v)
    assert integral(a, omega, 3, v) == 1


def test_dim_equality_invariant():
    a = build("x,y,z", ["x^2", "x*y^2", "y^3", "z^2"])
    for d in range(a.socle_degree + 1):
        assert a.dim(d) == len(monomials(3, d)) - a.ideal_space(d).rank


@st.composite
def dual_generators(draw):
    F = draw(st.sampled_from([QQ, GF(5), GF(32003)]))
    n = draw(st.integers(min_value=1, max_value=3))
    deg = draw(st.integers(min_value=1, max_value=4))
    support = draw(st.lists(st.sampled_from(monomials(n, deg)), min_size=1, max_size=5, unique=True))
    coeffs = st.integers(min_value=-4, max_value=4).filter(bool)
    return DualPoly.make(n, F, {m: F.coerce(draw(coeffs)) for m in support}), ring("x,y,z"[: 2 * n - 1], F)


@given(dual_generators())
@settings(max_examples=60, deadline=None)
def test_dual_generator_ideal_pieces_in_one_elimination(case):
    F, r = case
    a = from_dual_generator(F, r)
    p = r.field.characteristic
    for d in range(a.socle_degree + 1):
        monos = a.monomial_basis(d)
        # the former route: the catalecticant's kernel, re-added row by row
        cat = Matrix.from_rows(
            r.field,
            [[F.coefficient(tuple(x + y for x, y in zip(t, s))) for s in monos] for t in r.monomials(a.socle_degree - d)],
            ncols=len(monos),
        )
        old = RowSpace(r.field, len(monos))
        for v in kernel_basis(cat):
            old.add(dict(enumerate(v)))
        rows = a.ideal_space(d).rref_rows()
        assert rows == old.rref_rows()
        for row in rows:
            assert contract(Poly.make(r.nvars, r.field, {monos[c]: v for c, v in row.items()}), F).is_zero()
            for v in row.values():
                assert (type(v) is int and 0 <= v < p) if p else type(v) is Fraction


def test_algebras_on_one_ring_share_the_ring_s_column_tables():
    r = ring("x,y")
    before = {d: dict(r.monomial_index(d)) for d in range(5)}
    for d, index in before.items():
        assert list(index.items()) == [(m, c) for c, m in enumerate(r.monomials(d))]
    a = from_ideal(Ideal(r, (r.parse("x^2"), r.parse("y^3"))))
    b = from_dual_generator(r.parse_dual("X^[2]*Y + Y^[3]"), r)
    k = build("t", ["t"])
    zero = Poly.zero(1, QQ)
    fp = fiber_product(AlgebraMap(a, k, [zero] * 2), AlgebraMap(b, k, [zero] * 2))
    built = [a, b, tensor_product(a, b), connected_sum_over_field(a, b), presented_algebra(fp)]
    for d in range(a.socle_degree + 1):
        assert a._index[d] is b._index[d] is r.monomial_index(d)
    for alg in built:
        assert alg.socle_degree == len(alg._spaces) - 1
        alg.minimal_generators()
        for d in range(alg.socle_degree + 2):
            assert alg.monomial_basis(d) == alg.ring.monomials(d)
        for d in range(alg.socle_degree + 1):
            assert alg._index[d] is alg.ring.monomial_index(d)
            assert list(alg._index[d].items()) == [(m, c) for c, m in enumerate(alg.ring.monomials(d))]
    assert {d: r.monomial_index(d) for d in before} == before
