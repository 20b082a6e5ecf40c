from collections import Counter

import pytest

from lefschetz.exactmath import QQ, Matrix, rank
from lefschetz.algebra import Ideal, Ring, from_ideal
from lefschetz.checks import slpn_for_element
from lefschetz.sl2 import (
    Sl2Triple,
    irreducible_decomposition,
    model_rep,
    slpn_via_weights,
    triple_from_lefschetz,
    verify_triple,
    weight_decomposition,
)


def build(names, gens):
    r = Ring(tuple(names.split(",")), QQ)
    return from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)))


def mat(rows):
    return Matrix.from_rows(QQ, rows)


def test_verify_classic_2x2_triple():
    t = Sl2Triple(mat([[0, 1], [0, 0]]), mat([[1, 0], [0, -1]]), mat([[0, 0], [1, 0]]))
    assert verify_triple(t)


def test_verify_zero_triple():
    z = Matrix.zero(QQ, 1, 1)
    assert verify_triple(Sl2Triple(z, z, z))


def test_verify_size_mismatch():
    with pytest.raises(ValueError):
        verify_triple(
            Sl2Triple(Matrix.zero(QQ, 2, 2), Matrix.zero(QQ, 1, 1), Matrix.zero(QQ, 2, 2))
        )


def test_model_rep_degree_one_is_classic():
    t = model_rep(1)
    assert [list(r) for r in t.e.entries] == [[0, 1], [0, 0]]
    assert [list(r) for r in t.h.entries] == [[1, 0], [0, -1]]
    assert [list(r) for r in t.f.entries] == [[0, 0], [1, 0]]


def test_model_rep_verifies_up_to_six():
    for d in range(7):
        assert verify_triple(model_rep(d))


def test_model_rep_h_eigenvalues():
    t = model_rep(3)
    eig = sorted(t.h.entries[i][i] for i in range(4))
    assert eig == [-3, -1, 1, 3]


def test_model_rep_lowest_weight_generates():
    # y^d, E(y^d), ..., E^d(y^d) spans
    for d in range(1, 6):
        t = model_rep(d)
        v = tuple(1 if i == d else 0 for i in range(d + 1))
        cols = [v]
        for _ in range(d):
            v = t.e.mul_vec(v)
            cols.append(v)
        assert rank(Matrix.from_cols(QQ, cols)) == d + 1


def test_weight_decomposition_model():
    wd = weight_decomposition(model_rep(2).h)
    assert wd.weights() == {2: 1, 0: 1, -2: 1}


def test_weight_decomposition_zero_matrix():
    wd = weight_decomposition(Matrix.zero(QQ, 1, 1))
    assert wd.weights() == {0: 1}


def test_weight_decomposition_rejects_non_integer_spectrum():
    with pytest.raises(ValueError):
        weight_decomposition(mat([[0, 1], [0, 0]]))


def test_triple_from_single_variable_algebra():
    r = Ring(("x",), QQ)
    a = from_ideal(Ideal(r, (r.parse("x^3"),)))
    t = triple_from_lefschetz(a, a.ring.parse("x"))
    assert verify_triple(t)
    wd = weight_decomposition(t.h)
    assert wd.weights() == {-2: 1, 0: 1, 2: 1}


def test_triple_from_x2y2():
    a = build("x,y", ["x^2", "y^2"])
    t = triple_from_lefschetz(a, a.ring.parse("x + y"))
    assert verify_triple(t)
    wd = weight_decomposition(t.h)
    assert wd.weights() == {-2: 1, 0: 2, 2: 1}
    eigs = sorted(w for w, vs in wd.spaces for _ in vs)
    assert eigs == [-2, 0, 0, 2]


def test_triple_refuses_non_witness():
    a = build("x,y", ["x^2", "x*y", "y^5"])
    with pytest.raises(ValueError):
        triple_from_lefschetz(a, a.ring.parse("x + y"))


def test_weights_of_222():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    t = triple_from_lefschetz(a, a.ring.parse("x + y + z"))
    wd = weight_decomposition(t.h)
    flat = sorted(w for w, vs in wd.spaces for _ in vs)
    assert flat == [-3, -1, -1, -1, 1, 1, 1, 3]


def test_irreducible_decomposition_exercise():
    assert irreducible_decomposition([2, 1, 1, 0, -1, -1, -2]) == (3, 2, 2)


def test_irreducible_decomposition_trivial():
    assert irreducible_decomposition([0]) == (1,)


def test_irreducible_decomposition_rejects_bad_multiset():
    with pytest.raises(ValueError):
        irreducible_decomposition([1, 1, -1])
    with pytest.raises(ValueError):
        irreducible_decomposition([2, -2])  # missing the weight 0 in between


def test_irreducibles_match_jordan_type():
    from lefschetz.checks import jordan_type

    a = build("x,y", ["x^2", "y^2"])
    L = a.ring.parse("x + y")
    t = triple_from_lefschetz(a, L)
    wd = weight_decomposition(t.h)
    flat = [w for w, vs in wd.spaces for _ in vs]
    assert irreducible_decomposition(flat) == jordan_type(a, L).parts == (3, 1)


def test_ek_isomorphisms():
    # E^k : W_{-k} -> W_k is an isomorphism on constructed triples
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    t = triple_from_lefschetz(a, a.ring.parse("x + y + z"))
    wd = weight_decomposition(t.h)
    for k, vs in wd.spaces:
        if k >= 0:
            continue
        power = Matrix.identity(QQ, t.size)
        for _ in range(-k):
            power = t.e.mul(power)
        images = [power.mul_vec(v) for v in vs]
        assert rank(Matrix.from_cols(QQ, images, nrows=t.size)) == len(vs)
        assert len(wd.basis(-k)) == len(vs)


def test_slpn_via_weights_monomial_ci():
    a = build("x,y,z", ["x^3", "y^3", "z^3"])
    L = a.ring.parse("x + y + z")
    assert slpn_via_weights(a, L)
    assert slpn_for_element(a, L).holds


def test_slpn_via_weights_narrow_failure():
    a = build("x,y", ["x^2", "x*y", "y^5"])
    L = a.ring.parse("x + y")
    assert not slpn_via_weights(a, L)
    assert not slpn_for_element(a, L).holds


def test_slpn_via_weights_tiny():
    r = Ring(("x",), QQ)
    a = from_ideal(Ideal(r, (r.parse("x^2"),)))
    assert slpn_via_weights(a, a.ring.parse("x"))


def test_weight_dimension_sequences_unimodal():
    from lefschetz.checks import unimodal

    for d in range(7):
        wd = weight_decomposition(model_rep(d).h)
        dims = wd.weights()
        for parity in (0, 1):
            seq = [dims.get(w, 0) for w in range(-8 + parity, 9, 2)]
            assert unimodal(seq)
    a = build("x,y,z", ["x^2", "y^2", "z^3"])
    t = triple_from_lefschetz(a, a.ring.parse("x + y + z"))
    dims = weight_decomposition(t.h).weights()
    for parity in (0, 1):
        seq = [dims.get(w, 0) for w in range(-9 + parity, 10, 2)]
        assert unimodal(seq)


def test_agreement_on_random_instances():
    import random

    from lefschetz.algebra import from_dual_generator
    from lefschetz.polynomials import DualPoly, monomials

    rng = random.Random(4)
    r = Ring(("x", "y", "z"), QQ)
    agree = 0
    for _ in range(12):
        deg = rng.randint(2, 4)
        monos = monomials(3, deg)
        F = DualPoly.make(
            3, QQ, {m: rng.randint(-3, 3) for m in rng.sample(monos, min(4, len(monos)))}
        )
        if F.is_zero() or F.degree() != deg:
            continue
        a = from_dual_generator(F, r)
        cs = [rng.randint(1, 50) for _ in range(3)]
        L = a.ring.parse(f"{cs[0]}*x + {cs[1]}*y + {cs[2]}*z")
        assert slpn_via_weights(a, L) == slpn_for_element(a, L).holds
        agree += 1
    assert agree >= 8


def _graded_triple_cases():
    from importlib import resources

    from lefschetz.algebra import from_dual_generator
    from lefschetz.descfiles import parse_algebra_text
    from lefschetz.polynomials import DualPoly

    data = resources.files("lefschetz") / "data"
    for name in ("x2y2z2.alg", "stanley_333.alg"):
        a = parse_algebra_text((data / name).read_text()).build()
        yield a, a.ring.parse("x + y + z")
    r = Ring(("x", "y", "z"), QQ)
    F = DualPoly.make(3, QQ, {(3, 1, 0): 1, (0, 2, 2): -2, (1, 1, 2): 3, (0, 0, 4): 1})
    a = from_dual_generator(F, r)
    yield a, a.ring.parse("x + 2*y + 3*z")


def test_triple_blocks_in_graded_basis():
    # E is multiplication by L block by block and H is 2 deg - c on the
    # graded basis; given E and H, [E,F]=H pins F, so the dense check closes it
    from lefschetz.algebra import operator_matrix
    from lefschetz.checks import degree_one_vector

    for a, L in _graded_triple_cases():
        t = triple_from_lefschetz(a, L)
        c = a.socle_degree
        dims = [a.dim(k) for k in range(c + 1)]
        off = [sum(dims[:k]) for k in range(c + 2)]
        assert t.size == off[-1]
        Lvec = degree_one_vector(a, L)
        for i in range(c + 1):
            for k in range(c + 1):
                block = tuple(row[off[k] : off[k + 1]] for row in t.e.entries[off[i] : off[i + 1]])
                if i == k + 1:
                    assert block == operator_matrix(a, 1, Lvec, k).entries
                else:
                    assert block == Matrix.zero(QQ, dims[i], dims[k]).entries
        degree = [k for k in range(c + 1) for _ in range(dims[k])]
        assert t.h == Matrix.from_rows(
            QQ, [[2 * degree[i] - c if i == j else 0 for j in range(t.size)] for i in range(t.size)]
        )
        assert verify_triple(t)


def test_triple_requires_characteristic_zero():
    from lefschetz.exactmath import GF

    r = Ring(("x", "y"), GF(7))
    a = from_ideal(Ideal(r, (r.parse("x^2"), r.parse("y^2"))))
    with pytest.raises(ValueError):
        triple_from_lefschetz(a, a.ring.parse("x + y"))
