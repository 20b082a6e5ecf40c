import hashlib
import json
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import cli
from lefschetz.descfiles import parse_algebra_text
from lefschetz.exactmath import QQ, Matrix, invert, kernel_basis, rank
from lefschetz.algebra import Ideal, Ring, from_dual_generator, from_ideal
from lefschetz.polynomials import DualPoly, Poly, monomials
from lefschetz.checks import (
    JordanType,
    PowerChains,
    RankTable,
    _jordan_type,
    degree_one_vector,
    power_map_matrix,
    slpn_for_element,
)
from lefschetz.sl2 import (
    Sl2Triple,
    _scalar,
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
    from lefschetz.checks import degree_one_vector
    from reference_operators import ref_operator_matrix

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
                    assert block == ref_operator_matrix(a, 1, Lvec, k).entries
                else:
                    assert block == Matrix.zero(QQ, dims[i], dims[k]).entries
        degree = [k for k in range(c + 1) for _ in range(dims[k])]
        assert t.h == Matrix.from_rows(
            QQ, [[2 * degree[i] - c if i == j else 0 for j in range(t.size)] for i in range(t.size)]
        )
        assert verify_triple(t)


@pytest.mark.parametrize("element", ["x", "x + y", "0"])
def test_chain_vectors_that_are_no_basis_are_refused(monkeypatch, element):
    # with the strand check bypassed, a form that is no witness leaves chain
    # vectors that are no basis of some A_k, and F is refused
    import lefschetz.sl2 as sl2

    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    monkeypatch.setattr(sl2, "_jordan_type", lambda table: JordanType((), ()))
    with pytest.raises(ValueError, match="^element is not a narrow-sense Lefschetz witness$"):
        triple_from_lefschetz(a, a.ring.parse(element))


def test_triple_requires_characteristic_zero():
    from lefschetz.exactmath import GF

    r = Ring(("x", "y"), GF(7))
    a = from_ideal(Ideal(r, (r.parse("x^2"), r.parse("y^2"))))
    with pytest.raises(ValueError):
        triple_from_lefschetz(a, a.ring.parse("x + y"))


# SHA-256 of the E, H and F entries of ``triple_from_lefschetz`` and of the
# ``lefschetz sl2 --json`` bytes (run from the data directory), recorded when
# the triple was built from dense products of the step matrices.
RUNG_TRIPLES = {
    (3, 3, 3): "08525882407b1b9da326a47801b76c2e6d7ab690f2bb34c9a87ec02de9282ec9",
    (2, 4, 4): "3539a41184f9e26f30e11eccddcebf4216bb0a2ea99f325a4222ed2acea3aa34",
    (2, 2, 3, 3): "45fb12c9fb0b206a92e9460a79b30c1df70be89c6149c8603c598977886f2995",
}
WITNESS_TRIPLES = {
    ("x2y2.alg", "x+y"): (
        "defe35ba268dcae6628e51d96b5e6a4449e03bbac65a3e94a809259da0b7e9df",
        "9ee2e3ab5ae041bad92960e8210c62e4814be9657f04f4c4d28df1e8a9148eb8"),
    ("x2y2z2.alg", "x+y+z"): (
        "b4bbda5f830401c44c766821ebf62411e78623b617ac6e8ba398a9413fef91aa",
        "d12bc7faff0d4478c930d053c76b7e536b577a38e957f17642895d7db6a1723a"),
    ("x2y2z2.alg", "2*x+3*y+4*z"): (
        "e69e33f240a37a2dad5ab326c81ad1fae749d2ef6fbf91ec88a3e4c50e5ba32d",
        "799a71ccb96c5dfe05ab684daf3db68cf4497d2154ae4dde75464eea8e6865d0"),
    ("stanley_333.alg", "x+y+z"): (
        "08525882407b1b9da326a47801b76c2e6d7ab690f2bb34c9a87ec02de9282ec9",
        "1d215df938ec8ad2510eff60cffc33d6fab9fea5ba0e918665e846e06c704fd6"),
    ("sum_of_squares.alg", "x+y+z"): (
        "9a2fb2ec15d9fd8d44b9c1748579f06d767342ee696be8e7716bbb6e553c79c5",
        "1253736ad0b4453051b9a81893e1beca1c5e51cb75086a407f6769cc936b8f1e"),
    ("ex71_a.alg", "x+y"): (
        "9485fec214bf10b2665198ef8f3a58c1ce7851a976de0b18103c879885a08d0f",
        "3478060bb4efb23287840c23179d78f54ec1b92ff4f5a6f5bbc9a00e97e0e609"),
    ("ex71_b.alg", "u+v"): (
        "8abf8f82f6985b1e12db011be76412d74e06aa66bae25ca944e61a9fb85b10d1",
        "51fd7b8ddd5f23b9e0cad82f2859a82abd5535bd0d93494003908f067760fcaf"),
    ("ex71_t.alg", "z"): (
        "e32712caf707114417fb268159346e52c8a2a02224cf79e7ffd0914e343d7ba7",
        "38bc0c4ae1c75af0824ce1a3987167ad05b836bebf4c1078b5605ea3ba03841f"),
    ("notgor_a.alg", "2*x+3*y"): (
        "9639c18f7153eba811a062c9e9200aecb25ed4d6223b2c3a9da3a8269919a3af",
        "f50074954bcafef7ce7172d572429d1fb36f6941a5172d3a5d3c0d6e3c5bb227"),
    ("notgor_t.alg", "x+y"): (
        "e32712caf707114417fb268159346e52c8a2a02224cf79e7ffd0914e343d7ba7",
        "b2425c821657612e39b93a1345b3c65d5925e1a59289709803fb0c8bd11145de"),
}


def triple_digest(t):
    doc = [[[str(x) for x in row] for row in m.entries] for m in (t.e, t.h, t.f)]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("exps", sorted(RUNG_TRIPLES))
def test_rung_triples_are_pinned(exps):
    r = Ring(("x", "y", "z", "w")[: len(exps)], QQ)
    a = from_ideal(Ideal(r, tuple(r.parse(f"{v}^{e}") for v, e in zip(r.varnames, exps))))
    t = triple_from_lefschetz(a, Poly.linear_form(a.nvars, QQ, [1] * a.nvars))
    assert triple_digest(t) == RUNG_TRIPLES[exps]


@pytest.mark.parametrize("name, element", sorted(WITNESS_TRIPLES))
def test_bundled_witness_triples_and_json_are_pinned(name, element, monkeypatch, capsys):
    triple_want, json_want = WITNESS_TRIPLES[name, element]
    monkeypatch.chdir(resources.files("lefschetz") / "data")
    a = parse_algebra_text(Path(name).read_text()).build()
    assert triple_digest(triple_from_lefschetz(a, a.ring.parse(element))) == triple_want
    assert cli.main(["sl2", name, "--element", element, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == json_want


# (file, command) -> sha256 of the --json bytes for the rational element
# 1/3*x+2/7*y+z, recorded when the chains over QQ still pushed Fractions: the
# integer chains must give the same E, F and Jordan type
RATIONAL_ELEMENT_JSON = {
    ("x2y2z2.alg", "sl2"): "b3b3a9e1f1f90e3cda3ae377c7df52f2dd8ace9e8ba8a98945433bdd7ee7c9cb",
    ("x2y2z2.alg", "jordan"): "8b8e7a93fb05e8c280c4ab001dcde22300b66bf3de188998e3306b9517db1303",
    ("stanley_333.alg", "sl2"): "691a20801b0e34324a4c089f8af53fc379275a6bfe6947aa105d11554c617e2c",
    ("stanley_333.alg", "jordan"): "9caf6d7f23b6524185bd5b0bbed184c50e9ad678268dfa625d991196d349b043",
}


@pytest.mark.parametrize("name, command", sorted(RATIONAL_ELEMENT_JSON))
def test_rational_element_json_is_pinned(name, command, monkeypatch, capsys):
    monkeypatch.chdir(resources.files("lefschetz") / "data")
    assert cli.main([command, name, "--element", "1/3*x+2/7*y+z", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == RATIONAL_ELEMENT_JSON[name, command]


# The triple as it was built from dense matrices, kept verbatim but for the
# marked line (``PowerChains.image``, since deleted, pushed v through the
# same step): steps and powers densified by ``power_map_matrix``, primitive
# vectors from ``kernel_basis``, F_k = M_k C_k^-1 by ``invert`` and the
# bracket checked by dense products.
def ref_triple_from_lefschetz(alg, L) -> Sl2Triple:
    """sl2 triple with E multiplication by a narrow-sense witness.

    Built degree by degree in the graded basis.  E_k : A_k -> A_{k+1} is
    multiplication by L and H acts on A_k by 2k - c.  The chain vectors in
    A_k (primitive vectors v of each centred strand and their images L^j v)
    form an invertible matrix C_k, and F_k : A_k -> A_{k-1} sends L^j v to
    j(d - j + 1) L^{j-1} v on a strand of length d + 1.  Refuses linear
    forms that are not narrow-sense Lefschetz elements: the strands are
    certified centred and every C_k invertible before F is assembled, and
    [E, F] = H is checked on every A_k ([H, E] = 2E and [H, F] = -2F hold by
    degree).
    """
    F = alg.field
    if F.characteristic != 0:
        raise ValueError("sl2 machinery requires characteristic zero")
    table = RankTable(alg, degree_one_vector(alg, L))
    jt = _jordan_type(table)
    c = alg.socle_degree
    for start, length in jt.starts:
        if 2 * start + length - 1 != c:
            raise ValueError(
                "element is not a narrow-sense Lefschetz witness: "
                f"strand at degree {start} of length {length} is not centered"
            )
    dims = [alg.dim(k) for k in range(c + 1)]
    z = F.zero()
    steps = [power_map_matrix(table, 1, k) for k in range(c)]
    # per degree k: (chain vector in A_k, its image under F in A_{k-1})
    chains: list[list[tuple]] = [[] for _ in range(c + 1)]
    for s in range(c // 2 + 1):
        if dims[s] == 0:
            continue
        d = c - 2 * s  # strands starting in A_s end in A_{c-s}
        # primitive vectors: the kernel of L^{d+1} : A_s -> A_{c-s+1}
        power = power_map_matrix(table, d + 1, s) if s else Matrix(F, dims[0], ())
        for v in kernel_basis(power):
            below = (z,) * (dims[s - 1] if s else 0)
            for j in range(d + 1):
                chains[s + j].append((v, below))
                if j < d:
                    coeff = F.from_int((j + 1) * (d - j))
                    below = tuple(F.mul(coeff, x) for x in v)
                    v = steps[s + j].mul_vec(v)  # was table.chains.image(v, s + j)
    f_blocks = []
    for k in range(c + 1):
        # C_k is square exactly when A_k holds dim A_k chain vectors
        C = Matrix.from_cols(F, [v for v, _ in chains[k]], nrows=dims[k])
        try:
            C_inv = invert(C)
        except ValueError as exc:
            raise ValueError("element is not a narrow-sense Lefschetz witness") from exc
        M = Matrix.from_cols(F, [b for _, b in chains[k]], nrows=dims[k - 1] if k else 0)
        f_blocks.append(M.mul(C_inv))
    for k in range(c + 1):
        ef = steps[k - 1].mul(f_blocks[k]) if k else Matrix.zero(F, dims[k], dims[k])
        fe = f_blocks[k + 1].mul(steps[k]) if k < c else Matrix.zero(F, dims[k], dims[k])
        if ef != fe.add(_scalar(F, dims[k], 2 * k - c)):
            raise AssertionError("constructed operators fail the bracket relations")

    return Sl2Triple(
        Matrix.blocks(F, dims, dims, {(k + 1, k): steps[k] for k in range(c)}),
        Matrix.blocks(F, dims, dims, {(k, k): _scalar(F, dims[k], 2 * k - c) for k in range(c + 1)}),
        Matrix.blocks(F, dims, dims, {(k - 1, k): f_blocks[k] for k in range(1, c + 1)}),
    )


@st.composite
def triple_cases(draw):
    """A monomial complete intersection or the algebra of a dual generator,
    over QQ, with a linear form whose coefficients may vanish."""
    n = draw(st.integers(min_value=1, max_value=3))
    r = Ring(("x", "y", "z")[:n], QQ)
    if draw(st.booleans()):
        exps = draw(st.lists(st.integers(2, 4 if n < 3 else 3), min_size=n, max_size=n))
        a = from_ideal(Ideal(r, tuple(r.parse(f"{v}^{e}") for v, e in zip(r.varnames, exps))))
    else:
        support = monomials(n, draw(st.integers(min_value=1, max_value=4)))
        terms = draw(st.lists(st.sampled_from(support), min_size=1, max_size=3, unique=True))
        a = from_dual_generator(DualPoly.make(n, QQ, {m: draw(st.integers(-3, 3).filter(bool)) for m in terms}), r)
    return a, Poly.linear_form(n, QQ, draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n)))


@given(triple_cases())
@settings(max_examples=80, deadline=None)
def test_triple_matches_the_dense_reference(case):
    a, L = case
    try:
        want = ref_triple_from_lefschetz(a, L)
    except ValueError:
        with pytest.raises(ValueError):
            triple_from_lefschetz(a, L)
        return
    assert triple_from_lefschetz(a, L) == want


def test_triple_uses_no_dense_linear_algebra(monkeypatch):
    data = resources.files("lefschetz") / "data"
    cases = []
    for (name, element), (want, _) in sorted(WITNESS_TRIPLES.items()):
        a = parse_algebra_text((data / name).read_text()).build()
        cases.append((a, a.ring.parse(element), want))

    def forbidden(*args, **kwargs):
        raise AssertionError("dense linear algebra while building a triple")

    for module in [m for n, m in sys.modules.items() if n == "lefschetz" or n.startswith("lefschetz.")]:
        for name in ("invert", "power_map_matrix", "kernel_basis"):
            if name in vars(module):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(Matrix, "mul", forbidden)
    assert not hasattr(PowerChains, "image")
    for a, L, want in cases:
        assert triple_digest(triple_from_lefschetz(a, L)) == want
