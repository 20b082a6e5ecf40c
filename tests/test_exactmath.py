import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lefschetz.exactmath import (
    GF,
    QQ,
    Matrix,
    RowSpace,
    _MR_LIMIT,
    _is_prime,
    _strong_probable_prime,
    det,
    invert,
    kernel_basis,
    kernel_space,
    rank,
    rref,
    solve,
)


def mat(rows, field=QQ):
    return Matrix.from_rows(field, rows)


def cofactor_det(rows):
    """Independent oracle: Leibniz expansion over permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(rows[i][perm[i]])
        total += sign * prod
    return total


def test_rref_repeated_row():
    m = mat([[1], [1]])
    red, pivots = rref(m)
    assert pivots == [0]
    assert rank(m) == 1


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == [0, 1, 2]


def test_char2_multiplication_matrix_rank():
    # specialisation a=b=c=1 of [[b,a,0],[c,0,a],[0,c,b]] drops rank mod 2
    rows = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert rank(mat(rows, GF(2))) == 2
    assert rank(mat(rows, QQ)) == 3


def test_det_diagonal():
    assert det(mat([[2, 0, 0], [0, 2, 0], [0, 0, 2]])) == 8


def test_rank_zero_matrix():
    assert rank(Matrix.zero(QQ, 3, 4)) == 0


def test_kernel_of_sum_row():
    basis = kernel_basis(mat([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != (0, 0)


def test_solve_identity():
    m = Matrix.identity(QQ, 3)
    assert solve(m, [1, 2, 3]) == (Fraction(1), Fraction(2), Fraction(3))


def test_solve_underdetermined():
    x = solve(mat([[1, 1]]), [2])
    assert x is not None
    assert x[0] + x[1] == 2


def test_solve_inconsistent():
    assert solve(mat([[1, 1], [1, 1]]), [0, 1]) is None


def test_det_nonsquare_raises():
    with pytest.raises(ValueError):
        det(mat([[1, 2]]))


def test_fp_inverse_fermat():
    F = GF(7)
    for x in range(1, 7):
        assert F.mul(x, F.inv(x)) == 1


def test_det_mod_p():
    m = mat([[1, 2], [3, 4]], GF(5))
    assert det(m) == (1 * 4 - 2 * 3) % 5
    assert det(mat([[2, 0], [0, 3]], GF(5))) == 1


def test_rational_exactness():
    a = Fraction(3, 7)
    assert QQ.mul(a, QQ.inv(a)) == 1


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, max_dim=4, field=QQ, min_dim=1):
    r = draw(st.integers(min_value=min_dim, max_value=max_dim))
    c = draw(st.integers(min_value=min_dim, max_value=max_dim))
    rows = draw(
        st.lists(st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return Matrix.from_rows(field, rows, ncols=c)


# QQ and GF(p) for a small and a word-size p: the kinds of field the oracles
# below cover
fields = st.sampled_from([QQ, GF(5), GF(32003)])


def assert_canonical(F, values):
    """Exact kernels return Fractions over QQ and residues in [0, p) over GF(p)."""
    p = F.characteristic
    for x in values:
        if p:
            assert type(x) is int and 0 <= x < p, (F, x)
        else:
            assert type(x) is Fraction, x


def oracle_det(m):
    """Leibniz determinant of m, reduced into m's field."""
    d = cofactor_det([list(r) for r in m.entries])
    p = m.field.characteristic
    return d % p if p else d


@given(matrices())
def test_rref_idempotent_and_rank(m):
    red, pivots = rref(m)
    red2, pivots2 = rref(red)
    assert red == red2
    assert pivots == pivots2
    assert rank(m) == len(pivots)
    assert pivots == sorted(pivots)


@given(fields.flatmap(lambda F: matrices(field=F, min_dim=0)))
@example(Matrix(QQ, 3, ()))
def test_kernel_space_is_the_reduced_kernel(m):
    # the rref of the kernel, reached without re-eliminating its vectors
    space = RowSpace(m.field, m.cols)
    for v in kernel_basis(m):
        space.add(dict(enumerate(v)))
    got = kernel_space(m.field, m.cols, [dict(enumerate(row)) for row in m.entries])
    assert got.rref_rows() == space.rref_rows()
    assert got.pivots() == space.pivots()
    assert_canonical(m.field, [x for row in got.rref_rows() for x in row.values()])


@st.composite
def add_sequences(draw):
    """A space, fresh or from ``kernel_space``, the rows it was made from, and
    sparse rows to add to it."""
    F = draw(fields)
    n = draw(st.integers(min_value=1, max_value=6))
    entries = st.integers(min_value=-3, max_value=3).map(F.coerce)
    sparse = st.dictionaries(st.integers(min_value=0, max_value=n - 1), entries, max_size=3)
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3))
        space = kernel_space(F, n, [dict(enumerate(row)) for row in rows])
        made_from = space.rref_rows()
    else:
        space, made_from = RowSpace(F, n), []
    return space, made_from, draw(st.lists(sparse, max_size=6))


@given(add_sequences())
@settings(max_examples=150)
def test_rowspace_stays_reduced_under_adds(case):
    space, made_from, added = case
    F, n = space.field, space.ncols
    for row in added:
        space.add(row)
    pivots = space.pivots()
    for pc, row in space.pivot_rows():
        assert min(row) == pc and row[pc] == 1
        assert all(row.get(q, 0) == 0 for q in pivots if q != pc), (pc, row)
        assert all(row.values()) and set(row) <= space._cols
    assert_canonical(F, [x for row in space.rref_rows() for x in row.values()])
    stacked = [[row.get(c, F.zero()) for c in range(n)] for row in made_from + added]
    red, red_pivots = rref(Matrix.from_rows(F, stacked, ncols=n)) if stacked else (Matrix(F, n, ()), [])
    assert pivots == red_pivots
    assert space.dense_matrix().entries == red.entries[: len(red_pivots)]


@given(matrices())
def test_kernel_annihilated(m):
    ks = kernel_basis(m)
    assert len(ks) == m.cols - rank(m)
    for v in ks:
        assert all(x == 0 for x in m.mul_vec(v))


@given(fields.flatmap(lambda F: matrices(field=F, min_dim=0)))
@example(Matrix(QQ, 0, ()))
@example(Matrix(GF(5), 0, ()))
@example(mat([[0, 1], [1, 0]]))  # pivots out of row order: the sign counts
@example(mat([[0, 2], [3, 1]], GF(5)))
def test_det_matches_cofactor_oracle(m):
    n = min(m.rows, m.cols)
    sq = Matrix(m.field, n, tuple(r[:n] for r in m.entries[:n]))
    assert det(sq) == oracle_det(sq)
    assert_canonical(m.field, [det(sq)])


@given(matrices(max_dim=4, field=GF(5)))
@settings(max_examples=40)
def test_fp_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(fields.flatmap(lambda F: matrices(field=F)))
def test_rref_matches_independent_characterisation(m):
    F = m.field
    red, pivots = rref(m)
    assert red.rows == m.rows and red.cols == m.cols
    space = RowSpace(F, m.cols)
    for row in m.entries:
        space.add(dict(enumerate(row)))
    assert_canonical(F, [x for row in red.entries for x in row])
    assert_canonical(F, [x for row in space.rref_rows() for x in row.values()])
    assert_canonical(F, [x for row in m.mul(m.transpose()).entries for x in row])
    assert_canonical(F, m.mul_vec(m.row(0)))
    # RREF shape: leading 1 at each pivot, zero elsewhere in pivot columns,
    # zero rows below the pivot rows, pivots strictly increasing
    assert pivots == sorted(set(pivots))
    for r, row in enumerate(red.entries):
        if r >= len(pivots):
            assert all(x == 0 for x in row)
            continue
        p = pivots[r]
        assert all(x == 0 for x in row[:p]) and row[p] == 1
        assert all(red.entries[s][p] == 0 for s in range(len(pivots)) if s != r)
    # every row of m is the combination of reduced rows read off its pivots
    for row in m.entries:
        combo = [F.zero()] * m.cols
        for r, p in enumerate(pivots):
            combo = [F.add(x, F.mul(row[p], y)) for x, y in zip(combo, red.entries[r])]
        assert tuple(combo) == row
    # the rank is the size of the largest nonvanishing minor
    minor_rank = max(
        k
        for k in range(min(m.rows, m.cols) + 1)
        if any(
            oracle_det(Matrix(F, k, tuple(tuple(m.entries[i][j] for j in cs) for i in rs))) != 0
            for rs in combinations(range(m.rows), k)
            for cs in combinations(range(m.cols), k)
        )
    )
    assert len(pivots) == minor_rank


# rref, rank, kernel_basis, solve, invert and det on matrices with no rows or
# no columns: (rows, cols) -> rank, kernel size, solve(b = 0), solve(b = 1)
EMPTY_SHAPES = {
    (0, 0): (0, 0, (), ()),
    (0, 3): (0, 3, (0, 0, 0), (0, 0, 0)),
    (3, 0): (0, 0, (), None),
}


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("shape", sorted(EMPTY_SHAPES))
def test_empty_matrices_pinned(field, shape):
    r, c = shape
    want_rank, want_kernel, want_solve0, want_solve1 = EMPTY_SHAPES[shape]
    m = Matrix.zero(field, r, c)
    red, pivots = rref(m)
    assert red == m and pivots == []
    assert rank(m) == want_rank
    kern = kernel_basis(m)
    assert kern == [tuple(int(i == j) for j in range(c)) for i in range(want_kernel)]
    assert solve(m, [0] * r) == want_solve0
    assert solve(m, [1] * r) == want_solve1
    if r == c:
        assert invert(m) == m
        assert det(m) == 1 and type(det(m)) is type(field.one())
    else:
        with pytest.raises(ValueError, match="non-square"):
            invert(m)
        with pytest.raises(ValueError, match="non-square"):
            det(m)


def test_rowspace_normal_form_idempotent():
    rs = RowSpace(QQ, 4)
    rs.add({0: Fraction(1), 1: Fraction(2)})
    rs.add({1: Fraction(1), 3: Fraction(1)})
    row = {0: Fraction(3), 2: Fraction(1), 3: Fraction(5)}
    r1 = rs.reduce(row)
    assert rs.reduce(r1) == r1


# -- primality of the characteristic ---------------------------------------------


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


def test_strong_pseudoprime_to_bases_through_31_is_composite():
    n = 3825123056546413051
    assert all(_strong_probable_prime(n, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    assert not _strong_probable_prime(n, 37)
    assert not _is_prime(n)


def test_large_characteristics():
    assert GF(10**18 + 3).characteristic == 10**18 + 3
    with pytest.raises(ValueError, match="prime"):
        GF(1000000007 * 1000000009)
    with pytest.raises(ValueError, match="too large"):
        GF(_MR_LIMIT + 2)
