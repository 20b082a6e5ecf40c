"""Symbolic Bareiss ranks and determinants, and exact polynomial division.

Oracles: Laplace expansion for determinants, the largest nonzero minor for
ranks, and a copy of the earlier elimination on ``Poly`` entries (before the
packed integer kernel) for rank, last pivot and sign step by step.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.exactmath import GF, QQ
from lefschetz.polynomials import Poly, mono_divides, mono_sub, parse_poly
from lefschetz.symbolic import _bareiss, fraction_free_echelon, poly_det, poly_divexact


def pmat(texts, field=QQ, varnames=("x", "y")):
    return [[parse_poly(t, varnames, field) for t in row] for row in texts]


def cofactor_det(rows):
    """Independent oracle: Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = Poly.zero(rows[0][0].nvars, rows[0][0].field)
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = entry * cofactor_det(minor)
        total = total - term if j % 2 else total + term
    return total


def minor_rank(rows):
    """Independent oracle: the largest k with a nonzero k x k minor."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                if not cofactor_det([[rows[a][b] for b in csel] for a in rsel]).is_zero():
                    return k
    return 0


def reference_divexact(f, g):
    """Exact division on ``Poly`` values, one quotient term at a time."""
    F = f.field
    if f.is_zero():
        return f
    quotient = {}
    rem = f
    lg, cg = g.terms[0]
    while not rem.is_zero():
        lr, cr = rem.terms[0]
        if not mono_divides(lg, lr):
            raise ArithmeticError("inexact polynomial division")
        m = mono_sub(lr, lg)
        c = F.div(cr, cg)
        quotient[m] = c
        rem = rem - Poly.make(f.nvars, F, {m: c}) * g
    return Poly.make(f.nvars, F, quotient)


def reference_bareiss(rows, stop_at=None):
    """The elimination on ``Poly`` entries: ``(rank, last pivot, sign)``."""
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    prev = None
    sign = 1
    r = 0
    used_cols = set()
    while r < min(nrows, ncols) and (stop_at is None or r < stop_at):
        best = None
        for i in range(r, nrows):
            for j in range(ncols):
                if j in used_cols:
                    continue
                if not a[i][j].is_zero():
                    w = (len(a[i][j].terms), a[i][j].degree())
                    if best is None or w < best[0]:
                        best = (w, i, j)
        if best is None:
            break
        _, pi, pj = best
        a[r], a[pi] = a[pi], a[r]
        if ((pi != r) + sum(c > pj for c in used_cols)) % 2:
            sign = -sign
        used_cols.add(pj)
        piv = a[r][pj]
        for i in range(r + 1, nrows):
            for j in range(ncols):
                if j == pj or j in used_cols:
                    continue
                num = a[i][j] * piv - a[i][pj] * a[r][j]
                a[i][j] = reference_divexact(num, prev) if prev is not None else num
            a[i][pj] = Poly.zero(piv.nvars, piv.field)
        prev = piv
        r += 1
    return r, prev, sign


fields = st.sampled_from([QQ, GF(5), GF(32003)])
# denominators make the QQ row scales differ from 1; all are units in GF(5)
coefficients = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.sampled_from([1, 1, 2, 3, 7])
)


@st.composite
def polys(draw, nvars, field):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=2)] * nvars),
            coefficients,
            max_size=3,
        )
    )
    return Poly.make(nvars, field, terms)


@st.composite
def poly_matrices(draw, square):
    field = draw(fields)
    nvars = draw(st.integers(min_value=1, max_value=3))
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = nrows if square else draw(st.integers(min_value=1, max_value=4))
    rows = [[draw(polys(nvars, field)) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # a last row that is a polynomial multiple of the first: singular
        factor = draw(polys(nvars, field))
        rows[-1] = [factor * e for e in rows[0]]
    return rows


@given(poly_matrices(square=True))
@settings(max_examples=60, deadline=None)
def test_poly_det_matches_cofactor_oracle(rows):
    assert poly_det(rows) == cofactor_det(rows)


@given(poly_matrices(square=False), st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_rank_is_largest_nonzero_minor(rows, stop_at):
    r = minor_rank(rows)
    assert fraction_free_echelon(rows) == r
    assert fraction_free_echelon(rows, stop_at=stop_at) == min(r, stop_at)


@given(poly_matrices(square=False), st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
@settings(max_examples=120, deadline=None)
def test_bareiss_matches_poly_reference(rows, stop_at):
    """Rank, sign and last pivot of the packed kernel against the ``Poly``
    elimination; the kernel's pivot is a minor of the row-scaled matrix."""
    rank, last, sign, scale = _bareiss(rows, stop_at)
    ref_rank, ref_last, ref_sign = reference_bareiss(rows, stop_at)
    assert (rank, sign) == (ref_rank, ref_sign)
    if ref_last is None:
        assert last is None and scale == 1
    else:
        assert last.scale(Fraction(1, scale)) == ref_last


@pytest.mark.parametrize("field", [QQ, GF(5), GF(32003)], ids=str)
def test_bareiss_degree_twelve_entries(field):
    """A 6 x 6 matrix with entries of degree 12 to 13: minors reach degree
    78 in one variable, far above the degrees the algebras produce, so every
    exponent field of the packed kernel is filled well past its low bits."""
    rng = random.Random(12)
    def entry():
        k = rng.randrange(13)
        return Poly.make(2, field, {
            (12, 0): rng.randint(1, 9),
            (k, 12 - k): Fraction(rng.randint(-9, 9), rng.choice([1, 2, 7])),
            (13, 0): rng.randint(0, 1),
        })
    rows = [[entry() for _ in range(6)] for _ in range(6)]
    det = poly_det(rows)
    assert det == cofactor_det(rows)
    assert det.degree() == 78
    assert [fraction_free_echelon(rows, stop_at=s) for s in (4, 6, 7)] == [4, 6, 6]


@given(fields.flatmap(lambda F: st.tuples(polys(2, F), polys(2, F))))
@settings(max_examples=80, deadline=None)
def test_divexact_inverts_products(fg):
    f, g = fg
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_divexact(f, g)
    else:
        assert poly_divexact(f * g, g) == f
        assert poly_divexact(f * g, g) == reference_divexact(f * g, g)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("f, g", [
    ("x^2 + 1", "x + 1"),  # a remainder term that x does not divide
    ("x^2", "2*x + 1"),  # over ZZ the lead coefficient 2 does not divide 1
    ("x", "y"),
    ("x*y + 1", "x*y"),
])
def test_divexact_raises_when_inexact(field, f, g):
    fp, gp = pmat([[f, g]], field)[0]
    with pytest.raises(ArithmeticError, match="inexact"):
        poly_divexact(fp, gp)
    with pytest.raises(ArithmeticError, match="inexact"):
        reference_divexact(fp, gp)


# The pivot is the nonzero entry with the fewest terms (then lowest degree),
# first in row-major order; each matrix below forces one kind of reordering.
SIGNED = [
    # pivot at (1, 0): a row swap, columns in order
    (["x+1", "x+2"], ["1", "x"]),
    # pivots at (0, 1) then (1, 0): no row swap, columns out of order
    (["x+1", "1"], ["1", "0"]),
    # a row swap to the pivot at (1, 2), then pivot columns 1 and 0: both kinds
    # at once, with an even product, so dropping either sign factor shows
    (["x", "x+y", "x+1"], ["x+y+1", "x+y", "1"], ["x+y", "x+2", "y+x+3"]),
]


@pytest.mark.parametrize("texts", SIGNED)
@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_poly_det_sign_of_reordered_pivots(texts, field):
    rows = pmat(texts, field)
    assert poly_det(rows) == cofactor_det(rows)


def test_poly_det_singular_is_zero():
    assert poly_det(pmat([["x", "x^2"], ["1", "x"]])).is_zero()
    assert poly_det(pmat([["0", "0"], ["x", "y"]])).is_zero()
    assert poly_det(pmat([["x", "y", "1"], ["y", "x", "1"], ["x+y", "x+y", "2"]])).is_zero()


def test_poly_det_rejects_empty_and_non_square():
    with pytest.raises(ValueError, match="empty"):
        poly_det([])
    with pytest.raises(ValueError, match="non-square"):
        poly_det(pmat([["x", "y"]]))
    with pytest.raises(ValueError, match="non-square"):
        poly_det([[]])


def test_rank_of_empty_matrices_is_zero():
    assert fraction_free_echelon([]) == 0
    assert fraction_free_echelon([[], []]) == 0
    assert fraction_free_echelon([[], []], stop_at=1) == 0


def test_rank_stop_at_certifies_early():
    rows = pmat([["x", "0", "0"], ["0", "y", "0"], ["0", "0", "x+y"]])
    assert [fraction_free_echelon(rows, stop_at=s) for s in range(5)] == [0, 1, 2, 3, 3]
