from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.exactmath import GF, QQ
from lefschetz.polynomials import Poly, parse_poly
from lefschetz.symbolic import fraction_free_echelon, poly_det


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


fields = st.sampled_from([QQ, GF(5)])


@st.composite
def polys(draw, nvars, field):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=2)] * nvars),
            st.integers(min_value=-4, max_value=4),
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
