"""The integer-row ``RowSpace`` against the former ``Fraction`` one.

Over QQ ``RowSpace`` stores each row as a primitive integer vector and
eliminates fraction-free, making ``Fraction``s only where values are read.
``ref_RowSpace`` below is the former implementation, verbatim but for its
name, which stored reduced ``Fraction`` rows and did every elimination in
``Fraction`` arithmetic; ``ref_rref``, ``ref_rank``, ``ref_kernel_space``,
``ref_det``, ``ref_solve`` and ``ref_invert`` are the former functions on
it.  The
reduced row echelon form is unique, so every value read must be the same:
pivots, their insertion order, reduced rows, normal forms, kernels,
membership and whether an ``add`` grew the space, on random sequences of
``add``, ``store_reduced``, ``store_units`` and ``reduce`` with non-integer
entries and large denominators.  The space must also neither modify nor keep
the rows its callers hand it.  ``unit_normal_form``, which reads a unit row's
normal form off the stored rows, must give the values of ``reduce``.
"""

import cProfile
import math
import pstats
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.exactmath import (
    GF,
    QQ,
    FieldSpec,
    Matrix,
    RowSpace,
    Scalar,
    det,
    invert,
    kernel_space,
    rank,
    rref,
    solve,
)
from test_exactmath import assert_canonical


# -- the former implementation, verbatim ------------------------------------------


class ref_RowSpace:
    """Incrementally reduced row space of sparse vectors.

    This is the toolkit's elimination for reduced rows, pivots and kernels;
    the dense functions above all reduce through it.  Ranks of the chains
    of powers, which need none of these, are counted by ``echelon_rank``.
    Rows are dicts {column index: scalar}.  The space is kept in reduced
    row echelon form: each stored row has leading coefficient 1 at its
    pivot column (the smallest occupied column) and every other stored row
    is zero at that column.  Column 0 is
    the grevlex-largest monomial, so pivots are leading monomials and the
    non-pivot columns are the standard monomials.

    Rows enter through ``add``, which eliminates, ``store_reduced``, for a
    row already known to be the reduced row at its pivot, or
    ``store_units``, for unit rows at columns no stored row has; nothing
    else writes the stored rows.
    """

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self._rows: dict[int, dict[int, Scalar]] = {}  # pivot col -> row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def pivot_rows(self):
        """(pivot column, row) pairs of the stored rows, in insertion order.

        The rows are the space's own, not copies: read them, do not modify
        them.
        """
        return self._rows.items()

    def reduce(self, row: dict[int, Scalar]) -> dict[int, Scalar]:
        """Normal form of a sparse row against the stored rows."""
        p = self.field.characteristic
        out = {c: v % p for c, v in row.items() if v % p} if p else {c: v for c, v in row.items() if v}
        # The stored rows vanish at each other's pivots, so eliminating at
        # one pivot column never reaches another: one pass suffices.
        for c in [c for c in out if c in self._rows]:
            ref_sub_multiple(out, out[c], self._rows[c], p)
        return out

    def add(self, row: dict[int, Scalar]) -> bool:
        """Insert a row; returns True when it enlarged the space.  The new
        pivot column is cleared from every stored row that has it."""
        rem = self.reduce(row)
        if not rem:
            return False
        p = self.field.characteristic
        pc = min(rem)
        lead = rem[pc]
        if lead == 1:
            norm = rem
        elif p:
            inv = pow(lead, -1, p)
            norm = {c: inv * v % p for c, v in rem.items()}
        else:
            inv = Fraction(1) / lead
            norm = {c: inv * v for c, v in rem.items()}
        for other in self._rows.values():
            if pc in other:
                ref_sub_multiple(other, other[pc], norm, p)
        self._rows[pc] = norm
        return True

    def store_reduced(self, pivot: int, row: dict[int, Scalar]) -> None:
        """Store a row that is already reduced against the space, as it is.

        The caller vouches that row is 1 at its pivot, zero at every stored
        pivot, and that every stored row is zero at this pivot, so nothing is
        eliminated.  Checked here is only what is cheap: the pivot is the
        row's smallest column, the row is 1 there, and no stored row has it.
        """
        if row.get(pivot) != 1 or min(row) != pivot or pivot in self._rows:
            raise ValueError(f"row is not reduced at pivot {pivot}")
        self._rows[pivot] = row

    def store_units(self, columns: Sequence[int]) -> None:
        """Store the unit row e_c at each column c, in the given order, as
        they are.  The caller vouches that no stored row has these columns
        (a monomial of the space is then the reduced row at its own column);
        checked here is only that none of them is already a pivot."""
        if not self._rows.keys().isdisjoint(columns):
            raise ValueError("a unit row's column is already a pivot")
        one = self.field.one()
        self._rows.update((c, {c: one}) for c in columns)

    def kernel(self) -> dict[int, dict[int, Scalar]]:
        """The right kernel: for each free column f, in increasing f, the
        vector that is 1 at f, -row[f] at each stored row's pivot and 0
        elsewhere, every other free column included.  A stored row is zero at
        the other pivots, so its entries off its pivot are at free columns."""
        p, one = self.field.characteristic, self.field.one()
        out = {f: {f: one} for f in range(self.ncols) if f not in self._rows}
        for pc, row in self._rows.items():
            for c, x in row.items():
                if c != pc:
                    out[c][pc] = -x % p if p else -x
        return out

    def contains(self, row: dict[int, Scalar]) -> bool:
        return not self.reduce(row)

    def rref_rows(self) -> list[dict[int, Scalar]]:
        return [dict(self._rows[c]) for c in sorted(self._rows)]

    def dense_matrix(self) -> Matrix:
        z = self.field.zero()
        rows = tuple(
            tuple(self._rows[p].get(c, z) for c in range(self.ncols)) for p in sorted(self._rows)
        )
        return Matrix(self.field, self.ncols, rows)


def ref_sub_multiple(row: dict[int, Scalar], f: Scalar, src: dict[int, Scalar], p: int) -> None:
    """row -= f * src in place (modulo p when p > 0), dropping zeros.

    f and the entries of src are nonzero, so an entry can only become zero
    where row already had one.
    """
    get = row.get
    for c, v in src.items():
        nv = get(c, 0) - f * v
        if p:
            nv %= p
        if nv:
            row[c] = nv
        else:
            del row[c]


def ref_rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form, padded with zero rows, and the pivot columns."""
    space = ref_row_space(m)
    red = space.dense_matrix()
    pad = Matrix.zero(m.field, m.rows - red.rows, m.cols)
    return Matrix(m.field, m.cols, red.entries + pad.entries), space.pivots()


def ref_rank(m: Matrix) -> int:
    return ref_row_space(m).rank


def ref_row_space(m: Matrix) -> ref_RowSpace:
    space = ref_RowSpace(m.field, m.cols)
    for row in m.entries:
        space.add(dict(enumerate(row)))
    return space



def ref_kernel_space(field: FieldSpec, ncols: int, rows: Iterable[dict[int, Scalar]],
                     rank: Optional[int] = None) -> ref_RowSpace:
    """The right kernel of the matrix with these sparse rows, as a RowSpace.

    With the columns eliminated in reverse order, the kernel vector of a free
    column is 1 there and otherwise nonzero only at pivot columns after it,
    and every other kernel vector is 0 there: the vectors of ``kernel`` are
    already the kernel's reduced rows, and they are stored as they are.  A
    caller that knows the rank of the matrix passes it: once the rows read
    reach it they span the whole row space, and the rest are not read.
    """
    rev = ref_RowSpace(field, ncols)
    for row in rows:
        if rev.rank == rank:
            break
        rev.add({ncols - 1 - c: v for c, v in row.items()})
    out = ref_RowSpace(field, ncols)
    for f, v in rev.kernel().items():
        out.store_reduced(ncols - 1 - f, {ncols - 1 - c: x for c, x in v.items()})
    return out



def ref_det(m: Matrix) -> Scalar:
    """Determinant as the signed product of the rows' leading coefficients.

    Each row is reduced against the span of the rows before it, which leaves
    the determinant unchanged; the remainders are then triangular up to the
    permutation sending row order to pivot column.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    F = m.field
    space = ref_RowSpace(F, m.cols)
    acc = F.one()
    order: list[int] = []
    for row in m.entries:
        rem = space.reduce(dict(enumerate(row)))
        if not rem:
            return F.zero()
        pc = min(rem)
        acc = F.mul(acc, rem[pc])
        order.append(pc)
        space.add(rem)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    return F.neg(acc) if inversions % 2 else acc


def ref_solve(m: Matrix, b: Sequence[Scalar]) -> Optional[tuple]:
    """One solution of m @ x = b, or None when the system is inconsistent.

    Free coordinates are set to zero, so the returned solution is the
    deterministic rref particular solution.
    """
    if m.rows != len(b):
        raise ValueError("dimension mismatch in solve")
    F = m.field
    aug = Matrix(F, m.ncols + 1, tuple(r + (F.coerce(x),) for r, x in zip(m.entries, b)))
    red, pivots = ref_rref(aug)
    ncols = m.cols
    if ncols in pivots:
        return None
    x = [F.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.entries[r][ncols]
    return tuple(x)


def ref_invert(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    F = m.field
    n = m.rows
    ident = Matrix.identity(F, n)
    aug = Matrix(F, 2 * n, tuple(r + i for r, i in zip(m.entries, ident.entries)))
    red, pivots = ref_rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(F, n, tuple(r[n:] for r in red.entries))



# -- the oracle -----------------------------------------------------------------------

FIELDS = st.sampled_from([QQ, QQ, GF(32003)])


def entries(F: FieldSpec):
    """Field elements, mostly 0 or small (so rows depend on each other) and
    over QQ also rationals with large denominators."""
    small = st.integers(min_value=-3, max_value=3)
    if F.characteristic:
        return small.map(F.coerce)
    big = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
    halves = st.builds(Fraction, small, st.sampled_from([1, 2, 3, 6]))
    return st.one_of(st.just(Fraction(0)), small.map(Fraction), halves, big)


def rows(F: FieldSpec, n: int):
    return st.dictionaries(st.integers(min_value=0, max_value=n - 1), entries(F), max_size=n)


@st.composite
def combinations(draw, ref: ref_RowSpace):
    """A combination of the reference's reduced rows, often in the span."""
    F, out = ref.field, {}
    for _, row in ref.pivot_rows():
        x = draw(entries(F))
        for c, v in row.items():
            out[c] = F.add(out.get(c, F.zero()), F.mul(x, v))
    return out


def free_columns(ref: ref_RowSpace) -> list[int]:
    """Columns that are no pivot and where every stored row is zero."""
    used = {c for _, row in ref.pivot_rows() for c in row}
    return [c for c in range(ref.ncols) if c not in used]


def assert_same_reads(space: RowSpace, ref: ref_RowSpace, probe: dict) -> None:
    F = space.field
    assert space.rank == ref.rank and space.pivots() == ref.pivots()
    assert space.pivot_rows() == list(ref.pivot_rows())  # insertion order too
    assert space.rref_rows() == ref.rref_rows()
    assert space.kernel() == ref.kernel()
    assert space.dense_matrix() == ref.dense_matrix()
    reduced = space.reduce(probe)
    assert reduced == ref.reduce(probe)
    assert space.contains(probe) == ref.contains(probe)
    assert_canonical(F, [x for _, row in space.pivot_rows() for x in row.values()])
    assert_canonical(F, [x for row in space.rref_rows() for x in row.values()])
    assert_canonical(F, [x for v in space.kernel().values() for x in v.values()])
    assert_canonical(F, [x for row in space.dense_matrix().entries for x in row])
    assert_canonical(F, reduced.values())
    assert_stored_rows(space)


def assert_stored_rows(space: RowSpace) -> None:
    """Stored rows are primitive integers leading positively over QQ and the
    reduced rows over GF(p)."""
    F = space.field
    for pc, row in space.span_rows():
        assert min(row) == pc and all(row.values())
        if F.characteristic:
            assert row[pc] == 1
        else:
            assert all(type(x) is int for x in row.values())
            assert row[pc] > 0 and math.gcd(*row.values()) == 1


@settings(max_examples=300, deadline=None)
@given(FIELDS, st.data())
def test_every_read_matches_the_fraction_reference(F, data):
    n = data.draw(st.integers(min_value=1, max_value=7), label="ncols")
    space, ref = RowSpace(F, n), ref_RowSpace(F, n)
    for _ in range(data.draw(st.integers(min_value=0, max_value=10))):
        op = data.draw(st.sampled_from(["add", "add", "combination", "store_reduced", "store_units", "reduce"]))
        free, row = free_columns(ref), None
        if op == "store_reduced" and free:
            pc = data.draw(st.sampled_from(free))
            later = [c for c in range(pc + 1, n) if c not in ref.pivots()]
            row = {c: x for c, x in zip(later, data.draw(st.lists(entries(F), min_size=len(later),
                                                                   max_size=len(later)))) if x}
            row[pc] = F.one()
            before = dict(row)
            space.store_reduced(pc, row)
            ref.store_reduced(pc, dict(row))
        elif op == "store_units":
            columns = data.draw(st.lists(st.sampled_from(free), unique=True) if free else st.just([]))
            space.store_units(columns)
            ref.store_units(columns)
        elif op == "reduce":
            row = data.draw(rows(F, n))
            before = dict(row)
            assert space.reduce(row) == ref.reduce(row)
            assert space.contains(row) == ref.contains(row)
        else:
            row = data.draw(rows(F, n) if op == "add" else combinations(ref))
            before = dict(row)
            assert space.add(row) == ref.add(dict(row))
        if row is not None:
            # the space neither modified the caller's row nor kept it: the
            # reads below must not see it changed
            assert row == before
            row.update((c, F.add(row.get(c, F.zero()), F.one())) for c in range(n))
        assert_same_reads(space, ref, data.draw(rows(F, n)))


@st.composite
def matrices(draw, square: bool = False):
    F = draw(FIELDS)
    r = draw(st.integers(min_value=0, max_value=4))
    c = r if square else draw(st.integers(min_value=0, max_value=4))
    return Matrix(F, c, tuple(tuple(draw(st.lists(entries(F), min_size=c, max_size=c))) for _ in range(r)))


def outcome(fn, *args):
    """fn(*args), or the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return ("ValueError", str(err))


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_dense_functions_match_the_fraction_reference(m, data):
    F = m.field
    assert rank(m) == ref_rank(m)
    red, pivots = rref(m)
    assert (red, pivots) == ref_rref(m)
    assert_canonical(F, [x for row in red.entries for x in row])
    b = data.draw(st.lists(entries(F), min_size=m.rows, max_size=m.rows))
    x = solve(m, b)
    assert x == ref_solve(m, b)
    assert_canonical(F, x or ())


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_square_functions_match_the_fraction_reference(m):
    F = m.field
    d = det(m)
    assert d == ref_det(m)
    assert_canonical(F, [d])
    inv = outcome(invert, m)
    assert inv == outcome(ref_invert, m)
    if isinstance(inv, Matrix):
        assert_canonical(F, [x for row in inv.entries for x in row])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_space_stores_the_reference_kernel(m):
    F, n = m.field, m.cols
    rows = [dict(enumerate(row)) for row in m.entries]
    got, ref = kernel_space(F, n, rows), ref_kernel_space(F, n, rows)
    assert got.pivot_rows() == list(ref.pivot_rows())
    assert got.rref_rows() == ref.rref_rows()
    assert_stored_rows(got)


def fractions_made(fn, *args) -> int:
    """How many Fractions fn(*args) creates: calls of ``Fraction.__new__``."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn(*args)
    finally:
        prof.disable()
    return sum(calls for (path, _, name), (_, calls, *_) in pstats.Stats(prof).stats.items()
               if path.endswith("fractions.py") and name == "__new__")


def test_elimination_over_qq_makes_fractions_only_where_values_are_read():
    rows = [{0: Fraction(1, 3), 1: Fraction(2, 7), 3: Fraction(5)},
            {0: Fraction(-2), 1: Fraction(3, 4), 2: Fraction(1, 9)},
            {1: Fraction(7, 2), 2: Fraction(-1, 6), 3: Fraction(4, 5)}]
    space = RowSpace(QQ, 5)
    for row in rows:
        assert fractions_made(space.add, row) == 0
    assert space.pivots() == [0, 1, 2]  # every stored row is zero at column 4
    probe = {c: Fraction(c + 1, 7) for c in range(5)}
    assert fractions_made(space.contains, probe) == 0
    assert fractions_made(space.store_units, [4]) == 0
    assert fractions_made(kernel_space, QQ, 5, rows) == 0
    assert fractions_made(RowSpace(QQ, 5).store_reduced, 1, {1: Fraction(1), 3: Fraction(2, 3)}) == 0
    # reduce makes one Fraction per entry of its result, and nothing else
    assert fractions_made(space.reduce, {4: Fraction(1, 2)}) == 0  # in the span
    assert fractions_made(space.reduce, probe) == len(space.reduce(probe)) == 1
    assert fractions_made(space.add, probe) == 0 and space.rank == 5


# -- the normal form of a unit row, read off the stored rows ---------------------------


@settings(max_examples=300, deadline=None)
@given(FIELDS, st.data())
def test_unit_normal_form_reads_the_normal_form_of_each_unit_row(F, data):
    # on spaces built by add, store_reduced (over QQ with the reduced row
    # scaled by a positive integer) and store_units, the read divided by its
    # denominator is reduce({c: 1}) at every column c, item for item
    n = data.draw(st.integers(min_value=1, max_value=7), label="ncols")
    space = RowSpace(F, n)
    for _ in range(data.draw(st.integers(min_value=0, max_value=10))):
        used = {c for _, row in space.span_rows() for c in row}
        free = [c for c in range(n) if c not in used]
        op = data.draw(st.sampled_from(["add", "add", "store_reduced", "store_units"]))
        if op == "store_reduced" and free:
            pc = data.draw(st.sampled_from(free))
            later = [c for c in range(pc + 1, n) if c not in space.pivots()]
            row = {c: x for c, x in zip(later, data.draw(st.lists(entries(F), min_size=len(later),
                                                                   max_size=len(later)))) if x}
            row[pc] = F.one()
            scale = 1 if F.characteristic else data.draw(st.integers(min_value=1, max_value=10**6))
            space.store_reduced(pc, {c: scale * x for c, x in row.items()})
            twin = RowSpace(F, n)
            twin.store_reduced(pc, row)
            assert dict(space.span_rows())[pc] == dict(twin.span_rows())[pc]
        elif op == "store_units":
            space.store_units(data.draw(st.lists(st.sampled_from(free), unique=True) if free else st.just([])))
        else:
            space.add(data.draw(rows(F, n)))
        for c in range(n):
            row, den = space.unit_normal_form(c)
            assert type(den) is int and den >= 1 and (den == 1 or not F.characteristic)
            assert all(type(x) is int and x for x in row.values())
            values = [(k, Fraction(x, den) if not F.characteristic else x) for k, x in row.items()]
            assert values == list(space.reduce({c: F.one()}).items())


@pytest.mark.parametrize("F, lead", [(QQ, Fraction(0)), (QQ, Fraction(-2)), (QQ, -1), (GF(7), 2)])
def test_store_reduced_refuses_a_row_that_is_not_positive_at_its_pivot(F, lead):
    with pytest.raises(ValueError, match="^row is not reduced at pivot 0$"):
        RowSpace(F, 3).store_reduced(0, {0: lead, 2: F.one()})
