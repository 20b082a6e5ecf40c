"""Exact scalar arithmetic over QQ and GF(p), plus exact linear algebra.

Scalars are plain Python objects: ``fractions.Fraction`` in characteristic 0
and canonical residues ``int`` in ``[0, p)`` over GF(p).  A ``FieldSpec``
carries the characteristic and supplies scalar arithmetic, so matrices and
polynomials stay lightweight.

``RowSpace`` is the engine for reduced row spaces.  ``rref``, ``rank``,
``kernel_basis``, ``solve``, ``invert`` and ``det`` on dense matrices, and
``kernel_space`` on sparse rows, are views of it: they feed the rows into a
fresh ``RowSpace`` and read the answer off its reduced rows and pivots.
Rows enter it by ``add``, ``store_reduced`` or ``store_units``, and every
kernel vector read as field elements comes from one method,
``RowSpace.kernel``; ``kernel_space`` writes its kernel's rows itself.

Both eliminations share one row arithmetic for both fields.  A nonzero row
is stored in one form (``_primitive``): over GF(p) scaled to 1 at its
pivot, its smallest column; over QQ the primitive integer row on its line,
with gcd 1 and positive at the pivot.  A row r is reduced at a column c by
a stored row R in one fraction-free step in the manner of Bareiss
(``_cross_reduce``): r <- (a/g) r - (b/g) R with a = R[c], b = r[c] and
g = gcd(a, b), which over GF(p), where a = 1, is r <- r - b R.  A
``RowSpace`` also back-substitutes, so its rows stay reduced, and over QQ
makes ``Fraction``s only where its callers read values.  The other
elimination, ``echelon_rank``, only counts: it ranks the chains of powers
of a linear form (``checks.PowerChains``), over ZZ or GF(p), and differs
only in doing no back-substitution and keeping no reduced rows; it stops at
a rank known in advance.  The chains over QQ are scaled to integers for it.

The hot kernels (``RowSpace.reduce``/``RowSpace.add`` and ``echelon_rank``)
rely on that representation instead of calling ``FieldSpec`` per scalar:
over GF(p) they compute with plain ``int`` and take one ``% p`` per updated
entry, which brings every result back into ``[0, p)``; over QQ they compute
with integers, a ``RowSpace`` taking its entries apart with
``as_integer_ratio``.  Entries handed to them must therefore be field
elements as ``FieldSpec.coerce`` returns them, or over QQ also integers (as
``RowSpace.span_rows`` gives them).  Polynomial coefficients follow the
same rule; it is written down in the ``polynomials`` module docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[Fraction, int]


# Miller-Rabin with the first 13 prime bases is a proof of primality below
# this bound (Sorenson and Webster, Math. Comp. 86 (2017)); the first 12
# bases, 2..37, only below 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError above the proven range."""
    if n >= _MR_LIMIT:
        raise ValueError(f"characteristic {n} is too large (must be below {_MR_LIMIT})")
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    return all(n % a and _strong_probable_prime(n, a) for a in _MR_BASES)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: does odd n > a pass the strong test to base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: QQ for characteristic 0, GF(p) for a prime p."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        p = self.characteristic
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")

    # -- element construction ------------------------------------------------

    def coerce(self, value) -> Scalar:
        """Field element from an int, a Fraction or a decimal/fraction string.

        Raises ValueError when the denominator vanishes in the field.
        """
        p = self.characteristic
        if isinstance(value, str):
            try:
                value = Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {value!r}") from None
        if p == 0:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            raise TypeError(f"cannot coerce {value!r} into QQ")
        if isinstance(value, int):
            return value % p
        if isinstance(value, Fraction):
            den = value.denominator
            if den == 1:
                return value.numerator % p
            if den % p == 0:
                raise ValueError(f"denominator of {value} vanishes in GF({p})")
            return value.numerator * pow(den, -1, p) % p
        raise TypeError(f"cannot coerce {value!r} into GF({p})")

    def zero(self) -> Scalar:
        return Fraction(0) if self.characteristic == 0 else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.characteristic == 0 else 1

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        p = self.characteristic
        return a + b if p == 0 else (a + b) % p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        p = self.characteristic
        return a * b if p == 0 else (a * b) % p

    def neg(self, a: Scalar) -> Scalar:
        p = self.characteristic
        return -a if p == 0 else (-a) % p

    def inv(self, a: Scalar) -> Scalar:
        p = self.characteristic
        if p == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero in QQ")
            return Fraction(1) / a
        if a % p == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({p})")
        return pow(a, p - 2, p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0 if self.characteristic == 0 else a % self.characteristic == 0

    def from_int(self, n: int) -> Scalar:
        return self.coerce(n)

    def factorial_invertible(self, n: int) -> bool:
        """True when n! is a unit: characteristic 0 or p > n."""
        p = self.characteristic
        return p == 0 or p > n

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"Fp({self.characteristic})"


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    """The prime field GF(p); characteristic 0 is ``QQ``, not GF(0)."""
    if p == 0:
        raise ValueError("GF(0) is not a prime field; for characteristic 0 use QQ")
    return FieldSpec(p)


# ---------------------------------------------------------------------------
# Dense matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over a FieldSpec; shape survives zero rows."""

    field: FieldSpec
    ncols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self) -> None:
        if any(len(r) != self.ncols for r in self.entries):
            raise ValueError("ragged rows")

    @staticmethod
    def from_rows(field: FieldSpec, rows: Iterable[Iterable], ncols: Optional[int] = None) -> "Matrix":
        ent = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if ncols is None:
            if not ent:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(ent[0])
        return Matrix(field, ncols, ent)

    @staticmethod
    def zero(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def from_cols(field: FieldSpec, cols: Sequence[Sequence], nrows: Optional[int] = None) -> "Matrix":
        if not cols:
            if nrows is None:
                raise ValueError("nrows required for a matrix with no columns")
            return Matrix(field, 0, tuple(() for _ in range(nrows)))
        nrows = len(cols[0])
        return Matrix.from_rows(
            field, [[cols[j][i] for j in range(len(cols))] for i in range(nrows)], ncols=len(cols)
        )

    @staticmethod
    def blocks(field: FieldSpec, row_sizes: Sequence[int], col_sizes: Sequence[int], blocks: dict) -> "Matrix":
        """The block matrix with ``blocks[(r, c)]`` (row_sizes[r] by
        col_sizes[c]) in block row r and block column c, zero elsewhere."""
        r0 = [sum(row_sizes[:k]) for k in range(len(row_sizes))]
        c0 = [sum(col_sizes[:k]) for k in range(len(col_sizes))]
        out = [[field.zero()] * sum(col_sizes) for _ in range(sum(row_sizes))]
        for (r, c), m in blocks.items():
            for x, row in enumerate(m.entries):
                out[r0[r] + x][c0[c] : c0[c] + m.cols] = row
        return Matrix(field, sum(col_sizes), tuple(map(tuple, out)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return self.ncols

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.ncols)))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        ot = other.transpose().entries
        return Matrix(self.field, other.cols, tuple(_dots(self.field, r, ot) for r in self.entries))

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        F = self.field
        rows = zip(self.entries, other.entries)
        return Matrix(F, self.ncols, tuple(tuple(F.add(x, y) if y else x for x, y in zip(r, s)) for r, s in rows))

    def mul_vec(self, v: Sequence[Scalar]) -> tuple:
        if self.cols != len(v):
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(_dots(self.field, r, (v,))[0] for r in self.entries)

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(x) for r in self.entries for x in r)

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.entries)


def _dots(field: FieldSpec, row: Sequence[Scalar], cols: Sequence[Sequence[Scalar]]) -> tuple:
    """The dot products of one row with each of cols, skipping the row's zeros."""
    nz = [(j, x) for j, x in enumerate(row) if x]
    return tuple(field.coerce(sum(x * c[j] for j, x in nz)) for c in cols)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form, padded with zero rows, and the pivot columns."""
    space = _row_space(m)
    red = space.dense_matrix()
    pad = Matrix.zero(m.field, m.rows - red.rows, m.cols)
    return Matrix(m.field, m.cols, red.entries + pad.entries), space.pivots()


def rank(m: Matrix) -> int:
    return _row_space(m).rank


def _row_space(m: Matrix) -> RowSpace:
    space = RowSpace(m.field, m.cols)
    for row in m.entries:
        space.add(dict(enumerate(row)))
    return space


def dense(field: FieldSpec, n: int, vec: dict[int, Scalar]) -> tuple:
    """The sparse vector vec as a tuple of length n."""
    z = field.zero()
    return tuple(vec.get(c, z) for c in range(n))


def nonzero(col: dict, p: int) -> dict:
    """The entries of a sparse vector that are nonzero (modulo p when p > 0)."""
    return {k: v % p for k, v in col.items() if v % p} if p else {k: v for k, v in col.items() if v}


def apply_columns(cols: Sequence, vec: Iterable[tuple[int, Scalar]], p: int) -> dict:
    """sum x * cols[k] over the (k, x) pairs of vec, each column a sequence of
    (row, value) pairs: a multiplication map applied to a vector, sparsely."""
    acc: dict = {}
    get = acc.get
    for k, x in vec:
        if x:
            for r, v in cols[k]:
                acc[r] = get(r, 0) + x * v
    return nonzero(acc, p)


def rows_of(cols: Sequence, nrows: int) -> list[dict]:
    """The nrows rows {column: value} of a map given by its columns, each a
    sequence of (row, value) pairs."""
    rows: list[dict] = [{} for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r, v in col:
            rows[r][c] = v
    return rows


def echelon_rank(vectors: Iterable[dict[int, int]], p: int, stop: int) -> int:
    """The rank of sparse vectors {index: nonzero value}, integers over ZZ
    (p = 0) or residues in [0, p) modulo a prime p, drawing no further
    vector once the rank reaches stop.

    A copy of each vector is reduced at its smallest index, by the shared
    step, against the stored row leading there until it leads at a new
    index or vanishes, and its stored form is then kept.  Unlike
    ``RowSpace`` nothing is back-substituted, so the stored rows form an
    echelon form, not the reduced one.  The vectors are only read.  A rank
    over QQ is the rank of the vectors scaled to integers.
    """
    rows: dict[int, dict[int, int]] = {}  # leading index -> stored row
    for v in vectors if stop > 0 else ():
        if v and (lead := min(v)) in rows:
            v = dict(v)  # the step updates in place; the caller's vector stays as it is
            while True:
                v = _cross_reduce(v, lead, rows[lead], p)[0]
                if not v or (lead := min(v)) not in rows:
                    break
        if v:
            rows[lead] = _primitive(v, lead, p)
            if len(rows) == stop:
                break
    return len(rows)


def kernel_basis(m: Matrix) -> list[tuple]:
    """Basis of the right kernel, one vector per free column: the vectors of
    ``RowSpace.kernel`` of m's rows, densified."""
    return [dense(m.field, m.cols, v) for v in _row_space(m).kernel().values()]


def kernel_space(field: FieldSpec, ncols: int, rows: Iterable[dict[int, Scalar]],
                 rank: Optional[int] = None) -> RowSpace:
    """The right kernel of the matrix with these sparse rows, as a RowSpace.

    With the columns eliminated in reverse order, the kernel vector of a free
    column is 1 there and otherwise nonzero only at pivot columns after it,
    and every other kernel vector is 0 there: the vectors of ``kernel`` are
    already the kernel's reduced rows, and they are stored with no
    elimination.  Over QQ each is written in integers from the reversed
    space's integer rows R: the vector of free column f, scaled by the lcm
    L of the leads R[pivot] of the rows it meets, is L at f and
    -R[f] L / R[pivot] at each of their pivots, and it is stored in its
    primitive form.  A caller that knows the rank of the matrix passes
    it: once the rows read reach it they span the whole row space, and the
    rest are not read.
    """
    rev = RowSpace(field, ncols)
    for row in rows:
        if rev.rank == rank:
            break
        rev.add({ncols - 1 - c: v for c, v in row.items()})
    p, last = field.characteristic, ncols - 1
    meets: dict[int, list] = {f: [] for f in range(ncols) if f not in rev._rows}
    for pc, row in rev.span_rows():
        lead = row[pc]
        for c, x in row.items():
            if c != pc:
                meets[c].append((last - pc, lead, x))
    out = RowSpace(field, ncols)
    for f, met in meets.items():
        scale = math.lcm(*[lead for _, lead, _ in met])  # 1 over GF(p)
        v = {last - f: scale}
        for c, lead, x in met:
            v[c] = -x % p if p else -x * (scale // lead)
        out._rows[last - f] = _primitive(v, last - f, p)
    return out


def det(m: Matrix) -> Scalar:
    """Determinant as the signed product of the rows' leading coefficients.

    Each row is reduced against the span of the rows before it, which leaves
    the determinant unchanged; the remainders are then triangular up to the
    permutation sending row order to pivot column.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    F = m.field
    space = RowSpace(F, m.cols)
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


def solve(m: Matrix, b: Sequence[Scalar]) -> Optional[tuple]:
    """One solution of m @ x = b, or None when the system is inconsistent.

    Free coordinates are set to zero, so the returned solution is the
    deterministic rref particular solution.
    """
    if m.rows != len(b):
        raise ValueError("dimension mismatch in solve")
    F = m.field
    aug = Matrix(F, m.ncols + 1, tuple(r + (F.coerce(x),) for r, x in zip(m.entries, b)))
    red, pivots = rref(aug)
    ncols = m.cols
    if ncols in pivots:
        return None
    x = [F.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.entries[r][ncols]
    return tuple(x)


def invert(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    F = m.field
    n = m.rows
    ident = Matrix.identity(F, n)
    aug = Matrix(F, 2 * n, tuple(r + i for r, i in zip(m.entries, ident.entries)))
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(F, n, tuple(r[n:] for r in red.entries))


# ---------------------------------------------------------------------------
# Sparse incremental row spaces: the elimination engine
# ---------------------------------------------------------------------------


class RowSpace:
    """Incrementally reduced row space of sparse vectors.

    This is the toolkit's elimination for reduced rows, pivots and kernels;
    the dense functions above all reduce through it.  Ranks of the chains
    of powers, which need none of these, are counted by ``echelon_rank``.
    Rows are dicts {column index: scalar}.  The space is kept in reduced
    row echelon form: each stored row is nonzero at its pivot column (the
    smallest occupied column) and every other stored row is zero at that
    column.  Column 0 is the grevlex-largest monomial, so pivots are
    leading monomials and the non-pivot columns are the standard monomials.

    Rows are stored in the form and eliminated by the step of the module
    docstring: over GF(p) a stored row is the reduced row itself, over QQ
    the primitive integer row R whose reduced row is R / R[pivot].  The
    reduced row echelon form is unique, so this changes no value read.
    ``reduce`` carries one common denominator over QQ; ``add`` also clears
    the new pivot from the stored rows, putting each updated row back in
    stored form.  ``Fraction``s are made only where values are read: the
    results of ``reduce``, ``pivot_rows``, ``kernel``, ``rref_rows`` and
    ``dense_matrix``.  ``span_rows`` gives the stored rows as they are, for
    callers that need only their span, and ``unit_normal_form`` the
    normal form of a unit row as integers over one denominator, with no
    elimination (the product table makes its ``Fraction``s from it).

    Rows enter through ``add``, which eliminates, ``store_reduced``, for a
    row already known to be the reduced row at its pivot (over QQ also a
    positive multiple of it), or ``store_units``, for unit rows at columns
    no stored row has; besides these only ``kernel_space`` writes the stored
    rows, those of the kernel it builds.
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

    def span_rows(self):
        """(pivot column, row) pairs of the stored rows, in insertion order:
        over QQ the primitive integer rows, over GF(p) the reduced rows.

        The rows are the space's own, not copies: read them, do not modify
        them.
        """
        return self._rows.items()

    def pivot_rows(self) -> list[tuple[int, dict[int, Scalar]]]:
        """(pivot column, reduced row) pairs, in insertion order."""
        return [(pc, self._reduced(pc, row)) for pc, row in self._rows.items()]

    def _reduced(self, pc: int, row: dict[int, Scalar]) -> dict[int, Scalar]:
        """A copy of the reduced row of the stored row at pivot pc."""
        return _fractions(row, row[pc]) if not self.field.characteristic else dict(row)

    def _eliminate(self, row: dict[int, Scalar]) -> tuple[dict[int, int], int]:
        """(r, den) with r / den the normal form of row against the stored
        rows: over GF(p) residues and den = 1, over QQ nonzero integers."""
        p, rows = self.field.characteristic, self._rows
        out, den = (nonzero(row, p), 1) if p else _integral(row)
        # The stored rows vanish at each other's pivots, so eliminating at
        # one pivot column never reaches another: one pass suffices.
        for c in [c for c in out if c in rows]:
            out, a = _cross_reduce(out, c, rows[c], p)
            den *= a
        return out, den

    def reduce(self, row: dict[int, Scalar]) -> dict[int, Scalar]:
        """Normal form of a sparse row against the stored rows."""
        out, den = self._eliminate(row)
        return _fractions(out, den) if not self.field.characteristic else out

    def unit_normal_form(self, col: int) -> tuple[dict[int, int], int]:
        """(r, den) with r / den the normal form of the unit row e_col, read
        off the stored rows with no elimination: ({col: 1}, 1) at a column
        that is no pivot, and at the pivot of a stored row R the row
        -R[k] at every other column k of R over den = R[col] (over GF(p)
        -R[k] mod p over 1).  These are the values of ``reduce({col: 1})``,
        in its item order, before they are made field elements."""
        row = self._rows.get(col)
        if row is None:
            return {col: 1}, 1
        p = self.field.characteristic
        return {k: -v % p if p else -v for k, v in row.items() if k != col}, row[col]

    def add(self, row: dict[int, Scalar]) -> bool:
        """Insert a row; returns True when it enlarged the space.  The new
        pivot column is cleared from every stored row that has it."""
        rem, _ = self._eliminate(row)
        if not rem:
            return False
        p, rows = self.field.characteristic, self._rows
        pc = min(rem)
        rem = _primitive(rem, pc, p)
        for q, other in rows.items():
            if pc in other:
                other, _ = _cross_reduce(other, pc, rem, p)
                # rem is zero at q: other's lead is only scaled, by a > 0 (a = 1 over GF(p))
                rows[q] = other if other[q] == 1 else _primitive(other, q, p)
        rows[pc] = rem
        return True

    def store_reduced(self, pivot: int, row: dict[int, Scalar]) -> None:
        """Store a row that is already reduced against the space.

        The caller vouches that row is the reduced row at its pivot (over QQ
        also a positive multiple of it, integer or rational), zero at every
        stored pivot, and that every stored row is zero at this pivot, so
        nothing is eliminated; over QQ the row is stored in its primitive
        integer form.  Checked here is only what is cheap: the pivot is the
        row's smallest column, the row is 1 there (positive over QQ), and no
        stored row has it.
        """
        p, lead = self.field.characteristic, row.get(pivot, 0)
        if (lead != 1 if p else lead <= 0) or min(row) != pivot or pivot in self._rows:
            raise ValueError(f"row is not reduced at pivot {pivot}")
        # a copy, as ``add`` updates stored rows in place
        self._rows[pivot] = dict(row) if p else _primitive(_integral(row)[0], pivot, 0)

    def store_units(self, columns: Sequence[int]) -> None:
        """Store the unit row e_c at each column c, in the given order, as
        they are.  The caller vouches that no stored row has these columns
        (a monomial of the space is then the reduced row at its own column);
        checked here is only that none of them is already a pivot."""
        if not self._rows.keys().isdisjoint(columns):
            raise ValueError("a unit row's column is already a pivot")
        self._rows.update((c, {c: 1}) for c in columns)

    def kernel(self) -> dict[int, dict[int, Scalar]]:
        """The right kernel: for each free column f, in increasing f, the
        vector that is 1 at f, -row[f] at each stored row's pivot and 0
        elsewhere (row the reduced row), every other free column included.  A
        stored row is zero at the other pivots, so its entries off its pivot
        are at free columns."""
        p, one = self.field.characteristic, self.field.one()
        out = {f: {f: one} for f in range(self.ncols) if f not in self._rows}
        for pc, row in self._rows.items():
            lead = row[pc]
            for c, x in row.items():
                if c != pc:
                    out[c][pc] = -x % p if p else Fraction(-x, lead)
        return out

    def contains(self, row: dict[int, Scalar]) -> bool:
        return not self._eliminate(row)[0]

    def rref_rows(self) -> list[dict[int, Scalar]]:
        return [self._reduced(c, self._rows[c]) for c in sorted(self._rows)]

    def dense_matrix(self) -> Matrix:
        z = self.field.zero()
        rows = tuple(
            tuple(row.get(c, z) for c in range(self.ncols))
            for row in (self._reduced(p, self._rows[p]) for p in sorted(self._rows))
        )
        return Matrix(self.field, self.ncols, rows)


def _integral(row: dict[int, Scalar]) -> tuple[dict[int, int], int]:
    """(r, den) for a sparse row of rationals (Fractions or ints): den the
    lcm of their denominators and r = den * row, its zeros dropped."""
    out: dict[int, int] = {}
    den = 1
    for c, v in row.items():
        n, d = v.as_integer_ratio()
        if n:
            if d != 1:
                if den % d:
                    scale = d // math.gcd(den, d)
                    out = {k: scale * x for k, x in out.items()}
                    den *= scale
                n *= den // d
            elif den != 1:
                n *= den
            out[c] = n
    return out, den


def _fractions(row: dict[int, int], den: int) -> dict[int, Fraction]:
    """The integer row divided by den > 0, as Fractions."""
    if den == 1:
        return {c: Fraction(v) for c, v in row.items()}
    return {c: Fraction(v, den) for c, v in row.items()}


def _primitive(row: dict[int, int], lead: int, p: int) -> dict[int, int]:
    """The stored form of a nonzero row whose smallest column is lead: over
    GF(p) the row scaled to 1 at lead, over QQ (integer entries) the row
    divided by the gcd of its entries, signed so that lead is positive.  A
    row that is already in that form, 1 at lead in particular, is returned
    as it is, not copied."""
    a = row[lead]
    if a == 1:
        return row
    if p:
        inv = pow(a, -1, p)
        return {c: v * inv % p for c, v in row.items()}
    g = math.gcd(*row.values())
    if a < 0:
        g = -g
    return {c: v // g for c, v in row.items()} if g != 1 else row


def _cross_reduce(row: dict[int, int], c: int, src: dict[int, int], p: int) -> tuple[dict[int, int], int]:
    """(a*row - b*src, a), zero at column c, where a = src[c]/g, b = row[c]/g
    and g = gcd(src[c], row[c]); entries modulo p when p > 0, zeros dropped.

    This is the one reduction step.  A stored row over GF(p) is 1 at its
    pivot, so there a = 1 and the step is row - row[c]*src.  When a = 1 the
    row is updated in place and returned, otherwise a new row is; src is
    only read.  row[c] and the entries of src are nonzero, so an entry can
    only vanish where row has one.
    """
    a, b = src[c], row[c]
    if a != 1:
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            row = {k: a * v % p for k, v in row.items()} if p else {k: a * v for k, v in row.items()}
    get = row.get
    for k, v in src.items():
        nv = get(k, 0) - b * v
        if p:
            nv %= p
        if nv:
            row[k] = nv
        else:
            del row[k]
    return row, a
