"""Exact scalar arithmetic over QQ and GF(p), plus exact linear algebra.

Scalars are plain Python objects: ``fractions.Fraction`` in characteristic 0
and canonical residues ``int`` in ``[0, p)`` over GF(p).  A ``FieldSpec``
carries the characteristic and supplies scalar arithmetic, so matrices and
polynomials stay lightweight.

``RowSpace`` is the engine for reduced row spaces.  ``rref``, ``rank``,
``kernel_basis``, ``solve``, ``invert`` and ``det`` on dense matrices, and
``kernel_space`` on sparse rows, are views of it: they feed the rows into a
fresh ``RowSpace`` and read the answer off its reduced rows and pivots.
Every kernel is read by one method, ``RowSpace.kernel``.

The one other elimination, ``echelon_rank``, only counts.  It ranks the
chains of powers of a linear form (``checks.PowerChains``), over ZZ or
GF(p), and keeps no reduced rows: it eliminates forward only, never divides
over ZZ, and stops at a rank known in advance.  The chains over QQ are
scaled to integers for it, so their ranks make no ``Fraction`` arithmetic,
while a ``RowSpace`` over QQ stores ``Fraction`` rows, because its callers
read them.

The hot kernels (``RowSpace.reduce``/``RowSpace.add``, ``echelon_rank`` and
``Matrix.mul``) rely on that representation instead of calling ``FieldSpec``
per scalar: over GF(p) they compute with plain ``int`` and take one ``% p``
per updated entry or per dot product, which brings every result back into
``[0, p)``; over QQ they add and multiply ``Fraction`` objects directly,
except ``echelon_rank``, which takes integers.  Entries handed to them must
therefore be field elements as ``FieldSpec.coerce`` returns them.  Polynomial
coefficients follow the same rule; it is written down in the
``polynomials`` module docstring.
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
    """The dot products of one row with each of cols, skipping the row's zeros
    (and over QQ the zeros of each column, whose products still cost a
    ``Fraction``)."""
    nz = [(j, x) for j, x in enumerate(row) if x]
    if not nz:
        z = field.zero()
        return tuple(z for _ in cols)
    p = field.characteristic
    if p:
        return tuple(sum([x * c[j] for j, x in nz]) % p for c in cols)
    return tuple(sum([x * c[j] for j, x in nz if c[j]], Fraction(0)) for c in cols)


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

    Forward elimination only: a vector is reduced at its smallest index by
    the stored row leading there until it leads at a new index or vanishes,
    and it is then stored; nothing is back-substituted, so the stored rows
    form an echelon form, not the reduced one of ``RowSpace``.  Modulo p a
    stored row is scaled to lead with 1, one inverse per row.  Over ZZ
    nothing is divided while reducing: the vector is cross-multiplied,
    v <- (a/g) v - (b/g) row for the leads b of v and a of the row with
    g = gcd(a, b), and a stored row is divided by the gcd of its entries,
    one gcd per row.  A rank over QQ is the rank of the vectors scaled to
    integers.
    """
    rows: dict[int, dict[int, int]] = {}  # leading index -> stored row
    for v in vectors if stop > 0 else ():
        while v and (lead := min(v)) in rows:
            row, a, b = rows[lead], 1, v[lead]
            if not p:
                g = math.gcd(row[lead], b)
                a, b = row[lead] // g, b // g
            acc = {c: a * x for c, x in v.items()} if a != 1 else dict(v)
            get = acc.get
            for c, x in row.items():
                acc[c] = get(c, 0) - b * x
            v = nonzero(acc, p)
        if v:
            if p:
                inv = pow(v[lead], -1, p)
                rows[lead] = {c: x * inv % p for c, x in v.items()}
            else:
                g = math.gcd(*v.values())
                rows[lead] = {c: x // g for c, x in v.items()}
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
    already the kernel's reduced rows, and they are stored as they are.  A
    caller that knows the rank of the matrix passes it: once the rows read
    reach it they span the whole row space, and the rest are not read.
    """
    rev = RowSpace(field, ncols)
    for row in rows:
        if rev.rank == rank:
            break
        rev.add({ncols - 1 - c: v for c, v in row.items()})
    out = RowSpace(field, ncols)
    for f, v in rev.kernel().items():
        out.store_reduced(ncols - 1 - f, {ncols - 1 - c: x for c, x in v.items()})
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
    row echelon form: each stored row has leading coefficient 1 at its
    pivot column (the smallest occupied column) and every other stored row
    is zero at that column.  Column 0 is
    the grevlex-largest monomial, so pivots are leading monomials and the
    non-pivot columns are the standard monomials.

    Rows enter through ``add``, which eliminates, or ``store_reduced``, for
    a row already known to be the reduced row at its pivot; nothing else
    writes the stored rows.

    ``_cols`` holds every column at which some stored row may be nonzero (a
    superset is fine).  A new pivot outside it occurs in no stored row, so
    ``add`` back-substitutes only when the pivot is in it.
    """

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self._rows: dict[int, dict[int, Scalar]] = {}  # pivot col -> row
        self._cols: set[int] = set()

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

    def stores(self, row: dict[int, Scalar], pivot: int) -> bool:
        """True when row is the stored row with this pivot (so it lies in the space)."""
        return self._rows.get(pivot) == row

    def reduce(self, row: dict[int, Scalar]) -> dict[int, Scalar]:
        """Normal form of a sparse row against the stored rows."""
        p = self.field.characteristic
        out = {c: v % p for c, v in row.items() if v % p} if p else {c: v for c, v in row.items() if v}
        # The stored rows vanish at each other's pivots, so eliminating at
        # one pivot column never reaches another: one pass suffices.
        for c in [c for c in out if c in self._rows]:
            _sub_multiple(out, out[c], self._rows[c], p)
        return out

    def add(self, row: dict[int, Scalar]) -> bool:
        """Insert a row; returns True when it enlarged the space.

        The stored rows are scanned for the new pivot column, to clear it
        from them, only when the column is in ``_cols``.
        """
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
        if pc in self._cols:
            for other in self._rows.values():
                if pc in other:
                    _sub_multiple(other, other[pc], norm, p)
        self._cols.update(norm)
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
        self._cols.update(row)
        self._rows[pivot] = row

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


def _sub_multiple(row: dict[int, Scalar], f: Scalar, src: dict[int, Scalar], p: int) -> None:
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
