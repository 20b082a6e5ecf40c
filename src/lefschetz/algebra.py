"""Graded artinian quotients of polynomial rings.

Everything is computed degreewise by exact row reduction: no Groebner bases.
A GradedAlgebra stores, for each degree up to the socle degree, the full
monomial basis, the reduced row space of the ideal piece, and the standard
monomials (non-pivot columns under descending grevlex).  Its products are read
from one product table: the normal forms of the monomials of degree at most
D, each reduced once, when first needed.  The pieces of a tensor product are
not reduced at all: ``tensor_pieces`` writes them from the factors' tables.
"""

from __future__ import annotations

import array
import functools
import itertools
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .exactmath import FieldSpec, Matrix, RowSpace, Scalar, apply_columns, dense, kernel_space, rows_of
from .polynomials import (
    DualPoly,
    Monomial,
    Poly,
    format_dual,
    format_poly,
    mono_degree,
    mono_mul,
    monomials,
    parse_dual,
    parse_element,
    parse_poly,
)


class NotArtinianError(ValueError):
    pass


class NotGorensteinError(ValueError):
    pass


@dataclass(frozen=True)
class Ring:
    """A polynomial ring context: variable names, weights and the field."""

    varnames: tuple
    field: FieldSpec
    weights: tuple = ()

    def __post_init__(self):
        names = tuple(str(v) for v in self.varnames)
        object.__setattr__(self, "varnames", names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if not name or not name[0].islower():
                raise ValueError(f"variable names must start lower-case: {name!r}")
        w = tuple(self.weights) if self.weights else tuple(1 for _ in names)
        if len(w) != len(names) or any(x < 1 for x in w):
            raise ValueError("weights must be positive, one per variable")
        object.__setattr__(self, "weights", w)

    @property
    def nvars(self) -> int:
        return len(self.varnames)

    def monomials(self, d: int) -> list[Monomial]:
        return monomials(self.nvars, d, weights=self.weights)

    def variable(self, i: int) -> Poly:
        return Poly.variable(self.nvars, self.field, i)

    def one(self) -> Poly:
        return Poly.constant(self.nvars, self.field, 1)

    def parse(self, text: str) -> Poly:
        return parse_poly(text, self.varnames, self.field)

    def parse_dual(self, text: str) -> DualPoly:
        return parse_dual(text, self.varnames, self.field)

    def parse_element(self, text: str) -> Union[Poly, DualPoly]:
        return parse_element(text, self.varnames, self.field)

    def format(self, p) -> str:
        if isinstance(p, DualPoly):
            return format_dual(p, self.varnames)
        return format_poly(p, self.varnames)

    def degree(self, p) -> int:
        return p.degree(self.weights)

    def is_homogeneous(self, p) -> bool:
        return p.is_homogeneous(self.weights)

    def extended(self, name: str, weight: int = 1) -> "Ring":
        return Ring(self.varnames + (name,), self.field, self.weights + (weight,))

    def joined(self, other: "Ring") -> tuple["Ring", list[str]]:
        """Disjoint union of variables; colliding names on the right get
        a numeric suffix.  Returns the new ring and the renamed right names."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        names = list(self.varnames)
        right = []
        for v in other.varnames:
            new = v
            k = 2
            while new in names or new in right:
                new = f"{v}_{k}"
                k += 1
            right.append(new)
        return (
            Ring(tuple(names + right), self.field, self.weights + other.weights),
            right,
        )


@dataclass(frozen=True)
class Ideal:
    ring: Ring
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if g.is_zero():
                raise ValueError("zero ideal generator")
            if not self.ring.is_homogeneous(g):
                raise ValueError(f"inhomogeneous generator: {self.ring.format(g)}")
            if self.ring.degree(g) < 1:
                raise ValueError("degree-0 generator would collapse the algebra")


@functools.lru_cache(maxsize=1024)
def _shift_table(nvars: int, weights: tuple, e: int, j: int) -> array.array:
    """Column of x_j * m among the degree-e monomials, for each monomial m of
    degree e - w_j in order (a compact array: the cache outlives algebras)."""
    idx = {m: i for i, m in enumerate(monomials(nvars, e, weights))}
    lower = monomials(nvars, e - weights[j], weights)
    return array.array("i", [idx[m[:j] + (m[j] + 1,) + m[j + 1 :]] for m in lower])


def store_units(space: RowSpace, columns) -> None:
    """Store the unit row e_c at each column c, eliminating nothing: a
    monomial in the space is the reduced row at its own column, whatever
    else the space holds, and every column is one when the space is full."""
    one = space.field.one()
    for c in columns:
        space.store_reduced(c, {c: one})


def add_shifted_rows(space: RowSpace, ring: Ring, e: int, piece, rows: Sequence[dict] = ()) -> None:
    """Span the empty degree-e space by ``rows`` and by x_j times every stored
    row of degree e - w_j; ``piece(d)`` returns the RowSpace of degree d.

    The leads of a space are its pivots, and grevlex is multiplicative, so
    x_j * c is a monomial of the degree-e space for every one-entry stored
    row c below.  Those monomials and the monomials among ``rows`` are
    stored first, as unit rows (``store_units``); when they are every
    column, as above the socle degree of a monomial complete intersection,
    nothing is eliminated.  Otherwise the other rows are added, and the
    shifts of the other stored rows, a shift equal to the row stored at its
    lead skipped unreduced, until the space is everything.
    """
    n = space.ncols
    lowers = [(_shift_table(ring.nvars, ring.weights, e, j), piece(e - w))
              for j, w in enumerate(ring.weights) if e >= w]
    units = {min(row) for row in rows if len(row) == 1}
    for shift, lower in lowers:
        for pc, row in lower.pivot_rows():
            if len(row) == 1:
                units.add(shift[pc])
    store_units(space, sorted(units))
    if space.rank == n:
        return
    add, stores = space.add, space.stores
    for row in rows:
        if len(row) > 1 and add(row) and space.rank == n:
            return
    for shift, lower in lowers:
        for pc, row in lower.pivot_rows():
            if len(row) > 1:
                shifted = {shift[c]: v for c, v in row.items()}
                if not stores(shifted, shift[pc]) and add(shifted) and space.rank == n:
                    return


class _IdealPieces:
    """Degreewise row spaces of a homogeneous ideal, built incrementally.

    The degree-e space is spanned by the generators of degree e and by the
    shifts x_j * r of the stored rows of lower degrees (``add_shifted_rows``).
    Each monomial of I_e that is a monomial generator or a shift of a
    one-entry row is stored as its own unit row, and only the other rows
    are eliminated, so a lead that only elimination reaches is still found.
    When the unit rows are every monomial, as above the socle degree of a
    monomial complete intersection, I_e is everything with no elimination.
    """

    def __init__(self, ring: Ring, generators: Sequence[Poly]):
        self.ring = ring
        self.generators = list(generators)
        self.monos: list[list[Monomial]] = []
        self.spaces: list[RowSpace] = []

    def extend_to(self, d: int) -> None:
        ring = self.ring
        while len(self.spaces) <= d:
            e = len(self.spaces)
            monos = ring.monomials(e)
            idx = {m: i for i, m in enumerate(monos)}
            space = RowSpace(ring.field, len(monos))
            gens = [{idx[m]: c for m, c in g.terms} for g in self.generators if ring.degree(g) == e]
            add_shifted_rows(space, ring, e, lambda d: self.spaces[d], gens)
            self.monos.append(monos)
            self.spaces.append(space)

    def h(self, d: int) -> int:
        self.extend_to(d)
        return len(self.monos[d]) - self.spaces[d].rank


def ideal_degree_piece(ideal: Ideal, d: int) -> Matrix:
    """Dense rref basis of the span of I in degree d."""
    pieces = _IdealPieces(ideal.ring, ideal.generators)
    pieces.extend_to(d)
    return pieces.spaces[d].dense_matrix()


def inverse_system(ideal: Ideal, d: int) -> list[DualPoly]:
    """Basis of the perp of I_d inside the degree-d dual, as divided forms."""
    pieces = _IdealPieces(ideal.ring, ideal.generators)
    pieces.extend_to(d)
    monos = pieces.monos[d]
    return [
        DualPoly.make(ideal.ring.nvars, ideal.ring.field, {monos[c]: x for c, x in v.items()})
        for v in pieces.spaces[d].kernel().values()
    ]


def tensor_pieces(A: GradedAlgebra, B: GradedAlgebra, ring: Ring) -> tuple[list, list]:
    """The monomials and ideal pieces of A (x) B in degrees 0 to D_A + D_B,
    on ``ring``: A's variables, then B's.

    The ideals live in disjoint variables, so (``constructions.tensor_product``)
    the standard monomials are the products s_A * s_B and the reduced row of
    any other monomial x^a * y^b is x^a * y^b - nf_A(x^a) * nf_B(y^b): 1 at
    its lead and otherwise supported on standard monomials, which come after
    it.  Each row is written from the factors' product tables and stored as
    it is; nothing is eliminated.
    """
    F, D = ring.field, A.socle_degree + B.socle_degree
    p, one = F.characteristic, F.one()
    (std_a, other_a), (std_b, other_b) = _normal_forms(A, D), _normal_forms(B, D)
    monos, spaces = [], []
    for d in range(D + 1):
        monos.append(ring.monomials(d))
        idx = {m: i for i, m in enumerate(monos[-1])}
        space = RowSpace(F, len(idx))
        for da in range(d + 1):
            db = d - da
            # each non-standard x^a with every y^b, each standard x^a with
            # each non-standard y^b
            pairs = itertools.chain(
                itertools.product(other_a[da], std_b[db] + other_b[db]),
                itertools.product(std_a[da], other_b[db]),
            )
            for (x, nx), (y, ny) in pairs:
                pc = idx[x + y]
                row = {pc: one}
                for s, a in nx:
                    for t, b in ny:
                        row[idx[s + t]] = -a * b % p if p else -a * b
                space.store_reduced(pc, row)
        spaces.append(space)
    return monos, spaces


def _normal_forms(alg: GradedAlgebra, top: int) -> tuple[list, list]:
    """Per degree e <= top, the standard monomials s of alg, each paired with
    its normal form ((s, 1),), and the other monomials, each paired with its
    normal form as (standard monomial, value) pairs read from the product
    table (none beyond the socle degree)."""
    one = alg.field.one()
    std: list[list] = []
    other: list[list] = []
    for e in range(top + 1):
        if e > alg.socle_degree:
            std.append([])
            other.append([(m, ()) for m in alg.ring.monomials(e)])
            continue
        basis, pos = alg._std[e], alg._std_col[e]
        std.append([(s, ((s, one),)) for s in basis])
        other.append([
            (m, tuple((basis[k], v) for k, v in alg._basis_product(e, c)))
            for c, m in enumerate(alg._monos[e]) if c not in pos
        ])
    return std, other


class GradedAlgebra:
    """An artinian graded quotient with explicit degreewise bases."""

    def __init__(
        self,
        ring: Ring,
        socle_degree: int,
        monos: list[list[Monomial]],
        spaces: list[RowSpace],
        generators: Optional[tuple] = None,
        dual_generator_poly: Optional[DualPoly] = None,
    ):
        self.ring = ring
        self.socle_degree = socle_degree
        self._monos = monos
        self._index = [{m: i for i, m in enumerate(ms)} for ms in monos]
        self._spaces = spaces
        self.generators = generators
        self._dual_generator = dual_generator_poly
        self._std: list[list[Monomial]] = []
        self._std_col: list[dict[int, int]] = []  # column of a standard monomial -> its index
        for d in range(socle_degree + 1):
            pivots = set(spaces[d].pivots())
            free = [c for c in range(len(monos[d])) if c not in pivots]
            self._std.append([monos[d][c] for c in free])
            self._std_col.append({c: k for k, c in enumerate(free)})
        self._mult_cache: dict = {}  # the product table, see ``_basis_product``
        self._one = ring.field.one()

    # -- basic data ----------------------------------------------------------

    @property
    def field(self) -> FieldSpec:
        return self.ring.field

    @property
    def nvars(self) -> int:
        return self.ring.nvars

    def dim(self, d: int) -> int:
        if d < 0 or d > self.socle_degree:
            return 0
        return len(self._std[d])

    def total_dim(self) -> int:
        return sum(self.dim(d) for d in range(self.socle_degree + 1))

    def hilbert_function(self) -> tuple:
        return tuple(self.dim(d) for d in range(self.socle_degree + 1))

    def basis(self, d: int) -> list[Monomial]:
        if d < 0 or d > self.socle_degree:
            return []
        return self._std[d]

    def ideal_space(self, d: int) -> RowSpace:
        """Row space of the ideal piece in degree d (full space beyond D)."""
        if d <= self.socle_degree:
            return self._spaces[d]
        full = RowSpace(self.field, len(self.ring.monomials(d)))
        store_units(full, range(full.ncols))
        return full

    def monomial_basis(self, d: int) -> list[Monomial]:
        if d <= self.socle_degree:
            return self._monos[d]
        return self.ring.monomials(d)

    # -- normal forms ----------------------------------------------------------

    def nf_poly(self, f: Poly) -> Poly:
        """Idempotent normal form supported on standard monomials: the
        coordinates of ``vector`` in each degree of f (none beyond D)."""
        acc: dict[Monomial, Scalar] = {}
        for d in {mono_degree(m, self.ring.weights) for m, _ in f.terms}:
            acc.update(zip(self.basis(d), self.vector(f, d)))
        return Poly.make(self.nvars, self.field, acc)

    def vector(self, f: Poly, d: int) -> tuple:
        """Coordinates of the degree-d component of f in the standard basis."""
        if d < 0 or d > self.socle_degree:
            return ()
        weights, idx, pos = self.ring.weights, self._index[d], self._std_col[d]
        rem = self._spaces[d].reduce({idx[m]: c for m, c in f.terms if mono_degree(m, weights) == d})
        out = [self.field.zero()] * self.dim(d)
        for col, c in rem.items():
            out[pos[col]] = c
        return tuple(out)

    def poly(self, d: int, vec: Sequence[Scalar]) -> Poly:
        return Poly.make(self.nvars, self.field, dict(zip(self._std[d], vec)))

    def one(self) -> tuple:
        return self.vector(self.ring.one(), 0)

    # -- multiplication --------------------------------------------------------
    #
    # One product table serves every product in the quotient: the normal
    # forms of the monomials of each degree up to D, memoised as they are
    # first read (``_basis_product``).  The variable maps X_j are its
    # entries, and every operator column is a sum of them.

    def multiply(self, d1: int, v1: Sequence[Scalar], d2: int, v2: Sequence[Scalar]) -> tuple:
        return product(self, d1, v1, d2, v2)

    def operator(self, w: int, v: tuple, i: int) -> list:
        """Multiplication by v in A_w from A_i: column k is the sum of
        v_s nf(s * m_k) over the standard monomials s of A_w, each normal form
        read from the product table, in plain arithmetic with one reduction
        mod p per entry."""
        p, e, table = self.field.characteristic, i + w, self._basis_product
        idx = self._index[e]
        terms = [(s, c) for s, c in zip(self._std[w], v) if c]
        coeffs = list(enumerate(c for _, c in terms))
        return [tuple(apply_columns([table(e, idx[mono_mul(s, m)]) for s, _ in terms], coeffs, p).items())
                for m in self._std[i]]

    def _basis_product(self, e: int, col: int) -> tuple:
        """The product table's entry for the degree-e monomial in column col:
        its normal form as (standard index, value) pairs, from one reduction
        and memoised, so the table is bounded by the monomials of degree at
        most D rather than by pairs of basis vectors."""
        got = self._mult_cache.get((e, col))
        if got is None:
            pos = self._std_col[e]
            rem = self._spaces[e].reduce({col: self._one})
            got = self._mult_cache[(e, col)] = tuple((pos[k], v) for k, v in rem.items())
        return got

    def _variable_generators(self) -> list[Generator]:
        """``algebra_generators`` of a quotient: the variables x_j of weight
        w_j <= D, where column k of X_j from A_i is the product-table entry of
        x_j * m_k itself, not a copy."""
        ring, D, table = self.ring, self.socle_degree, self._basis_product
        live = [(j, w) for j, w in enumerate(ring.weights) if w <= D]
        maps: dict[int, list] = {j: [] for j, _ in live}
        for e in range(D + 1):
            for j, w in live:
                if e < w:
                    continue
                shift = _shift_table(ring.nvars, ring.weights, e, j)
                # the columns of the standard monomials m_k of degree e - w, in order
                maps[j].append([table(e, shift[c]) for c in self._std_col[e - w]])
        return [
            Generator(ring.varnames[j], w, self.vector(ring.variable(j), w), maps[j])
            for j, w in live
        ]

    def multiplication_map(self, f: Poly, i: int) -> Matrix:
        """Matrix of multiplication by homogeneous f from degree i."""
        if not self.ring.is_homogeneous(f):
            raise ValueError("multiplication map needs a homogeneous element")
        w = self.ring.degree(f)
        if i < 0 or i + w > self.socle_degree:
            raise ValueError(
                f"degree out of range: map {i} -> {i + w} with socle degree {self.socle_degree}"
            )
        n, cols = self.dim(i + w), operator_matrix(self, w, self.vector(f, w), i)
        return Matrix.from_cols(self.field, [dense(self.field, n, dict(c)) for c in cols], nrows=n)

    # -- presentation-facing helpers -------------------------------------------

    def minimal_generators(self) -> list[Poly]:
        """Minimal homogeneous generators of the ideal, degree by degree."""
        ring = self.ring
        F = self.field
        maxw = max(ring.weights)
        out: list[Poly] = []
        for d in range(1, self.socle_degree + maxw + 1):
            monos = self.monomial_basis(d)
            span = RowSpace(F, len(monos))
            add_shifted_rows(span, ring, d, self.ideal_space)
            ideal = self.ideal_space(d)
            for row in ideal.rref_rows():
                if span.rank == ideal.rank:
                    break
                if span.add(row):
                    out.append(
                        Poly.make(self.nvars, F, {monos[c]: v for c, v in row.items()})
                    )
        return out

    def presentation_generators(self) -> list[Poly]:
        if self.generators is not None:
            return list(self.generators)
        return self.minimal_generators()

    # -- duality ----------------------------------------------------------------

    def dual_generator(self) -> DualPoly:
        """Macaulay dual generator spanning the perp of the top ideal piece."""
        if self._dual_generator is not None:
            return self._dual_generator
        D = self.socle_degree
        kern = list(self._spaces[D].kernel().values())
        if len(kern) != 1:
            raise NotGorensteinError(
                f"top ideal piece has perp of dimension {len(kern)}, not 1"
            )
        if not is_gorenstein(self):
            raise NotGorensteinError("socle is not one-dimensional")
        F = DualPoly.make(self.nvars, self.field, {self._monos[D][c]: x for c, x in kern[0].items()})
        # normalise so the pairing with the standard monomial of A_D is 1
        c = F.coefficient(self._std[D][0])
        F = F.scale(self.field.inv(c))
        self._dual_generator = F
        return F

    def __repr__(self) -> str:
        return (
            f"GradedAlgebra(vars={','.join(self.ring.varnames)}, field={self.ring.field}, "
            f"H={self.hilbert_function()})"
        )


def from_ideal(ideal: Ideal, max_degree: Optional[int] = None) -> GradedAlgebra:
    """Build the artinian quotient, certifying that the Hilbert function dies.

    Stops after max(weights) consecutive zero dimensions (which forces all
    later pieces to vanish); failing to see that by the cap is an error.
    """
    ring = ideal.ring
    gens = ideal.generators
    maxw = max(ring.weights)
    if max_degree is None:
        if len(gens) >= ring.nvars:
            max_degree = sum(ring.degree(g) - 1 for g in gens) + maxw
        else:
            raise ValueError(
                "fewer generators than variables: supply max_degree to bound the search"
            )
    pieces = _IdealPieces(ring, gens)
    h = [1]
    pieces.extend_to(0)
    if pieces.spaces[0].rank:
        raise ValueError("ideal contains a unit")
    zero_run = 0
    d = 0
    while zero_run < maxw:
        d += 1
        if d > max_degree:
            raise NotArtinianError(
                f"not artinian by degree {max_degree}: h has not vanished"
            )
        hd = pieces.h(d)
        h.append(hd)
        zero_run = zero_run + 1 if hd == 0 else 0
    D = len(h) - 1
    while h[D] == 0:
        D -= 1
    return GradedAlgebra(
        ring,
        D,
        [pieces.monos[d] for d in range(D + 1)],
        [pieces.spaces[d] for d in range(D + 1)],
        generators=gens,
    )


def from_dual_generator(F: DualPoly, ring: Ring) -> GradedAlgebra:
    """The apolar (Macaulay inverse-system) construction: the Gorenstein
    quotient by the annihilator of F.

    The ideal piece of degree d is the kernel of the degree-d catalecticant,
    whose row for a monomial t of degree D - d is the contraction t o F: a
    term c X^[m] puts c at row t, column m - t, for every divisor t of m.  One
    pass over F's terms builds the nonzero rows of every degree, and each
    kernel is read off one elimination in reduced form by ``kernel_space``.
    The degrees are built downwards: the rank of the degree-d catalecticant
    is h_{D-d}, so below D/2, where degree D - d is already built, its rows
    are read, densest first, only until they reach that rank.
    """
    if F.is_zero():
        raise ValueError("dual generator must be nonzero")
    if not F.is_homogeneous(ring.weights):
        raise ValueError("dual generator must be homogeneous")
    if F.nvars != ring.nvars:
        raise ValueError("variable-count mismatch")
    D = F.degree(ring.weights)
    monos = [ring.monomials(d) for d in range(D + 1)]
    idx = [{m: i for i, m in enumerate(ms)} for ms in monos]
    rows: list[dict] = [{} for _ in range(D + 1)]  # degree d -> {t: row of t o F}
    for m, c in F.terms:
        for t in itertools.product(*(range(e + 1) for e in m)):
            s = tuple(a - b for a, b in zip(m, t))
            d = mono_degree(s, ring.weights)
            rows[d].setdefault(t, {})[idx[d][s]] = c
    spaces: list = [None] * (D + 1)
    for d in range(D, -1, -1):
        if 2 * d < D:  # densest rows first: they are the least often redundant
            rank, feed = len(monos[D - d]) - spaces[D - d].rank, sorted(rows[d].values(), key=len, reverse=True)
        else:
            rank, feed = None, rows[d].values()
        spaces[d] = kernel_space(ring.field, len(monos[d]), feed, rank)
    return GradedAlgebra(ring, D, monos, spaces, dual_generator_poly=F)


# ---------------------------------------------------------------------------
# Generators, socle, orientations, Poincare pairing.  These functions serve
# every algebra model: they read dim/socle_degree/field, the generator maps of
# ``algebra_generators`` and the model's one multiplication path,
# ``operator(w, v, i)``, multiplication by v in A_w from A_i (through
# ``operator_matrix``): on a quotient a sum of product-table entries, on the
# other models read off their parts' operators.  A multiplication map is a
# list of sparse columns, one per basis vector of A_i, each a tuple of (row,
# value) pairs with nonzero values (reduced mod p over GF(p)); ``product``,
# every model's ``multiply``, applies one to a vector.
# ---------------------------------------------------------------------------


def hilbert_function(alg) -> tuple:
    return tuple(alg.dim(d) for d in range(alg.socle_degree + 1))


def hilbert_series_text(alg) -> str:
    parts = []
    for d, h in enumerate(hilbert_function(alg)):
        if h == 0:
            continue
        if d == 0:
            parts.append(str(h))
        elif d == 1:
            parts.append(f"{h}*t" if h != 1 else "t")
        else:
            parts.append(f"{h}*t^{d}" if h != 1 else f"t^{d}")
    return " + ".join(parts) if parts else "0"


def operator_matrix(alg, de: int, ve: Sequence[Scalar], i: int) -> list:
    """The columns of multiplication by a degree-de element from degree i: the
    model's ``operator``, or empty columns when one of the degrees is empty."""
    if alg.dim(de) and alg.dim(i) and alg.dim(i + de):
        return alg.operator(de, tuple(ve), i)
    return [()] * alg.dim(i)


def product(alg, d1: int, v1: Sequence[Scalar], d2: int, v2: Sequence[Scalar]) -> tuple:
    """v1 * v2 in A_(d1+d2) as a dense vector: the operator of v1 applied to v2."""
    image = apply_columns(operator_matrix(alg, d1, v1, d2), enumerate(v2), alg.field.characteristic)
    return dense(alg.field, alg.dim(d1 + d2), image)


@dataclass(frozen=True)
class Generator:
    """An algebra generator g of degree w: its label, its coordinates in A_w
    and ``maps[i]``, the columns of X_g : A_i -> A_{i+w} for 0 <= i <= D - w.
    On a quotient they are the product table's own entries: never modify them."""

    label: str
    degree: int
    vector: tuple
    maps: list


_GENERATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # algebra -> generators


def algebra_generators(alg) -> list[Generator]:
    """Generators of the maximal ideal with their maps, memoised per algebra.

    A quotient ``GradedAlgebra`` is generated by its variables of weight at
    most D, labelled by name; a variable in the ideal keeps its zero vector.
    Every other model takes, degree by degree, the basis vectors not spanned
    by products of earlier generators (labelled e{j} in degree one and
    e{j}_{d} in degree d), with maps from ``operator_matrix`` as they are
    found.
    """
    gens = _GENERATORS.get(alg)
    if gens is None:
        if isinstance(alg, GradedAlgebra):
            gens = alg._variable_generators()
        else:
            gens = _spanning_generators(alg)
        _GENERATORS[alg] = gens
    return gens


def _spanning_generators(alg) -> list[Generator]:
    F = alg.field
    gens: list[Generator] = []
    for d in range(1, alg.socle_degree + 1):
        nd = alg.dim(d)
        # the generators so far generate every lower degree, so their
        # products with the lower bases span all they reach in degree d
        span = RowSpace(F, nd)
        for g in gens:
            X = operator_matrix(alg, g.degree, g.vector, d - g.degree)
            g.maps.append(X)
            for col in X:
                if span.rank == nd:
                    break
                span.add(dict(col))
        for j, unit in enumerate(Matrix.identity(F, nd).entries):
            if span.rank < nd and span.add({j: F.one()}):
                label = f"e{j}" if d == 1 else f"e{j}_{d}"
                gens.append(Generator(label, d, unit, [[((j, F.one()),)]]))
    return gens


def socle_vectors(alg) -> list[tuple[int, tuple]]:
    """Basis of the annihilator of the maximal ideal, degree by degree: the
    common kernel on A_d of the generator maps X_g."""
    F, D = alg.field, alg.socle_degree
    gens = algebra_generators(alg)
    out = []
    for d in range(D + 1):
        nd = alg.dim(d)
        if nd == 0:
            continue
        space = RowSpace(F, nd)
        for row in (r for g in gens if d + g.degree <= D for r in rows_of(g.maps[d], alg.dim(d + g.degree)) if r):
            if space.rank == nd:  # the socle is 0 in this degree
                break
            space.add(row)
        out.extend((d, dense(F, nd, v)) for v in space.kernel().values())
    return out


def is_gorenstein(alg) -> bool:
    return len(socle_vectors(alg)) == 1


def is_level(alg) -> bool:
    return all(d == alg.socle_degree for d, _ in socle_vectors(alg))


@dataclass(frozen=True)
class Orientation:
    """A functional on the top degree, as coefficients over its basis."""

    socle_degree: int
    coeffs: tuple

    def apply(self, field: FieldSpec, vec: Sequence[Scalar]) -> Scalar:
        acc = field.zero()
        for c, v in zip(self.coeffs, vec):
            acc = field.add(acc, field.mul(c, v))
        return acc


def default_orientation(alg) -> Orientation:
    """Sends the leading standard basis vector of the top degree to 1."""
    D = alg.socle_degree
    n = alg.dim(D)
    F = alg.field
    return Orientation(D, tuple(F.one() if i == 0 else F.zero() for i in range(n)))


def orientation_from_socle_element(alg, d: int, vec: Sequence[Scalar]) -> Orientation:
    """The unique orientation with value 1 on the given top-degree element."""
    D = alg.socle_degree
    if d != D:
        raise ValueError("orientation element must live in the top degree")
    if alg.dim(D) != 1:
        raise NotGorensteinError("orientation from an element needs a 1-dimensional top degree")
    c = vec[0]
    if alg.field.is_zero(c):
        raise ValueError("orientation element must be nonzero")
    return Orientation(D, (alg.field.inv(c),))


def integral(alg, omega: Orientation, f_degree: int, vec: Sequence[Scalar]) -> Scalar:
    """Orientation applied to a homogeneous element (0 off the top degree)."""
    if f_degree != alg.socle_degree:
        return alg.field.zero()
    return omega.apply(alg.field, vec)


def pairing_matrix(alg, omega: Orientation, i: int) -> Matrix:
    """Poincare pairing A_i x A_{D-i} -> F against standard bases: row a is
    omega applied to the columns of multiplication by e_a."""
    F, D = alg.field, alg.socle_degree
    rows = []
    for ea in Matrix.identity(F, alg.dim(i)).entries:
        X = operator_matrix(alg, i, ea, D - i)
        rows.append(tuple(F.coerce(sum(omega.coeffs[r] * v for r, v in col)) for col in X))
    return Matrix(F, alg.dim(D - i), tuple(rows))


def same_degreewise_ideal(a: GradedAlgebra, b: GradedAlgebra) -> bool:
    """Equality of Hilbert functions and of every ideal row space."""
    if a.hilbert_function() != b.hilbert_function():
        return False
    if a.ring.varnames != b.ring.varnames or a.ring.weights != b.ring.weights:
        return False
    # the reduced row echelon form of a space is unique
    degrees = range(a.socle_degree + 1)
    return all(a.ideal_space(d).rref_rows() == b.ideal_space(d).rref_rows() for d in degrees)
