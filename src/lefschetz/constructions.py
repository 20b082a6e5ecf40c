"""New algebras from old: tensor products, fiber products, connected sums
and cohomological blowups, with their Hilbert identities and Thom classes.

Fiber products and general connected sums live in an intrinsic pair model
(degreewise bases of a subalgebra of A + B) rather than by presentation;
the over-the-base-field presentations exist separately and are cross-checked
degreewise.  Blowup elements are stored as an A component plus one T
component per positive power of the exceptional class.  Every construction
over T takes only its maps pi : A -> T and reads A and T off them, so the
algebras cannot disagree with the maps; the two maps of a fiber product or
connected sum must share their target.

The pair, quotient-of-pair and blowup models are ``algebra.AlgebraModel``s:
each hands its Hilbert function to the base, which keeps the dimensions,
the unit and the generator hook.  Every model multiplies through one method,
``operator(w, v, i)``: the sparse columns of multiplication by v in degree w
from degree i, read off the parts' columns (``operator_matrix``).
``multiply`` applies them to a vector.  An
algebra map pi is held in the same format, one column per standard monomial,
with a section from one elimination per degree; fiber products, Thom classes
and blowups read both.  One recursion (``_monomial_images``) evaluates a map
on monomials, as x_j times the image of mono / x_j, in two arithmetics: T's
sparse columns to compute, T's polynomial ring for the Thom class's
dual-generator cross-check.  The Thom identity is checked against the
right-hand side that its solve read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import (
    _GORENSTEIN,
    AlgebraModel,
    GradedAlgebra,
    Ideal,
    NotGorensteinError,
    Orientation,
    Ring,
    algebra_generators,
    default_orientation,
    from_ideal,
    integral,
    is_gorenstein,
    operator_matrix,
    pairing_matrix,
    product,
    tensor_pieces,
)
from .checks import GenericityConfig, generic_report
from .exactmath import RowSpace, Scalar, apply_columns, dense, kernel_space, nonzero, rows_of, solve
from .polynomials import DualPoly, Poly, contract, dual_pairing


# ---------------------------------------------------------------------------
# Graded algebra maps
# ---------------------------------------------------------------------------


class AlgebraMap:
    """Degree-preserving algebra map determined by variable images.

    Each source monomial of degree at most D_T is mapped once, as x_j times
    the image of mono / x_j (``_monomial_images``).  The map is well defined
    when every stored row of the source ideal (``RowSpace.span_rows``) maps
    to zero; ``columns(d)`` holds the images of the standard monomials of
    A_d.  ``section(d)`` reduces the rows (pi row r | e_r) to (R | E),
    E pi = R in reduced echelon form: the pivot row at column c holds, at
    e_t, coordinate c of the rref solution of pi(a) = e_t, and pi is onto
    T_d when no pivot is an e column.
    """

    def __init__(self, source: GradedAlgebra, target: GradedAlgebra, images: Sequence[Poly]):
        if source.field != target.field:
            raise ValueError("field mismatch")
        if len(images) != source.nvars:
            raise ValueError("need one image per source variable")
        self.source = source
        self.target = target
        self.images = tuple(images)
        for name, w, img in zip(source.ring.varnames, source.ring.weights, self.images):
            if not img.is_zero() and (not target.ring.is_homogeneous(img) or target.ring.degree(img) != w):
                raise ValueError(f"image of {name} must be homogeneous of degree {w}")
        p, D = target.field.characteristic, target.socle_degree
        maps = [[operator_matrix(target, w, target.vector(img, w), i) for i in range(D - w + 1)]
                for img, w in zip(self.images, source.ring.weights)]
        images = _monomial_images(source.ring, D, nonzero(dict(enumerate(target.one())), p),
                                  lambda j, i, image: apply_columns(maps[j][i], image.items(), p))
        self._columns, self._sections = [], []  # per degree 0..D_T
        for d, image in enumerate(images):
            cols = [image[m].items() for m in source.monomial_basis(d)]
            if any(apply_columns(cols, row.items(), p) for _, row in source.ideal_space(d).span_rows()):
                raise ValueError("map is not well defined: an ideal element has nonzero image")
            self._columns.append([tuple(image[m].items()) for m in source.basis(d)])
            self._sections.append(self._section(d))
        self.surjective = None not in self._sections

    def _section(self, d: int) -> Optional[list]:
        """The columns of ``section(d)``, or None when pi is not onto T_d."""
        F, na, nt = self.source.field, self.source.dim(d), self.target.dim(d)
        space = RowSpace(F, na + nt)
        for r, row in enumerate(rows_of(self._columns[d], nt)):
            space.add({**row, na + r: F.one()})
        if max(space.pivots(), default=-1) >= na:
            return None
        rows = sorted(space.pivot_rows())
        return [tuple((pc, row[na + t]) for pc, row in rows if na + t in row) for t in range(nt)]

    def columns(self, d: int) -> list:
        """The map on degree-d pieces as sparse columns (empty beyond D_T)."""
        return self._columns[d] if 0 <= d < len(self._columns) else [()] * self.source.dim(d)

    def section(self, d: int) -> list:
        """A fixed section T_d -> A_d as sparse columns (free coordinates zero)."""
        sec = self._sections[d] if 0 <= d < len(self._sections) else []
        if sec is None:
            raise ValueError("projection is not surjective in degree %d" % d)
        return sec

    def apply(self, d: int, vec: Sequence[Scalar]) -> tuple:
        F, cols = self.target.field, self.columns(d)
        if len(vec) != len(cols):
            raise ValueError("dimension mismatch in map application")
        return dense(F, self.target.dim(d), apply_columns(cols, enumerate(vec), F.characteristic))


def _monomial_images(ring: Ring, top: int, one, step) -> list[dict]:
    """{monomial: image} per degree 0..top, in the order of ``ring.monomials``,
    of the algebra map from ring sending 1 to one: x_j times the image of
    mono / x_j, x_j the monomial's last variable, as step(j, i, image) with
    image that of a monomial of degree i.  The step fixes the arithmetic:
    sparse target columns, or polynomials in the target's ring."""
    images = [dict.fromkeys(ring.monomials(0), one)]
    for m in range(1, top + 1):
        images.append({})
        for mono in ring.monomials(m):
            j = max(k for k, e in enumerate(mono) if e)
            w, rest = ring.weights[j], mono[:j] + (mono[j] - 1,) + mono[j + 1 :]
            images[m][mono] = step(j, m - w, images[m - w][rest])
    return images


def algebra_map(source: GradedAlgebra, target: GradedAlgebra, images) -> AlgebraMap:
    imgs = [
        target.ring.parse(i) if isinstance(i, str) else i for i in images
    ]
    return AlgebraMap(source, target, imgs)


def identity_map(alg: GradedAlgebra) -> AlgebraMap:
    return AlgebraMap(alg, alg, [alg.ring.variable(j) for j in range(alg.nvars)])


# ---------------------------------------------------------------------------
# Thom classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThomClass:
    degree: int
    coords: tuple  # over the standard basis of A_{d-k}

    def poly(self, alg: GradedAlgebra) -> Poly:
        return alg.poly(self.degree, self.coords)


def thom_class(pi: AlgebraMap, omega_a: Orientation, omega_t: Orientation) -> ThomClass:
    """The unique class with integral(tau * a) = integral(pi(a)) for all a."""
    A, T = pi.source, pi.target
    d, k = A.socle_degree, T.socle_degree
    if d < k:
        raise ValueError("source socle degree must be at least the target's")
    if not pi.surjective:
        raise ValueError("Thom classes require a surjective map")
    n = d - k
    rhs = [integral(T, omega_t, k, dense(T.field, T.dim(k), dict(col))) for col in pi.columns(k)]
    sol = solve(pairing_matrix(A, omega_a, k), rhs)
    if sol is None:
        raise ValueError("orientations and map admit no Thom class (inconsistent system)")
    tau = ThomClass(n, sol)
    _check_thom_identity(pi, omega_a, tau, rhs)
    _check_thom_dual_characterisation(pi, omega_a, omega_t, tau)
    return tau


def _check_thom_identity(pi, omega_a, tau: ThomClass, rhs: Sequence[Scalar]) -> None:
    """integral(tau * e) = rhs[e], the integral of pi(e) that ``thom_class``
    solved against, on each basis vector e of A_k, k = D_T, with tau * e read
    off the operator of tau.  Both sides are 0 in every other degree, as
    integral is 0 off the top degree."""
    A, k = pi.source, pi.target.socle_degree
    top = tau.degree + k
    for col, want in zip(operator_matrix(A, tau.degree, tau.coords, k), rhs):
        if integral(A, omega_a, top, dense(A.field, A.dim(top), dict(col))) != want:
            raise AssertionError("Thom class fails its defining identity")


def _orientation_dual_generator(alg: GradedAlgebra, omega: Orientation) -> DualPoly:
    """The dual generator whose coefficient pairing realises the orientation."""
    base = alg.dual_generator()
    F = alg.field
    top = alg.basis(alg.socle_degree)[0]
    # scale so the pairing against the standard top monomial matches omega
    return base.scale(F.div(omega.coeffs[0], base.coefficient(top)))


def _check_thom_dual_characterisation(pi, omega_a, omega_t, tau: ThomClass) -> None:
    """tau . F_A equals the pullback of F_T along the variable images.  The
    image of each monomial of degree D_T is built in T's polynomial ring, as
    pi(x_j) times the image of mono / x_j (``_monomial_images``), with no
    normal form and no column of the map, and paired with F_T."""
    A, T = pi.source, pi.target
    try:
        FA = _orientation_dual_generator(A, omega_a)
        FT = _orientation_dual_generator(T, omega_t)
    except NotGorensteinError:
        return
    images = _monomial_images(A.ring, T.socle_degree, T.ring.one(), lambda j, i, image: pi.images[j] * image)
    rhs = DualPoly.make(A.nvars, A.field, {m: dual_pairing(image, FT) for m, image in images[-1].items()})
    if contract(tau.poly(A), FA) != rhs:
        raise AssertionError("Thom class fails the dual-generator characterisation")


# ---------------------------------------------------------------------------
# Pair model: fiber products and connected sums
# ---------------------------------------------------------------------------


class PairAlgebra(AlgebraModel):
    """Subalgebra of A + B with explicit degreewise bases.

    Basis vectors are the sparse ``RowSpace.kernel`` vectors in A_d + B_d
    (B's columns after A's), each 1 at its own free column and 0 at the
    others.  Multiplication by v = (a, b) pushes each basis vector through
    op_A(a) + op_B(b) and reads the coordinates at the free columns, with
    membership verified (``coords``).
    """

    def __init__(self, A, B, bases: list[list[dict]], free_cols: list[list[int]]):
        super().__init__(A.field, [len(basis) for basis in bases])
        self.A = A
        self.B = B
        self._basis = bases
        self._free = free_cols

    def ambient(self, d: int, vec) -> dict:
        """The sparse ambient vector with these (basis index, coordinate) pairs."""
        return apply_columns([u.items() for u in self._basis[d]], vec, self.field.characteristic)

    def coords(self, d: int, ambient: dict) -> tuple:
        """A sparse ambient vector's coordinates as (basis index, value) pairs:
        its entries at the free columns, checked to recombine to it."""
        got = tuple((k, ambient[c]) for k, c in enumerate(self._free[d]) if c in ambient)
        if self.ambient(d, got) != ambient:
            raise ValueError("ambient vector is not in the pair subalgebra")
        return got

    def operator(self, w: int, v: tuple, i: int) -> list:
        F, na = self.field, self.A.dim(w)
        amb = self.ambient(w, enumerate(v))
        a, b = dense(F, na, amb), dense(F, self.B.dim(w), {c - na: x for c, x in amb.items() if c >= na})
        off = self.A.dim(i + w)  # B's rows come after A_(i+w)'s
        op_b = [tuple((off + r, x) for r, x in col) for col in operator_matrix(self.B, w, b, i)]
        both = operator_matrix(self.A, w, a, i) + op_b
        return [self.coords(i + w, apply_columns(both, u.items(), F.characteristic)) for u in self._basis[i]]

    def multiply(self, d1: int, v1: Sequence[Scalar], d2: int, v2: Sequence[Scalar]) -> tuple:
        return product(self, d1, v1, d2, v2)


def fiber_product(pi_a: AlgebraMap, pi_b: AlgebraMap) -> PairAlgebra:
    """Pairs with equal images in T, for pi_a : A -> T and pi_b : B -> T;
    Hilbert function H_A + H_B - H_T."""
    if pi_a.target is not pi_b.target:
        raise ValueError("maps must land in the common quotient")
    if not (pi_a.surjective and pi_b.surjective):
        raise ValueError("fiber products need surjective projections")
    A, B, T = pi_a.source, pi_b.source, pi_a.target
    F = A.field
    D = max(A.socle_degree, B.socle_degree)
    bases: list[list[tuple]] = []
    free_cols: list[list[int]] = []
    for d in range(D + 1):
        # the kernel of (pi_a, -pi_b), its basis vectors indexed by the free columns
        na, n = A.dim(d), A.dim(d) + B.dim(d)
        space = RowSpace(F, n)
        for row, rb in zip(rows_of(pi_a.columns(d), T.dim(d)), rows_of(pi_b.columns(d), T.dim(d))):
            row.update((na + c, -x) for c, x in rb.items())
            space.add(row)
        kernel = space.kernel()
        bases.append(list(kernel.values()))
        free_cols.append(list(kernel))
    fp = PairAlgebra(A, B, bases, free_cols)
    expect = [
        A.dim(d) + B.dim(d) - T.dim(d) for d in range(D + 1)
    ]
    if [fp.dim(d) for d in range(D + 1)] != expect:
        raise AssertionError("fiber product violates its Hilbert identity")
    return fp


class QuotientAlgebra(AlgebraModel):
    """Quotient of an algebra model by degreewise relation row spaces.

    The free (non-pivot) columns of each degree are the basis; multiplication
    by v (lifted to the base by zeros at the pivots) reads the base operator
    at each free column, reduces that column by the relations and reads its
    coordinates at the free columns.
    """

    def __init__(self, base, relations: list[RowSpace]):
        self.base = base
        self._rel = relations
        self._free: list[list[int]] = []
        for d in range(base.socle_degree + 1):
            pivots = set(relations[d].pivots())
            self._free.append([c for c in range(base.dim(d)) if c not in pivots])
        super().__init__(base.field, [len(free) for free in self._free])

    def operator(self, w: int, v: tuple, i: int) -> list:
        X = operator_matrix(self.base, w, dense(self.field, self.base.dim(w), dict(zip(self._free[w], v))), i)
        rel, free = self._rel[i + w], self._free[i + w]
        reduced = (rel.reduce(dict(X[c])) for c in self._free[i])
        return [tuple((k, red[f]) for k, f in enumerate(free) if f in red) for red in reduced]

    def multiply(self, d1: int, v1: Sequence[Scalar], d2: int, v2: Sequence[Scalar]) -> tuple:
        return product(self, d1, v1, d2, v2)


def _summands(A, B, omega_a: Optional[Orientation], omega_b: Optional[Orientation]) -> tuple:
    """The summands' orientations, defaults filled in, and their socle degree
    d; raises unless both are Gorenstein (``is_gorenstein``, memoised) and of
    one socle degree."""
    if not (is_gorenstein(A) and is_gorenstein(B)):
        raise NotGorensteinError("summands must be Gorenstein")
    if B.socle_degree != A.socle_degree:
        raise ValueError("connected sums need equal socle degrees")
    return omega_a or default_orientation(A), omega_b or default_orientation(B), A.socle_degree


def connected_sum(
    pi_a: AlgebraMap,
    pi_b: AlgebraMap,
    omega_a: Optional[Orientation] = None,
    omega_b: Optional[Orientation] = None,
    omega_t: Optional[Orientation] = None,
) -> QuotientAlgebra:
    """Quotient of the fiber product of pi_a : A -> T and pi_b : B -> T by
    the pair of Thom classes."""
    if pi_a.target is not pi_b.target:
        raise ValueError("maps must land in the common quotient")
    A, B, T = pi_a.source, pi_b.source, pi_a.target
    omega_a, omega_b, d = _summands(A, B, omega_a, omega_b)
    omega_t = omega_t or default_orientation(T)
    k = T.socle_degree
    n = d - k
    if n < 1:
        raise ValueError("the common quotient must have strictly smaller socle degree")
    tau_a = thom_class(pi_a, omega_a, omega_t)
    tau_b = thom_class(pi_b, omega_b, omega_t)
    if pi_a.apply(n, tau_a.coords) != pi_b.apply(n, tau_b.coords):
        raise ValueError("Thom classes are incompatible: their images in T differ")
    fp = fiber_product(pi_a, pi_b)
    F = A.field
    pair = {c: x for c, x in enumerate(tuple(tau_a.coords) + tuple(tau_b.coords)) if x}
    t_pair = dense(F, fp.dim(n), dict(fp.coords(n, pair)))
    relations = []
    for i in range(fp.socle_degree + 1):
        rel = RowSpace(F, fp.dim(i))
        if i >= n:
            for col in operator_matrix(fp, n, t_pair, i - n):
                rel.add(dict(col))
        relations.append(rel)
    cs = QuotientAlgebra(fp, relations)
    hf = [cs.dim(i) for i in range(d + 1)]
    expect = [
        A.dim(i) + B.dim(i) - T.dim(i) - (T.dim(i - n) if i >= n else 0)
        for i in range(d + 1)
    ]
    if hf != expect:
        raise AssertionError("connected sum violates its Hilbert identity")
    return cs


def _joined_generators(A: GradedAlgebra, B: GradedAlgebra) -> tuple[Ring, list[Poly], list[Poly]]:
    """The ring on the disjoint union of the variables of A and B, and the
    generators of both presentation ideals moved into it."""
    ring, _ = A.ring.joined(B.ring)
    n = ring.nvars
    return (
        ring,
        [g.embedded(n) for g in A.presentation_generators()],
        [g.embedded(n, A.nvars) for g in B.presentation_generators()],
    )


def connected_sum_over_field(
    A: GradedAlgebra,
    B: GradedAlgebra,
    omega_a: Optional[Orientation] = None,
    omega_b: Optional[Orientation] = None,
) -> GradedAlgebra:
    """Presentation form over the base field: kill cross products, glue socles.

    A connected sum over the field of Gorenstein summands of socle degree
    d >= 1 is Gorenstein (Ananthnarayan, Avramov, Moore, *Connected sums of
    Gorenstein local rings*, J. reine angew. Math. 667, 2012), and that is
    recorded for ``is_gorenstein``; for d = 0 the socle decides.
    """
    omega_a, omega_b, d = _summands(A, B, omega_a, omega_b)
    ring, gens_a, gens_b = _joined_generators(A, B)
    n, na = ring.nvars, A.nvars
    gens = gens_a + gens_b
    for i in range(na):
        for j in range(B.nvars):
            gens.append(ring.variable(i) * ring.variable(na + j))
    Fld = ring.field
    tau_a = A.poly(d, (Fld.inv(omega_a.coeffs[0]),))
    tau_b = B.poly(d, (Fld.inv(omega_b.coeffs[0]),))
    gens.append(tau_a.embedded(n) + tau_b.embedded(n, na))
    out = from_ideal(Ideal(ring, tuple(gens)), max_degree=d + max(ring.weights))
    if d >= 1:
        _GORENSTEIN[out] = True
    return out


def tensor_product(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """Quotient by both ideals on the disjoint union of the variables, built
    from the factors' normal forms with no elimination.

    The ideals I_A and I_B live in disjoint variables, and weighted grevlex on
    the joined ring (A's variables first) restricts to each factor's order.
    So the leading terms of their Groebner bases G_A and G_B are coprime, and
    G_A + G_B is a Groebner basis of I_A + I_B by Buchberger's first criterion
    (Cox, Little, O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2 sec. 9).
    The standard monomials are therefore the products s_A * s_B, the socle
    degree is D_A + D_B, and nf(x^a * y^b) = nf_A(x^a) * nf_B(y^b), which is
    what ``tensor_pieces`` writes down.  The Hilbert function is checked
    against the convolution h_A * h_B.  The socle of A (x) B is
    socle(A) (x) socle(B), so the product is Gorenstein exactly when both
    factors are: that is recorded for ``is_gorenstein`` as the proof to run
    when the answer is asked, so no factor's socle is computed before then.
    """
    ring, gens_a, gens_b = _joined_generators(A, B)
    out = GradedAlgebra(ring, tensor_pieces(A, B, ring), generators=tuple(gens_a + gens_b))
    ha, hb = A.hilbert_function(), B.hilbert_function()
    conv = [
        sum(ha[i] * hb[k - i] for i in range(max(0, k - len(hb) + 1), min(k, len(ha) - 1) + 1))
        for k in range(len(ha) + len(hb) - 1)
    ]
    if list(out.hilbert_function()) != conv:
        raise AssertionError("tensor product violates the convolution identity")
    _GORENSTEIN[out] = lambda: is_gorenstein(A) and is_gorenstein(B)
    return out


# ---------------------------------------------------------------------------
# Cohomological blowups
# ---------------------------------------------------------------------------


class BlowupAlgebra(AlgebraModel):
    """The cohomological blowup A~ = A[xi]/(xi * ker pi, f_A(xi)) of A along
    pi : A -> T, with f_A(xi) = xi^n + a_1 xi^(n-1) + ... + a_(n-1) xi + lambda tau
    and tau the Thom class.

    Since xi * ker pi = 0, an element of degree d is a + sum_(0<j<n) xi^j t_j
    with a in A_d and t_j in T_(d-j), stored in the layout
    [A_d | T_(d-1) | ... | T_(d-n+1)].  Multiplication by such a v of degree w
    is sum_(j<n) Xi^j D(l_j), where l_0 = a, l_j = lift(t_j) through a fixed
    section of pi, D(x) = diag(op_A(x), op_T(pi x), ..., op_T(pi x)) is
    multiplication by x in A, and Xi : A~_k -> A~_(k+1) is multiplication by
    xi: pi from A_k into slot 1, the identity from slot j to slot j + 1, and
    from the last slot s the relation xi^n = -sum a_i xi^(n-i) - lambda tau,
    that is -pi(a_i) s into slot n - i and -lambda tau lift(s) into A, all as
    sparse columns.  For n = 1 the operator is op_A(a).
    """

    def __init__(self, pi: AlgebraMap, coefficients, lam: Scalar, tau: ThomClass):
        A, T = pi.source, pi.target
        self.A = A
        self.T = T
        self.pi = pi
        self.n = A.socle_degree - T.socle_degree
        self.lam = lam
        self.tau = tau
        self.t_coeffs = coefficients  # index i-1 -> coords of pi(a_i) in T_i
        self.tau_t = pi.apply(self.n, tau.coords)
        self._xis: dict[int, list] = {}
        super().__init__(A.field, [sum(self._sizes(d)) for d in range(A.socle_degree + 1)])

    def _sizes(self, d: int) -> list[int]:
        """Block sizes of the layout [A_d | T_(d-1) | ... | T_(d-n+1)]."""
        return [self.A.dim(d)] + [self.T.dim(d - j) for j in range(1, self.n)]

    def _offsets(self, d: int) -> list[int]:
        """The first row of each slot of the layout in degree d."""
        return list(itertools.accumulate(self._sizes(d)[:-1], initial=0))

    def split(self, d: int, vec: Sequence[Scalar]) -> tuple[tuple, list[tuple]]:
        off = self._offsets(d) + [len(vec)]
        parts = [tuple(vec[start:end]) for start, end in zip(off, off[1:])]
        return parts[0], parts[1:]

    def lift(self, m: int, t_vec: Sequence[Scalar]) -> tuple:
        """t_vec in T_m lifted to A_m through the fixed section of pi."""
        lifted = apply_columns(self.pi.section(m), enumerate(t_vec), self.field.characteristic)
        return dense(self.field, self.A.dim(m), lifted)

    def _diag(self, m: int, x: tuple, i: int) -> list:
        """D(x): multiplication by x in A_m from A~_i, slot by slot."""
        tx = self.pi.apply(m, x)
        ops = [operator_matrix(self.A, m, x, i)]
        ops += [operator_matrix(self.T, m, tx, i - j) for j in range(1, self.n)]
        return [tuple((off + r, y) for r, y in col) for op, off in zip(ops, self._offsets(i + m)) for col in op]

    def _xi(self, k: int) -> list:
        """Xi : A~_k -> A~_(k+1), multiplication by xi (n >= 2)."""
        if k not in self._xis:
            F, T, n, s = self.field, self.T, self.n, k - self.n + 1
            off, one = self._offsets(k + 1), F.one()
            cols = [tuple((off[1] + r, x) for r, x in col) for col in self.pi.columns(k)]
            cols += [((off[j + 1] + r, one),) for j in range(1, n - 1) for r in range(T.dim(k - j))]
            # the last slot, through xi^n = -sum a_i xi^(n-i) - lambda tau
            into_a = operator_matrix(self.A, n, tuple(F.mul(F.neg(self.lam), x) for x in self.tau.coords), s)
            into_t = [(off[n - i], operator_matrix(T, i, tuple(F.neg(x) for x in t_i), s))
                      for i, t_i in self.t_coeffs if t_i is not None]
            for c, lifted in enumerate(self.pi.section(s)):
                col = tuple(apply_columns(into_a, lifted, F.characteristic).items())
                cols.append(col + tuple((o + r, x) for o, op in into_t for r, x in op[c]))
            self._xis[k] = cols
        return self._xis[k]

    def operator(self, w: int, v: tuple, i: int) -> list:
        a, slots = self.split(w, v)
        lifts = [a] + [self.lift(w - j, t) for j, t in enumerate(slots, start=1)]
        p, out = self.field.characteristic, [{} for _ in range(self.dim(i))]
        # Horner, sum_j Xi^j D(l_j) = D(l_0) + Xi (D(l_1) + Xi (D(l_2) + ...)),
        # skipping the products with zero and the terms of zero l_j
        for j in reversed(range(self.n)):
            if any(out):
                xi = self._xi(i + w - j - 1)
                out = [apply_columns(xi, col.items(), p) for col in out]
            if any(lifts[j]):
                for acc, col in zip(out, self._diag(w - j, lifts[j], i)):
                    for r, x in col:
                        acc[r] = acc.get(r, 0) + x
                out = [nonzero(acc, p) for acc in out]
        return [tuple(col.items()) for col in out]

    def multiply(self, d1: int, v1: Sequence[Scalar], d2: int, v2: Sequence[Scalar]) -> tuple:
        return product(self, d1, v1, d2, v2)

    def embed_a(self, d: int, vec: Sequence[Scalar]) -> tuple:
        return tuple(vec) + (self.field.zero(),) * (self.dim(d) - self.A.dim(d))


def blowup(
    pi: AlgebraMap,
    coefficients: Sequence[Poly],
    lam,
    omega_a: Optional[Orientation] = None,
    omega_t: Optional[Orientation] = None,
) -> BlowupAlgebra:
    """Cohomological blowup of A along a surjection pi : A -> T.

    coefficients are the middle terms a_1..a_{n-1} of the monic relation
    (homogeneous of degrees 1..n-1 in A); the constant term is lam * tau
    with tau the Thom class, and lam must be a unit.
    """
    A, T = pi.source, pi.target
    omega_a = omega_a or default_orientation(A)
    omega_t = omega_t or default_orientation(T)
    d, k = A.socle_degree, T.socle_degree
    n = d - k
    if n < 1:
        raise ValueError("blowup needs socle degree of A strictly larger than T")
    lam = A.field.coerce(lam)
    if A.field.is_zero(lam):
        raise ValueError("lambda must be nonzero, otherwise the blowup is not Gorenstein")
    if not pi.surjective:
        raise ValueError("blowup needs a surjective projection")
    if len(coefficients) != max(0, n - 1):
        raise ValueError(f"need {n - 1} middle coefficients a_1..a_{n - 1}")
    for i, a_i in enumerate(coefficients, start=1):
        if not a_i.is_zero() and (not A.ring.is_homogeneous(a_i) or A.ring.degree(a_i) != i):
            raise ValueError(f"coefficient a_{i} must be homogeneous of degree {i}")
    coeffs = [(i, pi.apply(i, A.vector(a_i, i)) if T.dim(i) and not a_i.is_zero() else None)
              for i, a_i in enumerate(coefficients, start=1)]
    tau = thom_class(pi, omega_a, omega_t)
    bug = BlowupAlgebra(pi, coeffs, lam, tau)
    if not is_gorenstein(bug):
        raise AssertionError("blowup is not Gorenstein despite a unit lambda")
    return bug


XI_NAME = "xi"  # the new degree-one variable of ``exceptional_divisor``


def exceptional_divisor(bug: BlowupAlgebra) -> GradedAlgebra:
    """The boundary algebra T[xi]/(f_T) of a blowup along pi : A -> T, as an
    honest presentation: f_T is the blowup's relation with pi applied to its
    coefficients."""
    T, n = bug.T, bug.n
    ring = T.ring.extended(XI_NAME)
    nv = ring.nvars
    F = ring.field
    xi = ring.variable(nv - 1)
    f_t = xi**n
    for i, tvec in bug.t_coeffs:
        if tvec is None:
            continue
        f_t = f_t + T.poly(i, tvec).embedded(nv) * xi ** (n - i)
    if T.dim(n) and any(not F.is_zero(x) for x in bug.tau_t):
        f_t = f_t + T.poly(n, bug.tau_t).embedded(nv).scale(bug.lam)
    gens = [g.embedded(nv) for g in T.presentation_generators()]
    gens.append(f_t)
    cap = T.socle_degree + n + max(ring.weights)
    return from_ideal(Ideal(ring, tuple(gens)), max_degree=cap)


def blowup_square_commutes(bug: BlowupAlgebra, t_tilde: GradedAlgebra) -> bool:
    """Check pi-hat(beta(x)) = beta_0(pi(x)) on the variables of A."""
    A, T = bug.A, bug.T
    nv = t_tilde.nvars
    xi = t_tilde.ring.variable(nv - 1)

    def pihat(d: int, vec) -> Poly:
        a_part, slots = bug.split(d, vec)
        out = Poly.zero(nv, T.field)
        if T.dim(d):
            out = out + T.poly(d, bug.pi.apply(d, a_part)).embedded(nv)
        for j in range(1, bug.n):
            if T.dim(d - j) and slots[j - 1]:
                out = out + T.poly(d - j, slots[j - 1]).embedded(nv) * xi**j
        return out

    weights = A.ring.weights
    betas = [bug.embed_a(w, A.vector(A.ring.variable(j), w)) for j, w in enumerate(weights)]
    # I_T lies in the ideal of T~, so the unreduced pi(x_j) has the same normal form
    for j, w in enumerate(weights):
        if t_tilde.nf_poly(pihat(w, betas[j])) != t_tilde.nf_poly(bug.pi.images[j].embedded(nv)):
            return False
    # multiplicativity spot check: products of variable images agree, with
    # one operator of the first factor per weight of the second
    for v1, w1 in zip(betas, weights):
        ops = {w2: operator_matrix(bug, w1, v1, w2) for w2 in set(weights) if w1 + w2 <= bug.socle_degree}
        for v2, w2 in zip(betas, weights):
            if w2 in ops:
                prod = apply_columns(ops[w2], enumerate(v2), bug.field.characteristic)
                lhs = t_tilde.nf_poly(pihat(w1 + w2, dense(bug.field, bug.dim(w1 + w2), prod)))
                if lhs != t_tilde.nf_poly(pihat(w1, v1) * pihat(w2, v2)):
                    return False
    return True


# ---------------------------------------------------------------------------
# Presentation extraction (for reporting pair and blowup models)
# ---------------------------------------------------------------------------


class PresentationSizeError(ValueError):
    """The model has more generators than a presentation is built for."""


# ``presentation_of`` names its generators PRESENTATION_PREFIX1, 2, ... and
# refuses a model with more than MAX_PRESENTATION_GENERATORS of them.
PRESENTATION_PREFIX = "z"
MAX_PRESENTATION_GENERATORS = 8


def presentation_of(alg):
    """Generators-and-relations description of an algebra model.

    The generators are ``algebra_generators(alg)``; the relations are the
    minimal generators of the kernel of the map from monomials in them to
    alg, whose images are built degree by degree with the generator maps.
    Returns (ring, relation polynomials, generator data) where generator
    data lists (degree, coordinate vector) per generator.
    """
    F = alg.field
    D = alg.socle_degree
    gens = algebra_generators(alg)
    if len(gens) > MAX_PRESENTATION_GENERATORS:
        raise PresentationSizeError("too many generators for a presentation")
    ring = Ring(
        tuple(f"{PRESENTATION_PREFIX}{i + 1}" for i in range(len(gens))),
        F,
        tuple(g.degree for g in gens),
    )
    # the kernel of the monomials' images in each degree is the ideal of relations
    p = F.characteristic
    images = _monomial_images(ring, D, nonzero(dict(enumerate(alg.one())), p),
                              lambda j, i, image: apply_columns(gens[j].maps[i], image.items(), p))
    kernels = [kernel_space(F, len(image), rows_of([v.items() for v in image.values()], alg.dim(m)))
               for m, image in enumerate(images)]
    generator_data = [(g.degree, g.vector) for g in gens]
    return ring, GradedAlgebra(ring, kernels).minimal_generators(), generator_data


def presented_algebra(alg) -> GradedAlgebra:
    """Rebuild an algebra model as a quotient presentation and verify it."""
    ring, relations, _ = presentation_of(alg)
    out = from_ideal(
        Ideal(ring, tuple(relations)),
        max_degree=alg.socle_degree + max(ring.weights) + 1,
    )
    got = [out.dim(d) for d in range(out.socle_degree + 1)]
    want = [alg.dim(d) for d in range(alg.socle_degree + 1)]
    if got != want:
        raise AssertionError("extracted presentation has the wrong Hilbert function")
    return out


# ---------------------------------------------------------------------------
# Preservation reports
# ---------------------------------------------------------------------------


def lefschetz_preservation_report(
    theorem: str,
    inputs: dict,
    output,
    cfg: GenericityConfig = GenericityConfig(),
) -> dict:
    """Check a preservation statement's hypotheses and conclusion by search.

    The report records the generic verdicts on the inputs, whether the cited
    statement's hypotheses hold, the verdict on the output, and flags a
    build error when satisfied hypotheses contradict the guaranteed
    conclusion.
    """
    specs = {
        "tensor-slpn": (["A", "B"], "slpn", "slpn", None),
        "fiber-product-slp-over-field": (["A", "B"], "slp", "slp", "equal-socle"),
        "connected-sum-slp-over-field": (["A", "B"], "slp", "slp", "equal-socle"),
        "connected-sum-slp-over-t": (["A", "T"], "slp", "slp", None),
        "fp-cs-wlp-small-quotient": (["A", "B"], "slp", "wlp", "small-k"),
        "blowup-slp": (["A", "T"], "slp", "slp", None),
        "blowup-wlp-small-difference": (["A", "T"], "wlp", "wlp", "n-at-most-2"),
    }
    if theorem not in specs:
        raise ValueError(f"unknown preservation statement {theorem!r}")
    names, in_mode, out_mode, extra = specs[theorem]

    input_reports = {nm: generic_report(inputs[nm], in_mode, cfg) for nm in names}
    hypotheses_ok = all(r.holds for r in input_reports.values())
    side_conditions = {}
    if extra == "equal-socle":
        side_conditions["equal socle degrees"] = (
            inputs["A"].socle_degree == inputs["B"].socle_degree
        )
    elif extra == "small-k":
        d = inputs["A"].socle_degree
        k = inputs["T"].socle_degree
        side_conditions[f"k < floor((d-1)/2)"] = k < (d - 1) // 2
    elif extra == "n-at-most-2":
        side_conditions["socle difference at most 2"] = (
            inputs["A"].socle_degree - inputs["T"].socle_degree <= 2
        )
    hypotheses_ok = hypotheses_ok and all(side_conditions.values())
    out_report = generic_report(output, out_mode, cfg)
    consistent = (not hypotheses_ok) or bool(out_report.holds)
    return {
        "theorem": theorem,
        "inputs": {nm: r.as_dict() for nm, r in input_reports.items()},
        "side_conditions": side_conditions,
        "hypotheses_satisfied": hypotheses_ok,
        "output": out_report.as_dict(),
        "guaranteed": out_mode if hypotheses_ok else None,
        "consistent": consistent,
        "build_error": not consistent,
    }
