"""New algebras from old: tensor products, fiber products, connected sums
and cohomological blowups, with their Hilbert identities and Thom classes.

Fiber products and general connected sums live in an intrinsic pair model
(degreewise bases of a subalgebra of A + B) rather than by presentation;
the over-the-base-field presentations exist separately and are cross-checked
degreewise.  Blowup elements are stored as an A component plus one T
component per positive power of the exceptional class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import (
    GradedAlgebra,
    Ideal,
    NotGorensteinError,
    Orientation,
    Ring,
    algebra_generators,
    apply_map,
    default_orientation,
    from_ideal,
    hilbert_function,
    integral,
    is_gorenstein,
    operator_matrix,
    pairing_matrix,
)
from .checks import GenericityConfig, slp_generic, wlp_generic
from .exactmath import Matrix, RowSpace, Scalar, kernel_basis, kernel_space, rank, rref, solve
from .polynomials import DualPoly, Poly, contract, dual_pairing


# ---------------------------------------------------------------------------
# Graded algebra maps
# ---------------------------------------------------------------------------


class AlgebraMap:
    """Degree-preserving algebra map determined by variable images."""

    def __init__(self, source: GradedAlgebra, target: GradedAlgebra, images: Sequence[Poly]):
        if source.field != target.field:
            raise ValueError("field mismatch")
        if len(images) != source.nvars:
            raise ValueError("need one image per source variable")
        self.source = source
        self.target = target
        self.images = tuple(images)
        for j, img in enumerate(self.images):
            if img.is_zero():
                continue
            if not target.ring.is_homogeneous(img) or target.ring.degree(img) != source.ring.weights[j]:
                raise ValueError(
                    f"image of {source.ring.varnames[j]} must be homogeneous of "
                    f"degree {source.ring.weights[j]}"
                )
        self._matrices: dict[int, Matrix] = {}
        self._check_well_defined()
        self.surjective = all(
            rank(self.matrix(d)) == target.dim(d)
            for d in range(target.socle_degree + 1)
        )

    def _check_well_defined(self) -> None:
        src, tgt = self.source, self.target
        for d in range(tgt.socle_degree + 1):
            monos = src.monomial_basis(d)
            for row in src.ideal_space(d).rref_rows():
                p = Poly.make(src.nvars, src.field, {monos[c]: v for c, v in row.items()})
                if not tgt.nf_poly(p.substitute(self.images)).is_zero():
                    raise ValueError(
                        "map is not well defined: an ideal element has nonzero image"
                    )

    def apply_poly(self, p: Poly) -> Poly:
        return self.target.nf_poly(p.substitute(self.images))

    def matrix(self, d: int) -> Matrix:
        """Induced map on degree-d pieces against standard bases."""
        if d not in self._matrices:
            src, tgt = self.source, self.target
            nrows = tgt.dim(d)
            cols = []
            for m in src.basis(d):
                p = Poly.make(src.nvars, src.field, {m: src.field.one()})
                cols.append(tgt.vector(p.substitute(self.images), d))
            self._matrices[d] = Matrix.from_cols(src.field, cols, nrows=nrows)
        return self._matrices[d]

    def apply(self, d: int, vec: Sequence[Scalar]) -> tuple:
        if self.target.dim(d) == 0:
            return ()
        return self.matrix(d).mul_vec(vec)


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
    F = A.field
    nk = A.dim(k)
    rhs = []
    for j in range(nk):
        ej = tuple(F.one() if t == j else F.zero() for t in range(nk))
        rhs.append(integral(T, omega_t, k, pi.apply(k, ej)))
    sol = solve(pairing_matrix(A, omega_a, k), rhs)
    if sol is None:
        raise ValueError("orientations and map admit no Thom class (inconsistent system)")
    tau = ThomClass(n, sol)
    _check_thom_identity(pi, omega_a, omega_t, tau)
    _check_thom_dual_characterisation(pi, omega_a, omega_t, tau)
    return tau


def _check_thom_identity(pi, omega_a, omega_t, tau: ThomClass) -> None:
    A, T = pi.source, pi.target
    F = A.field
    d = A.socle_degree
    for m in range(A.socle_degree + 1):
        for j in range(A.dim(m)):
            ej = tuple(F.one() if t == j else F.zero() for t in range(A.dim(m)))
            lhs = integral(A, omega_a, tau.degree + m, A.multiply(tau.degree, tau.coords, m, ej))
            rhs = integral(T, omega_t, m, pi.apply(m, ej))
            if lhs != rhs:
                raise AssertionError("Thom class fails its defining identity")


def _orientation_dual_generator(alg: GradedAlgebra, omega: Orientation) -> DualPoly:
    """The dual generator whose coefficient pairing realises the orientation."""
    base = alg.dual_generator()
    F = alg.field
    top = alg.basis(alg.socle_degree)[0]
    # scale so the pairing against the standard top monomial matches omega
    return base.scale(F.div(omega.coeffs[0], base.coefficient(top)))


def _check_thom_dual_characterisation(pi, omega_a, omega_t, tau: ThomClass) -> None:
    """tau . F_A equals the pullback of F_T along the variable images."""
    A, T = pi.source, pi.target
    try:
        FA = _orientation_dual_generator(A, omega_a)
        FT = _orientation_dual_generator(T, omega_t)
    except NotGorensteinError:
        return
    k = T.socle_degree
    lhs = contract(tau.poly(A), FA)
    coeffs = {}
    for m in A.monomial_basis(k):
        p = Poly.make(A.nvars, A.field, {m: A.field.one()})
        coeffs[m] = dual_pairing(p.substitute(pi.images), FT)
    rhs = DualPoly.make(A.nvars, A.field, coeffs)
    if lhs != rhs:
        raise AssertionError("Thom class fails the dual-generator characterisation")


# ---------------------------------------------------------------------------
# Pair model: fiber products and connected sums
# ---------------------------------------------------------------------------


class PairAlgebra:
    """Subalgebra of A + B with explicit degreewise bases.

    Basis vectors are ambient coordinate rows (A coords followed by B
    coords), normalised so each has a private indicator column; membership
    is verified whenever ambient vectors are re-expressed in the basis.
    """

    def __init__(self, A, B, bases: list[list[tuple]], free_cols: list[list[int]]):
        self.A = A
        self.B = B
        self.field = A.field
        self._bases = bases
        self._free = free_cols
        D = len(bases) - 1
        while D > 0 and not bases[D]:
            D -= 1
        self.socle_degree = D

    def dim(self, d: int) -> int:
        if d < 0 or d > self.socle_degree:
            return 0
        return len(self._bases[d])

    def ambient(self, d: int, vec: Sequence[Scalar]) -> tuple:
        F = self.field
        width = self.A.dim(d) + self.B.dim(d)
        out = [F.zero()] * width
        for c, basis_vec in zip(vec, self._bases[d]):
            if F.is_zero(c):
                continue
            for idx, v in enumerate(basis_vec):
                if not F.is_zero(v):
                    out[idx] = F.add(out[idx], F.mul(c, v))
        return tuple(out)

    def coords(self, d: int, ambient_vec: Sequence[Scalar]) -> tuple:
        F = self.field
        got = tuple(ambient_vec[c] for c in self._free[d])
        check = self.ambient(d, got)
        if tuple(ambient_vec) != check:
            raise ValueError("ambient vector is not in the pair subalgebra")
        return got

    def split(self, d: int, ambient_vec: Sequence[Scalar]) -> tuple[tuple, tuple]:
        na = self.A.dim(d)
        return tuple(ambient_vec[:na]), tuple(ambient_vec[na:])

    def multiply(self, d1: int, v1: Sequence[Scalar], d2: int, v2: Sequence[Scalar]) -> tuple:
        d = d1 + d2
        if d > self.socle_degree:
            return ()
        a1, b1 = self.split(d1, self.ambient(d1, v1))
        a2, b2 = self.split(d2, self.ambient(d2, v2))
        pa = self.A.multiply(d1, a1, d2, a2) if self.A.dim(d) else ()
        pb = self.B.multiply(d1, b1, d2, b2) if self.B.dim(d) else ()
        return self.coords(d, tuple(pa) + tuple(pb))

    def one(self) -> tuple:
        amb = tuple(self.A.one()) + tuple(self.B.one())
        return self.coords(0, amb)


def fiber_product(A, B, T, pi_a: AlgebraMap, pi_b: AlgebraMap) -> PairAlgebra:
    """Pairs with equal images in T; Hilbert function H_A + H_B - H_T."""
    if not (pi_a.surjective and pi_b.surjective):
        raise ValueError("fiber products need surjective projections")
    if pi_a.source is not A or pi_b.source is not B:
        raise ValueError("maps must start at the given factors")
    if pi_a.target is not T or pi_b.target is not T:
        raise ValueError("maps must land in the common quotient")
    F = A.field
    D = max(A.socle_degree, B.socle_degree)
    bases: list[list[tuple]] = []
    free_cols: list[list[int]] = []
    for d in range(D + 1):
        na, nb, nt = A.dim(d), B.dim(d), T.dim(d)
        width = na + nb
        if nt == 0:
            kern = [
                tuple(F.one() if i == j else F.zero() for i in range(width))
                for j in range(width)
            ]
            frees = list(range(width))
        else:
            ma = pi_a.matrix(d)
            mb = pi_b.matrix(d)
            rows = []
            for r in range(nt):
                rows.append(tuple(ma.entries[r]) + tuple(F.neg(x) for x in mb.entries[r]))
            mat = Matrix(F, width, tuple(rows))
            kern = kernel_basis(mat)
            _, pivots = rref(mat)
            frees = [c for c in range(width) if c not in pivots]
        bases.append([tuple(v) for v in kern])
        free_cols.append(frees)
    fp = PairAlgebra(A, B, bases, free_cols)
    expect = [
        A.dim(d) + B.dim(d) - T.dim(d) for d in range(D + 1)
    ]
    if [fp.dim(d) for d in range(D + 1)] != expect:
        raise AssertionError("fiber product violates its Hilbert identity")
    return fp


class QuotientAlgebra:
    """Quotient of an algebra model by degreewise relation row spaces."""

    def __init__(self, base, relations: list[RowSpace]):
        self.base = base
        self.field = base.field
        self._rel = relations
        self._free: list[list[int]] = []
        for d in range(base.socle_degree + 1):
            pivots = set(relations[d].pivots())
            self._free.append([c for c in range(base.dim(d)) if c not in pivots])
        D = base.socle_degree
        while D > 0 and not self._free[D]:
            D -= 1
        self.socle_degree = D

    def dim(self, d: int) -> int:
        if d < 0 or d > self.socle_degree:
            return 0
        return len(self._free[d])

    def lift(self, d: int, vec: Sequence[Scalar]) -> tuple:
        F = self.field
        out = [F.zero()] * self.base.dim(d)
        for c, pos in zip(vec, self._free[d]):
            out[pos] = c
        return tuple(out)

    def project(self, d: int, base_vec: Sequence[Scalar]) -> tuple:
        F = self.field
        row = {i: v for i, v in enumerate(base_vec) if not F.is_zero(v)}
        red = self._rel[d].reduce(row)
        return tuple(red.get(c, F.zero()) for c in self._free[d])

    def multiply(self, d1: int, v1: Sequence[Scalar], d2: int, v2: Sequence[Scalar]) -> tuple:
        d = d1 + d2
        if d > self.socle_degree:
            return ()
        prod = self.base.multiply(d1, self.lift(d1, v1), d2, self.lift(d2, v2))
        return self.project(d, prod)

    def one(self) -> tuple:
        return self.project(0, self.base.one())


def connected_sum(
    A,
    B,
    T,
    pi_a: AlgebraMap,
    pi_b: AlgebraMap,
    omega_a: Optional[Orientation] = None,
    omega_b: Optional[Orientation] = None,
    omega_t: Optional[Orientation] = None,
) -> QuotientAlgebra:
    """Quotient of the fiber product by the pair of Thom classes."""
    omega_a = omega_a or default_orientation(A)
    omega_b = omega_b or default_orientation(B)
    omega_t = omega_t or default_orientation(T)
    d = A.socle_degree
    if B.socle_degree != d:
        raise ValueError("connected sums need equal socle degrees")
    k = T.socle_degree
    n = d - k
    if n < 1:
        raise ValueError("the common quotient must have strictly smaller socle degree")
    tau_a = thom_class(pi_a, omega_a, omega_t)
    tau_b = thom_class(pi_b, omega_b, omega_t)
    if pi_a.apply(n, tau_a.coords) != pi_b.apply(n, tau_b.coords):
        raise ValueError("Thom classes are incompatible: their images in T differ")
    fp = fiber_product(A, B, T, pi_a, pi_b)
    t_pair = fp.coords(n, tuple(tau_a.coords) + tuple(tau_b.coords))
    F = A.field
    relations = []
    for i in range(fp.socle_degree + 1):
        rel = RowSpace(F, fp.dim(i))
        if i >= n:
            for prod in operator_matrix(fp, n, t_pair, i - n).transpose().entries:
                rel.add({c: v for c, v in enumerate(prod) if not F.is_zero(v)})
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


def connected_sum_over_field(
    A: GradedAlgebra,
    B: GradedAlgebra,
    omega_a: Optional[Orientation] = None,
    omega_b: Optional[Orientation] = None,
) -> GradedAlgebra:
    """Presentation form over the base field: kill cross products, glue socles."""
    omega_a = omega_a or default_orientation(A)
    omega_b = omega_b or default_orientation(B)
    d = A.socle_degree
    if B.socle_degree != d:
        raise ValueError("connected sums need equal socle degrees")
    if A.dim(d) != 1 or B.dim(d) != 1:
        raise NotGorensteinError("summands must be Gorenstein")
    ring, right = A.ring.joined(B.ring)
    na = A.nvars

    def left_poly(p: Poly) -> Poly:
        return p.substitute([ring.variable(j) for j in range(na)])

    def right_poly(p: Poly) -> Poly:
        return p.substitute([ring.variable(na + j) for j in range(B.nvars)])

    gens = [left_poly(g) for g in A.presentation_generators()]
    gens += [right_poly(g) for g in B.presentation_generators()]
    for i in range(na):
        for j in range(B.nvars):
            gens.append(ring.variable(i) * ring.variable(na + j))
    Fld = ring.field
    tau_a = A.poly(d, (Fld.inv(omega_a.coeffs[0]),))
    tau_b = B.poly(d, (Fld.inv(omega_b.coeffs[0]),))
    gens.append(left_poly(tau_a) + right_poly(tau_b))
    return from_ideal(Ideal(ring, tuple(gens)), max_degree=d + max(ring.weights))


def tensor_product(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """Quotient by both ideals on the disjoint union of the variables."""
    ring, _ = A.ring.joined(B.ring)
    na = A.nvars
    gens = [
        g.substitute([ring.variable(j) for j in range(na)])
        for g in A.presentation_generators()
    ]
    gens += [
        g.substitute([ring.variable(na + j) for j in range(B.nvars)])
        for g in B.presentation_generators()
    ]
    out = from_ideal(
        Ideal(ring, tuple(gens)),
        max_degree=A.socle_degree + B.socle_degree + max(ring.weights),
    )
    ha, hb = A.hilbert_function(), B.hilbert_function()
    conv = [
        sum(ha[i] * hb[k - i] for i in range(max(0, k - len(hb) + 1), min(k, len(ha) - 1) + 1))
        for k in range(len(ha) + len(hb) - 1)
    ]
    if list(out.hilbert_function()) != conv:
        raise AssertionError("tensor product violates the convolution identity")
    return out


# ---------------------------------------------------------------------------
# Cohomological blowups
# ---------------------------------------------------------------------------


class BlowupAlgebra:
    """Blowup model: an A component plus T components for xi^1..xi^{n-1}.

    Multiplication uses xi * ker(pi) = 0 (so xi times anything only sees the
    T image) and reduces xi^n by the monic relation with constant term
    lambda * tau, whose A contribution goes through a fixed degreewise
    section of pi.
    """

    def __init__(
        self,
        A: GradedAlgebra,
        T: GradedAlgebra,
        pi: AlgebraMap,
        coefficients,  # list of (degree, T coords) for a_1..a_{n-1} images
        lam: Scalar,
        tau: ThomClass,
    ):
        self.A = A
        self.T = T
        self.pi = pi
        self.field = A.field
        self.socle_degree = A.socle_degree
        self.n = A.socle_degree - T.socle_degree
        self.lam = lam
        self.tau = tau
        self.t_coeffs = coefficients  # index i-1 -> coords of pi(a_i) in T_i
        self.tau_t = pi.apply(self.n, tau.coords) if T.dim(self.n) else ()
        self._lifts: dict[int, Matrix] = {}

    # -- coordinate layout: [A_d | T_{d-1} | ... | T_{d-n+1}] ------------------

    def dim(self, d: int) -> int:
        if d < 0 or d > self.socle_degree:
            return 0
        return self.A.dim(d) + sum(self.T.dim(d - j) for j in range(1, self.n))

    def split(self, d: int, vec: Sequence[Scalar]) -> tuple[tuple, list[tuple]]:
        na = self.A.dim(d)
        parts = [tuple(vec[:na])]
        pos = na
        for j in range(1, self.n):
            nt = self.T.dim(d - j)
            parts.append(tuple(vec[pos : pos + nt]))
            pos += nt
        return parts[0], parts[1:]

    def join(self, d: int, a_part: Sequence[Scalar], slots: list) -> tuple:
        out = list(a_part)
        for j in range(1, self.n):
            out.extend(slots[j - 1])
        return tuple(out)

    def zero_parts(self, d: int) -> tuple[list, list]:
        F = self.field
        a = [F.zero()] * self.A.dim(d)
        slots = [[F.zero()] * self.T.dim(d - j) for j in range(1, self.n)]
        return a, slots

    def lift_matrix(self, m: int) -> Matrix:
        """A fixed section of pi on degree-m pieces (free coordinates zero)."""
        if m not in self._lifts:
            F = self.field
            cols = []
            for t in range(self.T.dim(m)):
                et = tuple(F.one() if s == t else F.zero() for s in range(self.T.dim(m)))
                sol = solve(self.pi.matrix(m), et)
                if sol is None:
                    raise ValueError("projection is not surjective in degree %d" % m)
                cols.append(sol)
            self._lifts[m] = Matrix.from_cols(F, cols, nrows=self.A.dim(m))
        return self._lifts[m]

    def lift(self, m: int, t_vec: Sequence[Scalar]) -> tuple:
        if self.A.dim(m) == 0:
            return ()
        return self.lift_matrix(m).mul_vec(t_vec)

    def _acc(self, target, contrib, scale=None) -> None:
        F = self.field
        for idx, v in enumerate(contrib):
            if F.is_zero(v):
                continue
            target[idx] = F.add(target[idx], F.mul(scale, v) if scale is not None else v)

    def _reduce(self, m: int, sdeg: int, s: tuple, sign: Scalar, a_out, slot_out) -> None:
        """Fold xi^(n+m) * s (s in T_sdeg) into the accumulators, scaled by sign."""
        F = self.field
        for i, (ideg, t_i) in enumerate(self.t_coeffs, start=1):
            if t_i is None or all(F.is_zero(x) for x in t_i):
                continue
            prod = self.T.multiply(ideg, t_i, sdeg, s)
            if not prod or all(F.is_zero(x) for x in prod):
                continue
            neg = F.neg(sign)
            e = self.n + m - i
            if e >= self.n:
                self._reduce(m - i, sdeg + ideg, tuple(prod), neg, a_out, slot_out)
            elif 1 <= e <= self.n - 1:
                self._acc(slot_out[e - 1], prod, neg)
        coef = F.neg(F.mul(sign, self.lam))
        if m >= 1:
            if self.T.dim(self.n) and self.tau_t:
                prod = self.T.multiply(self.n, self.tau_t, sdeg, s)
                if prod:
                    self._acc(slot_out[m - 1], prod, coef)
        else:
            lifted = self.lift(sdeg, s)
            prod = self.A.multiply(self.n, self.tau.coords, sdeg, lifted)
            if prod:
                self._acc(a_out, prod, coef)

    def multiply(self, d1: int, v1: Sequence[Scalar], d2: int, v2: Sequence[Scalar]) -> tuple:
        F = self.field
        d = d1 + d2
        if d > self.socle_degree:
            return ()
        a1, slots1 = self.split(d1, v1)
        a2, slots2 = self.split(d2, v2)
        a_out, slot_out = self.zero_parts(d)
        prod = self.A.multiply(d1, a1, d2, a2)
        if prod:
            self._acc(a_out, prod)
        ta1 = self.pi.apply(d1, a1) if self.T.dim(d1) else ()
        ta2 = self.pi.apply(d2, a2) if self.T.dim(d2) else ()
        for j in range(1, self.n):
            if ta1 and self.T.dim(d2 - j) and slots2[j - 1]:
                prod = self.T.multiply(d1, ta1, d2 - j, slots2[j - 1])
                if prod and j <= self.n - 1 and self.T.dim(d - j):
                    self._acc(slot_out[j - 1], prod)
            if ta2 and self.T.dim(d1 - j) and slots1[j - 1]:
                prod = self.T.multiply(d2, ta2, d1 - j, slots1[j - 1])
                if prod and self.T.dim(d - j):
                    self._acc(slot_out[j - 1], prod)
        for j1 in range(1, self.n):
            t1 = slots1[j1 - 1]
            if not t1 or all(F.is_zero(x) for x in t1):
                continue
            for j2 in range(1, self.n):
                t2 = slots2[j2 - 1]
                if not t2 or all(F.is_zero(x) for x in t2):
                    continue
                prod = self.T.multiply(d1 - j1, t1, d2 - j2, t2)
                if not prod or all(F.is_zero(x) for x in prod):
                    continue
                e = j1 + j2
                if e <= self.n - 1:
                    if self.T.dim(d - e):
                        self._acc(slot_out[e - 1], prod)
                else:
                    self._reduce(e - self.n, d - e, tuple(prod), F.one(), a_out, slot_out)
        return self.join(d, a_out, slot_out)

    def one(self) -> tuple:
        _, slots = self.zero_parts(0)
        return self.join(0, self.A.one(), slots)

    def embed_a(self, d: int, vec: Sequence[Scalar]) -> tuple:
        _, slots = self.zero_parts(d)
        return self.join(d, tuple(vec), slots)

    def hilbert_function(self) -> tuple:
        return tuple(self.dim(d) for d in range(self.socle_degree + 1))


def blowup(
    A: GradedAlgebra,
    T: GradedAlgebra,
    pi: AlgebraMap,
    coefficients: Sequence[Poly],
    lam,
    omega_a: Optional[Orientation] = None,
    omega_t: Optional[Orientation] = None,
) -> BlowupAlgebra:
    """Cohomological blowup of A along a surjection onto T.

    coefficients are the middle terms a_1..a_{n-1} of the monic relation
    (homogeneous of degrees 1..n-1 in A); the constant term is lam * tau
    with tau the Thom class, and lam must be a unit.
    """
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
    coeffs = []
    for i, a_i in enumerate(coefficients, start=1):
        if a_i.is_zero():
            coeffs.append((i, None))
            continue
        if not A.ring.is_homogeneous(a_i) or A.ring.degree(a_i) != i:
            raise ValueError(f"coefficient a_{i} must be homogeneous of degree {i}")
        img = pi.apply_poly(a_i)
        coeffs.append((i, T.vector(img, i) if T.dim(i) else None))
    tau = thom_class(pi, omega_a, omega_t)
    bug = BlowupAlgebra(A, T, pi, coeffs, lam, tau)
    if not is_gorenstein(bug):
        raise AssertionError("blowup is not Gorenstein despite a unit lambda")
    return bug


def exceptional_divisor(
    T: GradedAlgebra,
    coefficients,  # list of (degree, T coords or None), as stored on the blowup
    lam,
    tau_t: Sequence[Scalar],
    xi_name: str = "xi",
) -> GradedAlgebra:
    """The boundary algebra T[xi]/(f_T) as an honest presentation."""
    n = len(coefficients) + 1
    ring = T.ring.extended(xi_name, 1)
    nv = ring.nvars
    F = ring.field

    def lift_t(m: int, vec) -> Poly:
        p = T.poly(m, vec)
        return Poly.make(nv, F, {mm + (0,): c for mm, c in p.terms})

    xi = ring.variable(nv - 1)
    f_t = xi**n
    for i, tvec in coefficients:
        if tvec is None:
            continue
        f_t = f_t + lift_t(i, tvec) * xi ** (n - i)
    if T.dim(n) and any(not F.is_zero(x) for x in tau_t):
        f_t = f_t + lift_t(n, tau_t).scale(lam)
    gens = [
        Poly.make(nv, F, {mm + (0,): c for mm, c in g.terms})
        for g in T.presentation_generators()
    ]
    gens.append(f_t)
    cap = T.socle_degree + n + max(ring.weights)
    return from_ideal(Ideal(ring, tuple(gens)), max_degree=cap)


def blowup_square_commutes(bug: BlowupAlgebra, t_tilde: GradedAlgebra) -> bool:
    """Check pi-hat(beta(x)) = beta_0(pi(x)) on the variables of A."""
    A, T = bug.A, bug.T
    nv = t_tilde.nvars

    def t_poly_in_tilde(m: int, vec) -> Poly:
        p = T.poly(m, vec)
        return Poly.make(nv, T.field, {mm + (0,): c for mm, c in p.terms})

    xi = t_tilde.ring.variable(nv - 1)

    def pihat(d: int, vec) -> Poly:
        a_part, slots = bug.split(d, vec)
        out = Poly.zero(nv, T.field)
        if T.dim(d):
            out = out + t_poly_in_tilde(d, bug.pi.apply(d, a_part))
        for j in range(1, bug.n):
            if T.dim(d - j) and slots[j - 1]:
                out = out + t_poly_in_tilde(d - j, slots[j - 1]) * xi**j
        return out

    for j, w in enumerate(A.ring.weights):
        beta_x = bug.embed_a(w, A.vector(A.ring.variable(j), w))
        lhs = t_tilde.nf_poly(pihat(w, beta_x))
        img = bug.pi.apply_poly(A.ring.variable(j))
        rhs = t_tilde.nf_poly(Poly.make(nv, T.field, {mm + (0,): c for mm, c in img.terms}))
        if lhs != rhs:
            return False
    # multiplicativity spot check: products of variable images agree
    for j1, w1 in enumerate(A.ring.weights):
        for j2, w2 in enumerate(A.ring.weights):
            if w1 + w2 > bug.socle_degree:
                continue
            v1 = bug.embed_a(w1, A.vector(A.ring.variable(j1), w1))
            v2 = bug.embed_a(w2, A.vector(A.ring.variable(j2), w2))
            prod = bug.multiply(w1, v1, w2, v2)
            lhs = t_tilde.nf_poly(pihat(w1 + w2, prod))
            rhs = t_tilde.nf_poly(pihat(w1, v1) * pihat(w2, v2))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# Presentation extraction (for reporting pair and blowup models)
# ---------------------------------------------------------------------------


def presentation_of(alg, name_prefix: str = "z", max_generators: int = 8):
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
    if len(gens) > max_generators:
        raise ValueError("too many generators for a presentation")
    ring = Ring(
        tuple(f"{name_prefix}{i + 1}" for i in range(len(gens))),
        F,
        tuple(g.degree for g in gens),
    )
    # the image of a monomial is X_j applied to the image of the monomial
    # divided by its last generator z_j; the kernel in each degree is the
    # ideal of relations
    images = {}
    monos, kernels = [], []
    for m in range(D + 1):
        monos.append(ring.monomials(m))
        for mono in monos[m]:
            if m == 0:
                images[mono] = alg.one()
                continue
            j = max(k for k, e in enumerate(mono) if e)
            g = gens[j]
            rest = mono[:j] + (mono[j] - 1,) + mono[j + 1 :]
            images[mono] = apply_map(F, g.maps[m - g.degree], images[rest], alg.dim(m))
        mat = Matrix.from_cols(F, [images[mm] for mm in monos[m]], nrows=alg.dim(m))
        kernels.append(kernel_space(mat))
    generator_data = [(g.degree, g.vector) for g in gens]
    return ring, GradedAlgebra(ring, D, monos, kernels).minimal_generators(), generator_data


def presented_algebra(alg, name_prefix: str = "z", max_generators: int = 8) -> GradedAlgebra:
    """Rebuild an algebra model as a quotient presentation and verify it."""
    ring, relations, _ = presentation_of(alg, name_prefix, max_generators)
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

    def run(alg, mode):
        fn = {"wlp": wlp_generic, "slp": slp_generic}.get(mode)
        if fn is not None:
            return fn(alg, cfg)
        from .checks import slpn_generic

        return slpn_generic(alg, cfg)

    input_reports = {nm: run(inputs[nm], in_mode) for nm in names}
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
    out_report = run(output, out_mode)
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
