"""Fraction-free linear algebra over polynomial rings.

One Bareiss loop (``_bareiss``) is the only elimination over a polynomial
ring; ranks (``fraction_free_echelon``) and determinants (``poly_det``) are
views of it.  Ranks certify generic ranks over the rational function field
(the coefficients of a would-be Lefschetz element treated as
indeterminates); determinants give symbolic Hessians and the minors of
non-Lefschetz loci.  Entries are Poly values; pivoting favours short entries
and all divisions are exact by the Bareiss identity.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .polynomials import Poly, mono_divides, mono_sub


def poly_divexact(f: Poly, g: Poly) -> Poly:
    """Exact division f / g; raises when g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    F = f.field
    if f.is_zero():
        return f
    quotient: dict = {}
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


def _pivot_weight(p: Poly) -> tuple:
    return (len(p.terms), p.degree())


def _bareiss(
    rows: list[list[Poly]], stop_at: Optional[int] = None
) -> tuple[int, Optional[Poly], int]:
    """Fraction-free elimination: ``(rank, last pivot, sign)``.

    Each step takes the shortest nonzero entry in an unused column of the
    remaining rows, and every division by the previous pivot is exact.  By
    the Bareiss identity the last pivot is the leading minor of the matrix
    with its rows in swapped order and its columns in pivot order, so for a
    square matrix of full rank the determinant is ``sign * last pivot``:
    ``sign`` is the parity of the row swaps times the sign of the
    permutation from step number to pivot column.  ``stop_at`` ends the
    elimination once that rank has been reached.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    prev: Optional[Poly] = None
    sign = 1
    r = 0
    used_cols: set[int] = set()
    while r < min(nrows, ncols) and (stop_at is None or r < stop_at):
        best = None
        for i in range(r, nrows):
            for j in range(ncols):
                if j in used_cols:
                    continue
                if not a[i][j].is_zero():
                    w = _pivot_weight(a[i][j])
                    if best is None or w < best[0]:
                        best = (w, i, j)
        if best is None:
            break
        _, pi, pj = best
        a[r], a[pi] = a[pi], a[r]
        # one transposition for the row swap, one per earlier pivot column
        # to the right of this one
        if ((pi != r) + sum(c > pj for c in used_cols)) % 2:
            sign = -sign
        used_cols.add(pj)
        piv = a[r][pj]
        for i in range(r + 1, nrows):
            for j in range(ncols):
                if j == pj or j in used_cols:
                    continue
                num = a[i][j] * piv - a[i][pj] * a[r][j]
                a[i][j] = poly_divexact(num, prev) if prev is not None else num
            a[i][pj] = Poly.zero(piv.nvars, piv.field)
        prev = piv
        r += 1
    return r, prev, sign


def fraction_free_echelon(rows: list[list[Poly]], stop_at: Optional[int] = None) -> int:
    """Rank of a polynomial matrix over the fraction field (Bareiss).

    Pivoting picks the entry with fewest terms.  ``stop_at`` returns early
    once that rank has been certified, so the result is min(rank, stop_at).
    """
    return _bareiss(rows, stop_at)[0]


def poly_det(rows: list[list[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix by Bareiss elimination."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix has no determinant")
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    rank, last, sign = _bareiss(rows)
    if rank < n:
        return Poly.zero(rows[0][0].nvars, rows[0][0].field)
    return last if sign > 0 else last.scale(-1)


def poly_mat_mul(a: list[list[Poly]], b: list[list[Poly]]) -> list[list[Poly]]:
    if not a or not b:
        return []
    inner = len(b)
    if any(len(r) != inner for r in a):
        raise ValueError("dimension mismatch in polynomial matrix product")
    sample = b[0][0] if b[0] else a[0][0]
    zero = Poly.zero(sample.nvars, sample.field)
    ncols = len(b[0])
    out = []
    for row in a:
        new = []
        for j in range(ncols):
            acc = zero
            for k in range(inner):
                if not row[k].is_zero() and not b[k][j].is_zero():
                    acc = acc + row[k] * b[k][j]
            new.append(acc)
        out.append(new)
    return out


# ---------------------------------------------------------------------------
# Multivariate gcd (primitive PRS) and squarefree parts
# ---------------------------------------------------------------------------


def _deg_in(p: Poly, v: int) -> int:
    if p.is_zero():
        return -1
    return max(m[v] for m, _ in p.terms)


def _coeffs_wrt(p: Poly, v: int) -> dict[int, Poly]:
    out: dict[int, dict] = {}
    for m, c in p.terms:
        e = m[v]
        stripped = tuple(0 if i == v else x for i, x in enumerate(m))
        out.setdefault(e, {})[stripped] = c
    return {e: Poly.make(p.nvars, p.field, mapping) for e, mapping in out.items()}


def _mul_xpow(p: Poly, v: int, e: int) -> Poly:
    return Poly(
        p.nvars,
        p.field,
        tuple((tuple(x + e if i == v else x for i, x in enumerate(m)), c) for m, c in p.terms),
    ) if e else p


def _pseudo_rem(f: Poly, g: Poly, v: int) -> Poly:
    """Pseudo-remainder of f by g with respect to variable v."""
    df, dg = _deg_in(f, v), _deg_in(g, v)
    gc = _coeffs_wrt(g, v)
    lead_g = gc[dg]
    rem = f
    while not rem.is_zero():
        dr = _deg_in(rem, v)
        if dr < dg:
            break
        rc = _coeffs_wrt(rem, v)
        lead_r = rc[dr]
        rem = rem * lead_g - _mul_xpow(lead_r, v, dr - dg) * g
    return rem


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd in F[a_1..a_n] via primitive pseudo-remainder sequences."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.degree() == 0 or g.degree() == 0:
        return Poly.constant(f.nvars, f.field, 1)
    occurring = [
        v
        for v in range(f.nvars)
        if _deg_in(f, v) > 0 or _deg_in(g, v) > 0
    ]
    v = max(occurring, key=lambda w: max(_deg_in(f, w), _deg_in(g, w)))
    if _deg_in(f, v) == 0:
        return poly_gcd(_content(g, v), f).monic()
    if _deg_in(g, v) == 0:
        return poly_gcd(_content(f, v), g).monic()
    cf, pf = _content_primitive(f, v)
    cg, pg = _content_primitive(g, v)
    cont = poly_gcd(cf, cg)
    a, b = pf, pg
    if _deg_in(a, v) < _deg_in(b, v):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b, v)
        if r.is_zero():
            return (poly_gcd_primitive_part(b, v) * cont).monic()
        if _deg_in(r, v) == 0:
            return cont.monic()
        a, b = b, poly_gcd_primitive_part(r, v)


def _content(p: Poly, v: int) -> Poly:
    coeffs = list(_coeffs_wrt(p, v).values())
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = poly_gcd(acc, c)
        if acc.degree() == 0:
            break
    return acc


def _content_primitive(p: Poly, v: int) -> tuple[Poly, Poly]:
    cont = _content(p, v)
    return cont, poly_divexact(p, cont)


def poly_gcd_primitive_part(p: Poly, v: int) -> Poly:
    return _content_primitive(p, v)[1]


def poly_gcd_list(polys: Sequence[Poly]) -> Poly:
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        raise ValueError("gcd of all-zero list")
    acc = nz[0]
    for p in nz[1:]:
        acc = poly_gcd(acc, p)
        if acc.degree() == 0:
            break
    return acc.monic()


def partial_derivative(p: Poly, v: int) -> Poly:
    acc: dict = {}
    for m, c in p.terms:
        if m[v] == 0:
            continue
        mm = tuple(x - 1 if i == v else x for i, x in enumerate(m))
        acc[mm] = c * m[v]
    return Poly.make(p.nvars, p.field, acc)


def squarefree_part(p: Poly) -> Poly:
    """Product of the distinct irreducible factors (characteristic 0)."""
    if p.field.characteristic != 0:
        raise ValueError("squarefree part implemented for characteristic 0 only")
    if p.is_zero() or p.degree() == 0:
        return p.monic() if not p.is_zero() else p
    derivs = [partial_derivative(p, v) for v in range(p.nvars)]
    derivs = [d for d in derivs if not d.is_zero()]
    g = p
    for d in derivs:
        g = poly_gcd(g, d)
        if g.degree() == 0:
            break
    return poly_divexact(p, g).monic()
