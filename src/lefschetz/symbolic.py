"""Fraction-free linear algebra over polynomial rings.

One Bareiss loop (``_bareiss``) is the only elimination over a polynomial
ring; ranks (``fraction_free_echelon``) and determinants (``poly_det``) are
views of it.  Ranks certify generic ranks over the rational function field
(the coefficients of a would-be Lefschetz element treated as
indeterminates); determinants give symbolic Hessians and the minors of
non-Lefschetz loci.  Pivoting favours short entries and all divisions are
exact by the Bareiss identity.

The loop runs on a private integer kernel, converted once on entry:
- Packed form.  Each entry is a dict {packed monomial: int}.  A monomial
  packs into one int of fixed-width fields, the total degree on top and
  the exponent of variable 0 below it, so a monomial product is one int
  addition and int order is a graded monomial order.
- Width.  For a degree bound B the fields are bit_length(B) + 1 bits wide,
  so an exponent up to B leaves the top (guard) bit of its field clear and
  one up to 2B + 1 still fits.  In a Bareiss elimination B is nrows times
  the largest entry degree: every minor has degree at most B, and a
  numerator of two minors at most 2B.  For f / g alone B is deg f.  The
  difference lr - lg of two packed monomials has no guard bit set exactly
  when lg divides lr with every quotient exponent below 2^(w-1) (a borrow
  sets the guard bit of the field that borrowed), so the test never
  rejects a quotient term of an exact division, whose degree is at most B.
- QQ.  Each row is scaled by the lcm of its coefficient denominators.  The
  rank and the support of every minor stay the same, so do the pivots, and
  every Bareiss entry is a minor of the integer matrix: each division is an
  exact division over ZZ[a], checked with ``divmod``.  ``poly_det`` divides
  the last pivot by the product of its rows' scales.
- GF(p).  Coefficients are ints in [0, p), and a division multiplies by the
  inverse of the divisor's lead coefficient.
Only the last pivot is converted back to a ``Poly``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactmath import FieldSpec
from .polynomials import Poly


def _width(bound: int) -> int:
    """Field width for monomials of total degree at most ``bound``."""
    return max(bound, 0).bit_length() + 1


def _guard(nvars: int, w: int) -> int:
    """The top bit of every field."""
    return sum(1 << (w * k + w - 1) for k in range(nvars + 1))


def _packed(p: Poly, w: int, scale: int, cache: dict) -> dict:
    """{packed monomial: int}: coefficients times ``scale`` over QQ (the
    scale clears every denominator), residues in [0, p) over GF(p)."""
    out = {}
    qq = p.field.characteristic == 0
    for m, c in p.terms:
        key = cache.get(m)
        if key is None:
            key = sum(m)
            for e in m:
                key = key << w | e
            cache[m] = key
        out[key] = c.numerator * (scale // c.denominator) if qq else c
    return out


def _unpacked(d: dict, nvars: int, field: FieldSpec, w: int) -> Poly:
    mask = (1 << w) - 1
    shifts = [w * (nvars - 1 - k) for k in range(nvars)]
    return Poly.make(nvars, field, {tuple(key >> s & mask for s in shifts): c for key, c in d.items()})


def _row_scale(row: Sequence[Poly]) -> int:
    """The lcm of the denominators of a row of QQ entries; 1 over GF(p)."""
    if row[0].field.characteristic:
        return 1
    return math.lcm(*(c.denominator for e in row for _, c in e.terms))


def _cross(a: dict, b: dict, c: dict, d: dict, p: int) -> dict:
    """a·b − c·d on packed dicts, reduced mod p when p is nonzero."""
    acc: dict = {}
    get = acc.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    for m1, c1 in c.items():
        for m2, c2 in d.items():
            m = m1 + m2
            acc[m] = get(m, 0) - c1 * c2
    if p:
        acc = {m: v % p for m, v in acc.items()}
    return {m: v for m, v in acc.items() if v}


def _divexact(f: dict, g: dict, guard: int, p: int) -> dict:
    """f / g on packed dicts over ZZ (p = 0) or GF(p), with one remainder
    dict; raises ArithmeticError when g does not divide f."""
    lg = max(g)
    lc = g[lg]
    inv = pow(lc, -1, p) if p else 0
    tail = [(m, c) for m, c in g.items() if m != lg]
    rem = dict(f)
    quot = {}
    while rem:
        lr = max(rem)
        d = lr - lg
        if d & guard:
            raise ArithmeticError("inexact polynomial division")
        c = rem.pop(lr)
        if p:
            q = c * inv % p
        else:
            q, r = divmod(c, lc)
            if r:
                raise ArithmeticError("inexact polynomial division")
        quot[d] = q
        for m, cm in tail:
            k = d + m
            v = rem.get(k, 0) - q * cm
            if p:
                v %= p
            if v:
                rem[k] = v
            else:
                del rem[k]
    return quot


def poly_divexact(f: Poly, g: Poly) -> Poly:
    """Exact division f / g; raises ArithmeticError when g does not divide f.

    Over QQ both are scaled to integer polynomials and g is made primitive,
    so by Gauss's lemma the quotient is an integer polynomial whenever g
    divides f.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    w = _width(f.degree())
    cache: dict = {}
    sf, sg = _row_scale([f]), _row_scale([g])
    fi, gi = _packed(f, w, sf, cache), _packed(g, w, sg, cache)
    p = f.field.characteristic
    content = 1 if p else math.gcd(*gi.values())
    gi = {m: c // content for m, c in gi.items()}
    q = _divexact(fi, gi, _guard(f.nvars, w), p)
    return _unpacked(q, f.nvars, f.field, w).scale(Fraction(sg, sf * content))


def _bareiss(
    rows: list[list[Poly]], stop_at: Optional[int] = None
) -> tuple[int, Optional[Poly], int, int]:
    """Fraction-free elimination: ``(rank, last pivot, sign, scale)``.

    Each step takes the shortest nonzero entry (fewest terms, then lowest
    degree, then the first found) in an unused column of the remaining rows,
    and every division by the previous pivot is exact.  By the Bareiss
    identity the last pivot is the leading minor of the row-scaled matrix
    with its rows in swapped order and its columns in pivot order, and
    ``scale`` is the product of those rows' scales, so that minor of
    ``rows`` is last pivot / scale.  For a square matrix of full rank the
    determinant is ``sign * last pivot / scale``: ``sign`` is the parity of
    the row swaps times the sign of the permutation from step number to
    pivot column.  ``stop_at`` ends the elimination once that rank has been
    reached.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if not ncols:
        return 0, None, 1, 1
    nvars, field = rows[0][0].nvars, rows[0][0].field
    p = field.characteristic
    w = _width(nrows * max(e.degree() for row in rows for e in row))
    guard, top = _guard(nvars, w), w * nvars
    cache: dict = {}
    scales = [_row_scale(row) for row in rows]
    a = [[_packed(e, w, s, cache) for e in row] for row, s in zip(rows, scales)]
    prev: Optional[dict] = None
    sign = 1
    r = 0
    used_cols: set[int] = set()
    while r < min(nrows, ncols) and (stop_at is None or r < stop_at):
        best = None
        for i in range(r, nrows):
            for j in range(ncols):
                e = a[i][j]
                if e and j not in used_cols:
                    wt = (len(e), max(e) >> top)
                    if best is None or wt < best[0]:
                        best = (wt, i, j)
        if best is None:
            break
        _, pi, pj = best
        a[r], a[pi] = a[pi], a[r]
        scales[r], scales[pi] = scales[pi], scales[r]
        # one transposition for the row swap, one per earlier pivot column
        # to the right of this one
        if ((pi != r) + sum(c > pj for c in used_cols)) % 2:
            sign = -sign
        used_cols.add(pj)
        ar = a[r]
        piv = ar[pj]
        for i in range(r + 1, nrows):
            ai = a[i]
            aip = ai[pj]
            for j in range(ncols):
                if j == pj or j in used_cols:
                    continue
                num = _cross(ai[j], piv, aip, ar[j], p)
                ai[j] = _divexact(num, prev, guard, p) if prev is not None else num
            ai[pj] = {}
        prev = piv
        r += 1
    last = _unpacked(prev, nvars, field, w) if prev is not None else None
    return r, last, sign, math.prod(scales[:r])


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
    rank, last, sign, scale = _bareiss(rows)
    if rank < n:
        return Poly.zero(rows[0][0].nvars, rows[0][0].field)
    return last.scale(Fraction(sign, scale))


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


def _lead_wrt(p: Poly, v: int, e: int, shift: int = 0) -> Poly:
    """The coefficient of v^e in p, a polynomial free of v, times v^shift.
    Moving v's exponent from e to shift keeps p's term order."""
    return Poly(p.nvars, p.field, tuple((m[:v] + (shift,) + m[v + 1:], c) for m, c in p.terms if m[v] == e))


def _pseudo_rem(f: Poly, g: Poly, v: int) -> Poly:
    """Pseudo-remainder of f by g with respect to variable v."""
    dg = _deg_in(g, v)
    lead_g = _lead_wrt(g, v, dg)
    rem = f
    while not rem.is_zero():
        dr = _deg_in(rem, v)
        if dr < dg:
            break
        rem = rem * lead_g - _lead_wrt(rem, v, dr, dr - dg) * g
    return rem


def _primitive(p: Poly, v: int) -> tuple[Poly, Poly]:
    """(content, primitive part) of a nonzero p in variable v: the content is
    the monic gcd of p's coefficients as a polynomial in v, and over QQ the
    part is also scaled to coprime integer coefficients."""
    cont = poly_gcd_list(_coeffs_wrt(p, v).values())
    part = poly_divexact(p, cont) if cont.degree() else p
    if not p.field.characteristic:
        cs = [c for _, c in part.terms]
        part = part.scale(
            Fraction(math.lcm(*(c.denominator for c in cs)), math.gcd(*(c.numerator for c in cs)))
        )
    return cont, part


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd in F[a_1..a_n] by a primitive pseudo-remainder sequence in
    the variable v of highest degree (Collins 1967; Knuth, TAOCP vol. 2,
    section 4.6.1).  Each remainder is replaced by its primitive part, over
    QQ with coprime integer coefficients, so coefficients grow only within
    one pseudo-division.  The sequence ends at a zero remainder, where the
    last divisor times the contents' gcd is the gcd, or at a part of degree
    0 in v, where the contents' gcd alone is; that gcd has no v and
    recurses."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.degree() == 0 or g.degree() == 0:
        return Poly.constant(f.nvars, f.field, 1)
    v = max(range(f.nvars), key=lambda w: max(_deg_in(f, w), _deg_in(g, w)))
    cf, a = _primitive(f, v)
    cg, b = _primitive(g, v)
    cont = poly_gcd(cf, cg)
    if _deg_in(a, v) < _deg_in(b, v):
        a, b = b, a
    while _deg_in(b, v) > 0:
        r = _pseudo_rem(a, b, v)
        if r.is_zero():
            return (b * cont).monic()
        a, b = b, _primitive(r, v)[1]
    return cont


def poly_gcd_list(polys: Iterable[Poly]) -> Poly:
    """The running monic gcd of ``polys``, read lazily.  Zero entries leave
    it unchanged, so it is 0 when every entry is 0; reading stops as soon as
    it is a constant.  An empty iterable raises ValueError."""
    acc = None
    for p in polys:
        acc = p if acc is None else poly_gcd(acc, p)
        if acc.degree() == 0:
            break
    if acc is None:
        raise ValueError("gcd of an empty list")
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
    """Product of the distinct irreducible factors (characteristic 0): p
    divided by its gcd with every partial derivative."""
    if p.field.characteristic != 0:
        raise ValueError("squarefree part implemented for characteristic 0 only")
    if p.degree() <= 0:
        return p.monic()
    derivs = (partial_derivative(p, v) for v in range(p.nvars))
    return poly_divexact(p, poly_gcd_list(itertools.chain([p], derivs))).monic()
