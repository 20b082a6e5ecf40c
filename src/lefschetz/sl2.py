"""sl2 triples attached to strong Lefschetz elements and weight decompositions.

Characteristic zero throughout.  A narrow-sense Lefschetz element makes the
whole algebra an sl2 representation with E the multiplication operator and
H acting on A_i by 2i - c.  The triple is built one degree at a time in the
graded basis, on the sparse integer columns of the chains of L: only the
lowering operator F has to be solved for, off one row space per degree, with
the normalisations of the standard irreducible model.  As in the chains, each
operator is a known integer multiple of the true one until the returned
triple, which alone is dense and holds ``Fraction``s.
``weight_decomposition`` (integer eigenvalue search) and ``verify_triple``
remain as dense checks for arbitrary matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .checks import RankTable, _jordan_type, degree_one_vector
from .exactmath import (FieldSpec, Matrix, QQ, RowSpace, apply_columns, dense, kernel_basis, kernel_space, nonzero,
                        rows_of)


@dataclass(frozen=True)
class Sl2Triple:
    e: Matrix
    h: Matrix
    f: Matrix

    @property
    def size(self) -> int:
        return self.e.rows


@dataclass(frozen=True)
class WeightDecomposition:
    """Integer weight -> basis of the eigenspace of H."""

    spaces: tuple  # ((weight, (vectors...)), ...) sorted by weight

    def weights(self) -> dict:
        return {w: len(vs) for w, vs in self.spaces}

    def basis(self, weight: int) -> tuple:
        for w, vs in self.spaces:
            if w == weight:
                return vs
        return ()


def verify_triple(t: Sl2Triple) -> bool:
    """Exact check of [E,F]=H, [H,E]=2E, [H,F]=-2F."""
    for m in (t.e, t.h, t.f):
        if m.rows != m.cols:
            raise ValueError("triple matrices must be square")
    if not (t.e.rows == t.h.rows == t.f.rows):
        raise ValueError("triple matrices must share one size")
    F = t.e.field
    if F.characteristic != 0:
        raise ValueError("sl2 machinery requires characteristic zero")

    def scaled(m: Matrix, c: int) -> Matrix:
        return Matrix(F, m.cols, tuple(tuple(F.mul(F.from_int(c), x) for x in r) for r in m.entries))

    # [A, B] = C as AB = BA + C
    return (
        t.e.mul(t.f) == t.f.mul(t.e).add(t.h)
        and t.h.mul(t.e) == t.e.mul(t.h).add(scaled(t.e, 2))
        and t.h.mul(t.f) == t.f.mul(t.h).add(scaled(t.f, -2))
    )


def model_rep(d: int) -> Sl2Triple:
    """The irreducible representation on binary forms of degree d over QQ.

    Operators x d/dy, x d/dx - y d/dy, y d/dx in the basis
    x^d, x^{d-1}y, ..., y^d; the H eigenvalue of x^a y^b is a - b.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = d + 1
    z = QQ.zero()
    e = [[z] * n for _ in range(n)]
    f = [[z] * n for _ in range(n)]
    h = [[z] * n for _ in range(n)]
    for i in range(n):  # basis vector x^{d-i} y^i
        h[i][i] = QQ.from_int(d - 2 * i)
        if i > 0:
            e[i - 1][i] = QQ.from_int(i)
        if i < d:
            f[i + 1][i] = QQ.from_int(d - i)
    mk = lambda rows: Matrix(QQ, n, tuple(tuple(r) for r in rows))
    return Sl2Triple(mk(e), mk(h), mk(f))


def _scalar(F: FieldSpec, n: int, value: int) -> Matrix:
    x, z = F.from_int(value), F.zero()
    return Matrix(F, n, tuple(tuple(x if i == j else z for j in range(n)) for i in range(n)))


def triple_from_lefschetz(alg, L) -> Sl2Triple:
    """sl2 triple with E multiplication by a narrow-sense witness.

    Built degree by degree in the graded basis, on the sparse integer
    columns of the rank table's chain of L.  E_k : A_k -> A_{k+1} is the
    step of L and H acts on A_k by 2k - c.  The chain vectors of A_k are
    the primitive vectors v of the centred strands and their pushes L^j v,
    and F sends L^j v to j(d - j + 1) L^{j-1} v on a strand of length
    d + 1: the rows (u | F u) of A_k's chain vectors reduce to
    (e_i | F e_i) exactly when they are a basis.

    Up to the dense triple all is integral.  The step is E'_k = sigma_k E_k
    (sigma = ``chains.scales``), the primitive vectors u'_0 are the integer
    kernel rows of the chain's L^{d+1} on A_s, and u'_j = E' u'_{j-1}, so
    the strand rows (u'_j | j(d - j + 1) sigma_{s+j-1} u'_{j-1}) are
    multiples of the true ones, with the same span.  The reduced rows are stored as
    lead * (e_i | F e_i), so F'_k = lambda_k F_k with lambda_k the lcm of
    their leads.  [E, F] = H is checked on every basis vector as
    lambda_{k+1} sigma_k E'F' e_i - sigma_{k-1} lambda_k F'E' e_i =
    (2k - c) sigma_{k-1} lambda_k lambda_{k+1} sigma_k e_i ([H, E] = 2E and
    [H, F] = -2F hold by degree); ``Fraction``s are made only for the
    dense triple.  Refuses linear forms that are not narrow-sense
    Lefschetz elements: the strands are certified centred and the chain
    vectors a basis of every A_k.
    """
    F = alg.field
    if F.characteristic != 0:
        raise ValueError("sl2 machinery requires characteristic zero")
    table = RankTable(alg, degree_one_vector(alg, L))
    jt = _jordan_type(table)
    c = alg.socle_degree
    for start, length in jt.starts:
        if 2 * start + length - 1 != c:
            raise ValueError(
                "element is not a narrow-sense Lefschetz witness: "
                f"strand at degree {start} of length {length} is not centered"
            )
    chains = table.chains
    dims, sigma = chains.dims, chains.scales
    E = [[tuple(col.items()) for col in chains.power(1, k)] for k in range(c)]  # sigma_k E_k
    # per degree k: the rows (u | F u) of its chain vectors, F u past A_k
    graph: list[list[dict]] = [[] for _ in range(c + 1)]
    for s in range(c // 2 + 1):
        d = c - 2 * s  # strands starting in A_s end in A_{c-s}
        # primitive vectors: the kernel of L^{d+1} : A_s -> A_{c-s+1}
        power = rows_of([col.items() for col in chains.power(d + 1, s)], dims[c - s + 1]) if s else ()
        vs = [v for _, v in kernel_space(F, dims[s], power).span_rows()]
        prev: list[dict] = [{} for _ in vs]
        for j in range(d + 1):
            w = j and j * (d - j + 1) * sigma[s + j - 1]
            graph[s + j] += [{**v, **{dims[s + j] + r: w * x for r, x in u.items()}} for v, u in zip(vs, prev)]
            if j < d:
                prev, vs = vs, [apply_columns(E[s + j], v.items(), 0) for v in vs]
    f_cols, lam = [], []  # lambda_k F_k, lambda_k
    for k, rows in enumerate(graph):
        n = dims[k]
        space = RowSpace(F, n + (dims[k - 1] if k else 0))
        for row in rows:
            space.add(row)
        if len(rows) != n or space.pivots() != list(range(n)):
            raise ValueError("element is not a narrow-sense Lefschetz witness")
        red = dict(space.span_rows())  # pivot i -> lead * (e_i | F e_i)
        lam.append(math.lcm(*(red[i][i] for i in range(n))))
        f_cols.append([tuple((col - n, lam[k] // red[i][i] * x) for col, x in red[i].items() if col >= n)
                       for i in range(n)])
    for k in range(c + 1):
        a = lam[k + 1] * sigma[k] if k < c else 1
        b = sigma[k - 1] * lam[k] if k else 1
        for i in range(dims[k]):
            ef = apply_columns(E[k - 1], ((r, a * x) for r, x in f_cols[k][i]), 0) if k else {}
            fe = apply_columns(f_cols[k + 1], ((r, b * x) for r, x in E[k][i]), 0) if k < c else {}
            fe[i] = fe.get(i, 0) + (2 * k - c) * a * b
            if ef != nonzero(fe, 0):
                raise AssertionError("constructed operators fail the bracket relations")
    blk = lambda cols, n, scale: Matrix.from_cols(
        F, [dense(F, n, {r: Fraction(x, scale) for r, x in col}) for col in cols], nrows=n)
    return Sl2Triple(
        Matrix.blocks(F, dims, dims, {(k + 1, k): blk(E[k], dims[k + 1], sigma[k]) for k in range(c)}),
        Matrix.blocks(F, dims, dims, {(k, k): _scalar(F, dims[k], 2 * k - c) for k in range(c + 1)}),
        Matrix.blocks(F, dims, dims, {(k - 1, k): blk(f_cols[k], dims[k - 1], lam[k]) for k in range(1, c + 1)}),
    )


def weight_decomposition(h: Matrix) -> WeightDecomposition:
    """Eigenspaces of H found by integer search over [-size, size]."""
    F = h.field
    n = h.rows
    if n != h.cols:
        raise ValueError("H must be square")
    spaces = []
    found = 0
    for lam in range(-n, n + 1):
        kern = kernel_basis(h.add(_scalar(F, n, -lam)))
        if kern:
            spaces.append((lam, tuple(kern)))
            found += len(kern)
    if found != n:
        raise ValueError("eigenspaces do not span: H is not a valid weight operator")
    dims = {w: len(vs) for w, vs in spaces}
    for w, k in dims.items():
        if dims.get(-w, 0) != k:
            raise ValueError("weight multiplicities are not symmetric about 0")
    return WeightDecomposition(tuple(sorted(spaces)))


def irreducible_decomposition(weights: Sequence[int]) -> tuple:
    """Multiset of irreducible dimensions peeled from an H spectrum."""
    from collections import Counter

    pool = Counter(int(w) for w in weights)
    if any(pool[w] != pool[-w] for w in pool):
        raise ValueError("weight multiset is not symmetric about 0")
    dims = []
    while any(pool.values()):
        m = max(w for w, k in pool.items() if k > 0)
        lam = m
        while lam >= -m:
            if pool[lam] <= 0:
                raise ValueError("weight multiset cannot be peeled into strings")
            pool[lam] -= 1
            lam -= 2
        dims.append(m + 1)
    return tuple(sorted(dims, reverse=True))


def slpn_via_weights(alg, L) -> bool:
    """Narrow-sense check through the construction of an sl2 triple.

    True exactly when ``triple_from_lefschetz`` succeeds, which certifies
    centred strands, an invertible chain basis in every degree and
    [E, F] = H; the weight of A_i is then 2i - c by construction.
    """
    try:
        triple_from_lefschetz(alg, L)
    except ValueError:
        return False
    return True
