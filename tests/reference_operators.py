"""Dense reference operators for the four algebra models.

Every model's ``operator(w, v, i)`` returns multiplication by v in A_w from
A_i as sparse columns.  ``ref_operator_matrix`` computes the same map as a
dense ``Matrix`` by dense composition: a quotient sums product-table entries
into dense rows; a pair model is coords o (op_A(a) + op_B(b)) o basis with
dense block matrices; a quotient of a model is project o op_base(lift v); a
blowup is the Horner sum of Xi^j D(l_j) with dense blocks.  The derived
models' bodies read their parts through ``ref_operator_matrix`` again, so no
sparse column enters a reference.  ``densify`` turns sparse columns into the
dense matrix they stand for, without coercing any entry, so a drift in the
scalar types shows as a mismatch.

An algebra map's references are the former dense implementations, verbatim
but for reading the map's attributes from an argument: ``ref_map_matrix``
substitutes the variable images into each standard monomial,
``ref_lift_matrix`` solves pi(a) = e_t once per unit vector,
``ref_lift`` applies it, and ``ref_check_well_defined`` substitutes into each
reduced ideal row.
"""

import weakref

from lefschetz.algebra import GradedAlgebra
from lefschetz.constructions import BlowupAlgebra, PairAlgebra, QuotientAlgebra
from lefschetz.exactmath import Matrix, dense, solve
from lefschetz.polynomials import Poly, mono_mul


def ref_operator_matrix(alg, de, ve, i) -> Matrix:
    """The dense dim A_(i+de) x dim A_i matrix of multiplication by ve in A_de."""
    if alg.dim(de) and alg.dim(i) and alg.dim(i + de):
        return _OPERATORS[type(alg)](alg, de, tuple(ve), i)
    return Matrix.zero(alg.field, alg.dim(i + de), alg.dim(i))


def densify(field, cols, nrows) -> Matrix:
    """The dense matrix whose columns are these (row, value) pair tuples."""
    z = field.zero()
    maps = [dict(col) for col in cols]
    return Matrix(field, len(maps), tuple(tuple(m.get(r, z) for m in maps) for r in range(nrows)))


# -- algebra maps ----------------------------------------------------------------

_MATRICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # map -> {d: matrix}
_LIFTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # map -> {m: section}


def ref_check_well_defined(src, tgt, images) -> None:
    for d in range(tgt.socle_degree + 1):
        monos = src.monomial_basis(d)
        for row in src.ideal_space(d).rref_rows():
            p = Poly.make(src.nvars, src.field, {monos[c]: v for c, v in row.items()})
            if not tgt.nf_poly(p.substitute(images)).is_zero():
                raise ValueError(
                    "map is not well defined: an ideal element has nonzero image"
                )


def ref_map_matrix(pi, d: int) -> Matrix:
    """Induced map on degree-d pieces against standard bases."""
    memo = _MATRICES.setdefault(pi, {})
    if d not in memo:
        src, tgt = pi.source, pi.target
        nrows = tgt.dim(d)
        cols = []
        for m in src.basis(d):
            p = Poly.make(src.nvars, src.field, {m: src.field.one()})
            cols.append(tgt.vector(p.substitute(pi.images), d))
        memo[d] = Matrix.from_cols(src.field, cols, nrows=nrows)
    return memo[d]


def ref_lift_matrix(pi, m: int) -> Matrix:
    """A fixed section of pi on degree-m pieces (free coordinates zero)."""
    memo = _LIFTS.setdefault(pi, {})
    if m not in memo:
        cols = []
        for et in Matrix.identity(pi.source.field, pi.target.dim(m)).entries:
            sol = solve(ref_map_matrix(pi, m), et)
            if sol is None:
                raise ValueError("projection is not surjective in degree %d" % m)
            cols.append(sol)
        memo[m] = Matrix.from_cols(pi.source.field, cols, nrows=pi.source.dim(m))
    return memo[m]


def ref_lift(pi, m: int, t_vec) -> tuple:
    if pi.source.dim(m) == 0:
        return ()
    return ref_lift_matrix(pi, m).mul_vec(t_vec)


def _column(X: Matrix, j: int) -> tuple:
    return tuple(r[j] for r in X.entries)


# -- quotient ------------------------------------------------------------------


def _quotient_operator(self, w, v, i):
    p, e, table = self.field.characteristic, i + w, self._basis_product
    idx = self._index[e]
    terms = [(s, c) for s, c in zip(self._std[w], v) if c]
    rows = [[self.field.zero()] * self.dim(i) for _ in range(self.dim(e))]
    for k, m in enumerate(self._std[i]):
        for s, c in terms:
            for r, x in table(e, idx[mono_mul(s, m)]):
                rows[r][k] += c * x
    if p:
        rows = [[x % p for x in row] for row in rows]
    return Matrix(self.field, self.dim(i), tuple(map(tuple, rows)))


# -- pair model: the dense basis, ambient vectors and coordinates ---------------


def _sizes(self, d):
    return [self.A.dim(d), self.B.dim(d)]


def _basis(self, d):
    n = sum(_sizes(self, d))
    return Matrix.from_cols(self.field, [dense(self.field, n, u) for u in self._basis[d]], nrows=n)


def _ambient(self, d, vec):
    return _basis(self, d).mul_vec(vec)


def _coords(self, d, ambient_vec):
    got = tuple(ambient_vec[c] for c in self._free[d])
    if tuple(ambient_vec) != _ambient(self, d, got):
        raise ValueError("ambient vector is not in the pair subalgebra")
    return got


def _split(self, d, ambient_vec):
    na = self.A.dim(d)
    return tuple(ambient_vec[:na]), tuple(ambient_vec[na:])


def _pair_operator(self, w, v, i):
    a, b = _split(self, w, _ambient(self, w, v))
    ops = {(0, 0): ref_operator_matrix(self.A, w, a, i), (1, 1): ref_operator_matrix(self.B, w, b, i)}
    both = Matrix.blocks(self.field, _sizes(self, i + w), _sizes(self, i), ops)
    prods = both.mul(_basis(self, i)).transpose().entries
    return Matrix.from_cols(self.field, [_coords(self, i + w, p) for p in prods], nrows=self.dim(i + w))


# -- quotient of a model -------------------------------------------------------


def _lift(self, d, vec):
    F = self.field
    out = [F.zero()] * self.base.dim(d)
    for c, pos in zip(vec, self._free[d]):
        out[pos] = c
    return tuple(out)


def _project(self, d, base_vec):
    red = self._rel[d].reduce(dict(enumerate(base_vec)))
    return tuple(red.get(c, self.field.zero()) for c in self._free[d])


def _quotient_of_model_operator(self, w, v, i):
    X = ref_operator_matrix(self.base, w, _lift(self, w, v), i)
    cols = [_project(self, i + w, _column(X, c)) for c in self._free[i]]
    return Matrix.from_cols(self.field, cols, nrows=self.dim(i + w))


# -- blowup --------------------------------------------------------------------


def _diag(self, m, x, i):
    tx = self.pi.apply(m, x) if self.T.dim(m) else ()
    ops = [ref_operator_matrix(self.A, m, x, i)]
    ops += [ref_operator_matrix(self.T, m, tx, i - j) for j in range(1, self.n)]
    return Matrix.blocks(self.field, self._sizes(i + m), self._sizes(i), {(j, j): op for j, op in enumerate(ops)})


def _xi(self, k):
    F, T, n, s = self.field, self.T, self.n, k - self.n + 1
    blocks = {(1, 0): ref_map_matrix(self.pi, k)}
    blocks.update({(j + 1, j): Matrix.identity(F, T.dim(k - j)) for j in range(1, n - 1)})
    for i, t_i in self.t_coeffs:
        if t_i is not None:
            blocks[(n - i, n - 1)] = ref_operator_matrix(T, i, tuple(F.neg(x) for x in t_i), s)
    minus_lam_tau = tuple(F.mul(F.neg(self.lam), x) for x in self.tau.coords)
    blocks[(0, n - 1)] = ref_operator_matrix(self.A, n, minus_lam_tau, s).mul(ref_lift_matrix(self.pi, s))
    return Matrix.blocks(F, self._sizes(k + 1), self._sizes(k), blocks)


def _blowup_operator(self, w, v, i):
    a, slots = self.split(w, v)
    lifts = [a] + [ref_lift(self.pi, w - j, t) for j, t in enumerate(slots, start=1)]
    # Horner, sum_j Xi^j D(l_j) = D(l_0) + Xi (D(l_1) + Xi (D(l_2) + ...)),
    # skipping the terms of zero l_j
    out = None
    for j in reversed(range(self.n)):
        if out is not None:
            out = _xi(self, i + w - j - 1).mul(out)
        if any(lifts[j]):
            D = _diag(self, w - j, lifts[j], i)
            out = D if out is None else out.add(D)
    return out if out is not None else Matrix.zero(self.field, self.dim(i + w), self.dim(i))


_OPERATORS = {
    GradedAlgebra: _quotient_operator,
    PairAlgebra: _pair_operator,
    QuotientAlgebra: _quotient_of_model_operator,
    BlowupAlgebra: _blowup_operator,
}
