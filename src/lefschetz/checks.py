"""Weak/strong/narrow Lefschetz deciders, Jordan types, loci and Hessians.

Concrete linear forms give exact verdicts by rank computations
(``report_for_element``).  A generic verdict is the element verdict at a
well-chosen form, because rank deficiency is a Zariski-closed condition: one
candidate loop sends seeded forms, or every point of the projective space over
a small finite field, through ``report_for_element``, and the first form that
holds is an exact witness.  Negatives keep the best rank seen per map and, in
characteristic zero, escalate to fraction-free symbolic ranks over the
function field of the coefficients.

Every algebra model is read through the generator maps X_g : A_i -> A_{i+w}
that ``algebra.algebra_generators`` builds once per algebra, and every power
of a linear form through one map source, the maps X_{g_j} of the degree-one
generators g_j (``integer_maps``).  A concrete L = sum c_k e_k is
sum c_k X_{g_j} with g_j the first degree-one generator whose vector is e_k,
and the generic form is sum a_j X_{g_j}; those generators parametrise the
candidate elements and the non-Lefschetz loci.  Every power L^d, concrete or
generic, comes from one builder, ``PowerChains``: L on A_i is the sparse
step, and each further power pushes its columns through the next step.  Over
QQ the chains push integers: ``integer_maps`` scales the maps on A_e by the
lcm of their denominators, a concrete L's coordinates are scaled by the lcm
of theirs, and each power is a known nonzero integer multiple of the true one.

Concrete ranks come from ``RankTable``, one chain per linear form, which does
exact work only where no certificate applies.  On a Gorenstein algebra
(``algebra.is_gorenstein``, one memoised answer per algebra) L^d on A_i and
L^d on A_{c-i-d} are adjoint under the perfect Poincare pairing, so a rank is
keyed and computed at (d, min(i, c-i-d)); the symbolic escalation and the
non-Lefschetz loci take one map of each adjoint pair too.  If every narrow map
L^{c-2i} : A_i -> A_{c-i} is bijective, every power map L^d has full rank,
since it is a right factor of an injective narrow map or a left factor of a
surjective one.  On a Gorenstein algebra generated in degree one, a full
middle map L : A_m -> A_{m+1}, m = floor((c-1)/2), makes every L : A_j ->
A_{j+1} full.  Over QQ ``PowerChains.rank`` first ranks a power's integer
columns modulo the word-size prime ``MODULAR_PRIME``: reduction ZZ -> F_p is a
ring map, so a minor that is nonzero mod p is nonzero over ZZ, and a full rank
mod p is the rank over QQ.  Only a power deficient mod p is ranked over ZZ.
Every rank is read off a chain's sparse columns by the fraction-free count
``exactmath.echelon_rank``, with no dense matrix and no ``Fraction``.
"""

from __future__ import annotations

import itertools
import math
import random
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import GradedAlgebra, algebra_generators, hilbert_function, is_gorenstein
from .exactmath import Matrix, Scalar, det, echelon_rank, nonzero
from .polynomials import (
    DualPoly,
    Poly,
    contract,
    from_ordinary,
    to_ordinary,
)
from .symbolic import (
    fraction_free_echelon,
    poly_det,
    poly_gcd_list,
    squarefree_part,
)


@dataclass(frozen=True)
class MapRecord:
    i: int
    d: int
    expected: int
    achieved: int

    @property
    def full(self) -> bool:
        return self.achieved == self.expected


@dataclass(frozen=True)
class LefschetzReport:
    mode: str
    maps: tuple
    holds: Optional[bool]
    witness: Optional[dict]
    certification: str
    notes: tuple = ()

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "maps": [
                {
                    "i": m.i,
                    "d": m.d,
                    "expected": m.expected,
                    "achieved": m.achieved,
                    "full": m.full,
                }
                for m in self.maps
            ],
            "verdict": self.holds,
            "witness": self.witness,
            "certification": self.certification,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class GenericityConfig:
    seed: int = 0
    trials: int = 3
    bound: int = 10_000
    certify: bool = False

    def __post_init__(self):
        if self.trials < 1 or self.bound < 1:
            raise ValueError(f"trials and bound must be at least 1, got {self.trials} and {self.bound}")

    def effective_bound(self, alg) -> int:
        # keep the Schwartz-Zippel margin comfortable
        dims = [alg.dim(d) for d in range(alg.socle_degree + 1)]
        need = alg.socle_degree * max(dims + [1]) + 1
        return max(self.bound, need)


@dataclass(frozen=True)
class JordanType:
    parts: tuple
    starts: tuple  # ((start_degree, length), ...) one entry per strand

    def as_dict(self) -> dict:
        return {"parts": list(self.parts), "starts": [list(s) for s in self.starts]}


# ---------------------------------------------------------------------------
# Degree-one coordinates, powers of a linear form and concrete rank tables
# ---------------------------------------------------------------------------


def degree_one_coordinates(alg) -> list[tuple[str, tuple]]:
    """Coordinates that parametrise candidate Lefschetz elements: the labels
    and vectors of the degree-one generators (``algebra_generators``), so the
    weight-one variables of a quotient and the basis of A_1 otherwise."""
    return [(g.label, g.vector) for g in algebra_generators(alg) if g.degree == 1]


def combine_coordinates(alg, coords, coeffs) -> tuple:
    """sum c * vec over the (label, vec) coordinates and their coefficients
    c, in plain arithmetic, skipping zeros, with one reduction mod p."""
    F = alg.field
    p = F.characteristic
    out = [F.zero()] * alg.dim(1)
    for (_, vec), c in zip(coords, coeffs):
        c = F.coerce(c)
        for k, v in enumerate(vec) if c else ():
            if v:
                out[k] += c * v
    return tuple(x % p for x in out) if p else tuple(out)


def degree_one_vector(alg, L) -> tuple:
    """Coerce a linear form (Poly or coordinate vector) into A_1."""
    if isinstance(L, Poly):
        if not isinstance(alg, GradedAlgebra):
            raise TypeError("polynomial linear forms require a quotient algebra")
        if L.is_zero():
            return tuple(alg.field.zero() for _ in range(alg.dim(1)))
        if not alg.ring.is_homogeneous(L) or alg.ring.degree(L) != 1:
            raise ValueError("Lefschetz element must be homogeneous of degree 1")
        return alg.vector(L, 1)
    vec = tuple(alg.field.coerce(c) for c in L)
    if len(vec) != alg.dim(1):
        raise ValueError("coordinate vector has wrong length")
    return vec


# Word-size prime of the modular rank certificate over QQ (``PowerChains.rank``).
MODULAR_PRIME = 2**31 - 1


class PowerChains:
    """L^d : A_i -> A_{i+d} for one linear form L, as sparse columns.

    Each (row, value) pair of column col of X_j : A_e -> A_{e+1}
    (``maps[e][j]``) adds c * value at key offset * stride + row of column col
    of the step of L on A_e, for ``terms[j] = (offset, c)``: offsets are 0 for
    a concrete L, and pack an exponent of a above the row for the generic
    form.  L^1 on A_i is the step, built on first read; each further power is
    one push, memoised per A_i.

    Over QQ the maps and terms are integers (``integer_maps``), so the step
    on A_e is ``scales[e]`` times the true one and L^d on A_i is the product
    of those scales times the true power: the same rank, read fraction-free
    by ``rank``, and the true values by ``exact``.  Over GF(p) every scale
    is 1."""

    def __init__(self, field, dims: Sequence[int], maps: list, terms: Sequence[tuple], scales: Sequence[int]):
        self.field, self.dims, self.stride, self._p = field, dims, max(dims) + 1, field.characteristic
        self._maps, self._terms = maps, terms
        self.scales = scales
        self._steps: dict = {}  # e -> columns of the step of L on A_e
        self._chains: dict = {}  # i -> [columns of L^1, L^2, ... on A_i]

    def step(self, e: int) -> list[dict]:
        """The columns of the step of L on A_e, built when first read."""
        got = self._steps.get(e)
        if got is None:
            step = [{} for _ in range(self.dims[e])]
            for (offset, c), cols in zip(self._terms, self._maps[e]):
                base = offset * self.stride
                for acc, col in zip(step, cols) if c else ():
                    for r, v in col:
                        acc[base + r] = acc.get(base + r, 0) + c * v
            got = self._steps[e] = [nonzero(col, self._p) for col in step]
        return got

    def power(self, d: int, i: int) -> list[dict]:
        """The columns of L^d on A_i for d >= 1: the step itself for d = 1,
        then one push per further degree."""
        chain = self._chains.setdefault(i, [self.step(i)])
        while len(chain) < d:
            chain.append(_push(chain[-1], self.step(i + len(chain)), self.stride, self._p))
        return chain[d - 1]

    def exact(self, d: int, i: int) -> list[dict]:
        """The columns of L^d on A_i with their true values: over QQ each
        pushed value divided, as a ``Fraction``, by the chain's scale."""
        if self._p:
            return self.power(d, i)
        scale = math.prod(self.scales[i:i + d])
        return [{k: Fraction(x, scale) for k, x in col.items()} for col in self.power(d, i)]

    def rank(self, d: int, i: int) -> int:
        """The rank of L^d on A_i: ``echelon_rank`` of its columns, stopped
        at min(h_i, h_{i+d}).  Over QQ the integer columns are ranked modulo
        ``MODULAR_PRIME`` first, and over ZZ only when that rank is short:
        the rank mod p is at most the rank over ZZ, so a full one is it."""
        cols, full = self.power(d, i), min(self.dims[i], self.dims[i + d])
        if not self._p and echelon_rank((nonzero(c, MODULAR_PRIME) for c in cols), MODULAR_PRIME, full) == full:
            return full
        return echelon_rank(cols, self._p, full)


_INTEGER_MAPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # algebra -> (maps, scales, slots)


def integer_maps(alg) -> tuple[list, list]:
    """The maps of the degree-one generators g_j (``algebra_generators``),
    ``maps[e][j]`` the columns of X_{g_j} on A_e, with their scales,
    memoised per algebra: over QQ every value on A_e is multiplied by
    lambda_e, the lcm of the denominators of the maps' values there, and
    ``scales[e]`` is lambda_e.  Over GF(p) the maps themselves, with every
    scale 1.  They are the one map source of every chain of a linear form."""
    return _chain_source(alg)[:2]


def _chain_source(alg) -> tuple[list, list, list]:
    """``integer_maps`` with the slots of the degree-one generators,
    memoised together per algebra: ``slots[j]`` is k when g_j is the first
    degree-one generator whose vector is e_k, so coordinate k of a linear
    form goes on X_{g_j}, and None for every other generator."""
    got = _INTEGER_MAPS.get(alg)
    if got is None:
        gens = [g for g in algebra_generators(alg) if g.degree == 1]
        maps = [[g.maps[e] for g in gens] for e in range(alg.socle_degree)]
        scales = [1] * len(maps)
        if not alg.field.characteristic:
            scales = [math.lcm(*(v.denominator for X in per_e for col in X for _, v in col)) for per_e in maps]
            maps = [[[tuple((r, v.numerator * (s // v.denominator)) for r, v in col) for col in X]
                     for X in per_e] for per_e, s in zip(maps, scales)]
        slots: list = []
        for g in gens:
            k = g.vector.index(1) if sum(map(bool, g.vector)) == 1 and 1 in g.vector else None
            slots.append(None if k in slots else k)
        if len(set(slots) - {None}) != alg.dim(1):
            raise AssertionError("a coordinate of A_1 is the vector of no degree-one generator")
        got = _INTEGER_MAPS[alg] = maps, scales, slots
    return got


def _push(cols: list[dict], step: list[dict], stride: int, p: int) -> list[dict]:
    """Sparse columns on A_e pushed through one step into A_{e+1}: a key's row
    selects the step's column, whose keys add on top of the key's exponent."""
    out = []
    for col in cols:
        acc: dict = {}
        get = acc.get
        for key, x in col.items():
            r = key % stride
            base = key - r
            for k, v in step[r].items():
                k += base
                acc[k] = get(k, 0) + x * v
        out.append(nonzero(acc, p))
    return out


def power_map_matrix(table: "RankTable", d: int, i: int) -> Matrix:
    """L^d : A_i -> A_{i+d} of a rank table's form as a dense dim A_{i+d} x dim A_i
    matrix (zero through an empty degree).  The library reads no power
    densely; this view is the tests' reference."""
    chains = table.chains
    cols, z = chains.exact(d, i), chains.field.zero()
    return Matrix(chains.field, len(cols), tuple(tuple(c.get(r, z) for c in cols) for r in range(chains.dims[i + d])))


class RankTable:
    """Ranks of L^d : A_i -> A_{i+d}, memoised, off one chain of L.

    ``chains`` pushes L through the degree-one generator maps of
    ``integer_maps``: coordinate k of L goes on its slot, the first
    degree-one generator whose vector is e_k (on a quotient, the k-th
    standard variable or an earlier variable equal to it in A), found once
    per algebra beside the maps, and over QQ the coordinates are scaled by
    mu, the lcm of their denominators, so the step on A_e is mu * lambda_e
    times L's.  Each map is ranked by ``PowerChains.rank``, modulo
    ``MODULAR_PRIME`` first and over ZZ only if deficient there.

    Dual key: on a Gorenstein algebra (``is_gorenstein``, read once) of
    socle degree c the pairing A_j x A_{c-j} -> A_c is perfect and
    <L^d a, b> = <a, L^d b>, so L^d on A_i and L^d on A_{c-i-d} are adjoint
    and have equal rank, for every L over any field.  A rank is then keyed,
    and ranked, at (d, min(i, c-i-d)): a chain is pushed at most to its
    narrow map.

    Narrow-map certificate: when every narrow map L^{c-2i} : A_i -> A_{c-i}
    is bijective, every L^d has full rank, because each L^d is a factor of a
    narrow map on the left or the right.  If i + d <= c - i, the narrow map
    on A_i is L^{c-2i-d} o L^d, so L^d is injective; otherwise the narrow map
    on A_{c-i-d} is L^d o L^{2i+d-c}, so L^d is surjective.  A rank with
    d >= 2 therefore first ranks the O(c) narrow maps and returns
    min(h_i, h_{i+d}) when they are all bijective; WLP (d = 1) never pays for
    the check, but d = 1 uses it once it has been made.  If one narrow map
    is deficient, every map is ranked.

    Middle-map certificate (d = 1): suppose A is Gorenstein and generated
    in degree one (every ``algebra_generators`` entry has degree 1), and let
    m = floor((c-1)/2).  If L : A_m -> A_{m+1} has full rank, every
    L : A_j -> A_{j+1} has.  By duality L is injective on A_j exactly when
    it is surjective on A_{c-1-j}, and surjectivity propagates upwards,
    since A_{j+2} = A_1 A_{j+1} = A_1 L A_j lies in L A_{j+1}.  If h_m <=
    h_{m+1}, L is injective on A_m, so surjective on A_{c-1-m} and above,
    so injective on A_m and below: full on every A_j, and h is unimodal.
    Otherwise c = 2m + 2 and L would be surjective on A_m, hence on
    A_{m+1}, so h_{m+1} >= h_{m+2} = h_m: the middle map is not full.
    (Unimodal h is thus implied, not assumed.)  A d = 1 rank therefore
    first ranks the middle map, which WLP needs anyway, and returns
    min(h_i, h_{i+1}) when it is full.
    """

    def __init__(self, alg, Lvec):
        self.alg = alg
        self._Lvec = Lvec
        self._dims = hilbert_function(alg)
        self._gorenstein = is_gorenstein(alg)
        self._ranks: dict = {}
        self._narrow: Optional[bool] = None
        self._middle: Optional[bool] = None
        maps, scales, slots = _chain_source(alg)
        mu = math.lcm(*(c.denominator for c in Lvec))
        terms = [(0, 0 if k is None else Lvec[k].numerator * (mu // Lvec[k].denominator)) for k in slots]
        self.chains = PowerChains(alg.field, self._dims, maps, terms, [mu * s for s in scales])

    def rank(self, d: int, i: int) -> int:
        D = self.alg.socle_degree
        if i < 0 or i + d > D:
            return 0
        if d == 0:
            return self._dims[i]
        if (d >= 2 or self._narrow is not None) and self._narrow_bijective():
            return min(self._dims[i], self._dims[i + d])
        if d == 1 and self._middle_full():
            return min(self._dims[i], self._dims[i + 1])
        return self._exact_rank(d, i)

    def _narrow_bijective(self) -> bool:
        if self._narrow is None:
            h, c = self._dims, self.alg.socle_degree
            self._narrow = h == h[::-1] and all(
                self._exact_rank(c - 2 * i, i) == h[i] for i in range((c + 1) // 2)
            )
        return self._narrow

    def _middle_full(self) -> bool:
        if self._middle is None:
            h, m = self._dims, (self.alg.socle_degree - 1) // 2
            self._middle = (self._gorenstein and all(g.degree == 1 for g in algebra_generators(self.alg))
                            and self._exact_rank(1, m) == min(h[m], h[m + 1]))
        return self._middle

    def _exact_rank(self, d: int, i: int) -> int:
        if self._gorenstein:
            i = min(i, self.alg.socle_degree - i - d)
        key = (d, i)
        if key not in self._ranks:
            self._ranks[key] = self.chains.rank(d, i)
        return self._ranks[key]


def _map_list(alg, mode: str) -> list[tuple[int, int]]:
    """The (d, i) pairs a mode must check."""
    c = alg.socle_degree
    if mode == "wlp":
        return [(1, i) for i in range(c)]
    if mode == "slp":
        return [(d, i) for d in range(1, c + 1) for i in range(c - d + 1)]
    if mode == "slpn":
        return [(c - 2 * i, i) for i in range(c // 2 + 1) if c - 2 * i > 0]
    raise ValueError(f"unknown mode {mode!r}")


def _expected(alg, d: int, i: int) -> int:
    return min(alg.dim(i), alg.dim(i + d))


def report_for_element(alg, L, mode: str) -> LefschetzReport:
    table = RankTable(alg, degree_one_vector(alg, L))
    maps = tuple(MapRecord(i, d, _expected(alg, d, i), table.rank(d, i)) for d, i in _map_list(alg, mode))
    if mode == "slpn" and not symmetric(hilbert_function(alg)):
        return LefschetzReport(mode, maps, False, None, "element", ("Hilbert function is not symmetric",))
    return LefschetzReport(mode, maps, all(m.full for m in maps), None, "element")


def wlp_for_element(alg, L) -> LefschetzReport:
    return report_for_element(alg, L, "wlp")


def slp_for_element(alg, L) -> LefschetzReport:
    return report_for_element(alg, L, "slp")


def slpn_for_element(alg, L) -> LefschetzReport:
    return report_for_element(alg, L, "slpn")


# ---------------------------------------------------------------------------
# Generic verdicts
# ---------------------------------------------------------------------------


def _generic_powers(alg, top: int):
    """A reader power(d, i) of L^d : A_i -> A_{i+d}, d <= top, for the generic
    form sum a_j g_j over the degree-one generators g_j: chains through
    sum a_j X_{g_j}, a_j adding one base-(top+1) digit to the packed exponent
    of a, A_i pushed once per reader.  Over QQ the chains push the integer
    maps (``integer_maps``), and each entry is divided by the chain's scale
    and made a ``Poly`` only at the end."""
    maps, scales = integer_maps(alg)
    k, base, dims = len(degree_one_coordinates(alg)), top + 1, hilbert_function(alg)
    chains = PowerChains(alg.field, dims, maps, [(base**j, 1) for j in range(k)], scales)

    def power(d: int, i: int) -> list[list[Poly]]:
        rows = [[{} for _ in range(dims[i])] for _ in range(dims[i + d])]
        for c, col in enumerate(chains.exact(d, i)):
            for key, x in col.items():
                m, r = divmod(key, chains.stride)
                rows[r][c][tuple(m // base**j % base for j in range(k))] = x
        return [[Poly.make(k, alg.field, t) for t in row] for row in rows]

    return power


def _symbolic_step_matrices(alg) -> list[list[list[Poly]]]:
    """The generic form's step matrices A_i -> A_{i+1}, for i = 0..D-1, off
    one reader of ``_generic_powers``."""
    power = _generic_powers(alg, 1)
    return [power(1, i) for i in range(alg.socle_degree)]


# ``generic_report`` enumerates P^{n-1}(GF(p)) when p^n <= EXHAUSTIVE_LIMIT.  Over QQ
# it ranks negatives symbolically with ``cfg.certify``, or when n <= SYMBOLIC_AMBIENT_LIMIT
# and sum(h) <= SYMBOLIC_DIM_LIMIT; other negatives are labelled randomized.
EXHAUSTIVE_LIMIT = 2048
SYMBOLIC_AMBIENT_LIMIT = 6
SYMBOLIC_DIM_LIMIT = 60


def generic_report(alg, mode: str, cfg: GenericityConfig = GenericityConfig()) -> LefschetzReport:
    """Search for a Lefschetz element; certify negatives when feasible.

    Lefschetz is an open condition on L, so a generic verdict is the element
    verdict of ``report_for_element`` at a well-chosen candidate, and one
    loop decides every candidate: the points of the projective space over a
    small GF(p) ("exhaustive"), else ``cfg.trials`` seeded ones ("witness").
    The first candidate that holds is an exact witness.  Otherwise ``best``
    keeps the highest rank seen per map; in characteristic zero the maps
    still deficient are ranked over the rational function field of the
    coefficients, and full generic ranks send 8 more seeded candidates
    through the same loop to exhibit a witness ("symbolic").
    """
    coords = degree_one_coordinates(alg)
    h, p = hilbert_function(alg), alg.field.characteristic
    best = {(d, i): MapRecord(i, d, _expected(alg, d, i), 0) for d, i in _map_list(alg, mode)}
    notes: tuple = ()

    def verdict(holds: bool, cert: str, *extra: str) -> LefschetzReport:
        return LefschetzReport(mode, tuple(best.values()), holds, None, cert, notes + extra)

    def search(candidates, cert: str) -> Optional[LefschetzReport]:
        for coeffs in candidates:
            rep = report_for_element(alg, combine_coordinates(alg, coords, coeffs), mode)
            if rep.holds:
                witness = {label: str(c) for (label, _), c in zip(coords, coeffs)}
                return LefschetzReport(mode, rep.maps, True, witness, cert, notes)
            for m in rep.maps:
                if m.achieved > best[m.d, m.i].achieved:
                    best[m.d, m.i] = m
        return None

    if mode == "slpn" and not symmetric(h):
        return verdict(False, "exact", "Hilbert function is not symmetric")
    if not coords:
        return verdict(all(m.full for m in best.values()), "exact", "A_1 = 0")
    if p and p ** len(coords) <= EXHAUSTIVE_LIMIT:
        # c L has the ranks of L: one point per line, first nonzero coordinate 1
        points = (c for c in itertools.product(range(p), repeat=len(coords)) if next(filter(None, c), 0) == 1)
        return search(points, "exhaustive") or verdict(False, "exhaustive")
    if p:
        notes = (f"finite field too large to enumerate ({p}^{len(coords)})",)
    rng = random.Random(cfg.seed)
    bound = cfg.effective_bound(alg)

    def draws(n: int):
        return (tuple(rng.randint(1, bound) for _ in coords) for _ in range(n))

    found = search(draws(cfg.trials), "witness")
    if found:
        return found
    if p == 0 and (cfg.certify or (len(coords) <= SYMBOLIC_AMBIENT_LIMIT and sum(h) <= SYMBOLIC_DIM_LIMIT)):
        deficient = [m for m in best.values() if not m.full]
        power = _generic_powers(alg, max((m.d for m in deficient), default=0))
        # on a Gorenstein algebra the maps on A_i and A_{D-i-d} are adjoint,
        # with equal ranks and, h being symmetric, equal expected ranks: one
        # symbolic rank per adjoint pair
        D, gorenstein, ranked = alg.socle_degree, is_gorenstein(alg), {}
        for m in deficient:
            key = (m.d, min(m.i, D - m.i - m.d) if gorenstein else m.i)
            if key not in ranked:
                ranked[key] = fraction_free_echelon(power(*key), stop_at=m.expected)
            best[m.d, m.i] = replace(m, achieved=ranked[key])
        if not all(m.full for m in best.values()):
            return verdict(False, "symbolic")
        # a common witness exists over the infinite base field; sample a few
        # more points to exhibit one
        return search(draws(8), "symbolic") or verdict(
            True, "symbolic", "generic ranks are full but no sampled witness; reporting holds")
    return verdict(False, "randomized",
                   f"randomized only ({cfg.trials} trials, bound {bound}): negatives are probabilistic")


def wlp_generic(alg, cfg: GenericityConfig = GenericityConfig()) -> LefschetzReport:
    return generic_report(alg, "wlp", cfg)


def slp_generic(alg, cfg: GenericityConfig = GenericityConfig()) -> LefschetzReport:
    return generic_report(alg, "slp", cfg)


def slpn_generic(alg, cfg: GenericityConfig = GenericityConfig()) -> LefschetzReport:
    return generic_report(alg, "slpn", cfg)


# ---------------------------------------------------------------------------
# Jordan types
# ---------------------------------------------------------------------------


def jordan_type(alg, L) -> JordanType:
    """Block partition of multiplication by L, with graded strand starts."""
    return _jordan_type(RankTable(alg, degree_one_vector(alg, L)))


def _jordan_type(table: RankTable) -> JordanType:
    alg = table.alg
    D = alg.socle_degree
    total = sum(hilbert_function(alg))
    r = table.rank
    starts = []
    for i in range(D + 1):
        for length in range(1, D - i + 2):
            cnt = (
                r(length - 1, i)
                - r(length, i - 1)
                - r(length, i)
                + r(length + 1, i - 1)
            )
            for _ in range(cnt):
                starts.append((i, length))
    parts = tuple(sorted((length for _, length in starts), reverse=True))
    if sum(parts) != total:
        raise AssertionError("strand bookkeeping lost dimensions")
    return JordanType(parts, tuple(sorted(starts)))


def unimodal(h: Sequence[int]) -> bool:
    seq = list(h)
    if not seq:
        return True
    peak = seq.index(max(seq))
    return all(seq[i] <= seq[i + 1] for i in range(peak)) and all(
        seq[i] >= seq[i + 1] for i in range(peak, len(seq) - 1)
    )


def symmetric(h: Sequence[int]) -> bool:
    seq = list(h)
    return seq == list(reversed(seq))


# ---------------------------------------------------------------------------
# Non-Lefschetz loci
# ---------------------------------------------------------------------------


# Largest sum(h) ``nll_conditions`` takes.  It bounds the minors too: h_0 = 1, so
# h_i + h_{i+d} <= 23 for i >= 1, at most C(17, 6) = 12 376 pairs of r x r minors
# per map (19 448 even at 24), and at most 23 for i = 0.
NLL_DIM_GUARD = 24


def nll_conditions(alg, mode: str = "weak") -> list[Poly]:
    """Divisorial conditions cutting out the non-Lefschetz locus.

    For every map that must reach rank r, the monic gcd of the r x r minors
    of the symbolic multiplication matrix is taken, and in characteristic 0
    its squarefree part (over GF(p) the gcd is kept as it is); the union of
    their vanishing loci is the codimension-one part of the locus.  A zero
    gcd means the map never reaches rank r: the locus is everything.
    Components where a map's minors share no common factor (codimension two
    or more) carry no divisorial condition and contribute nothing here.
    The locus lives in the coefficient space of ``degree_one_coordinates``,
    on every algebra model.
    """
    if sum(hilbert_function(alg)) > NLL_DIM_GUARD:
        raise ValueError(f"algebra dimension exceeds the symbolic guard {NLL_DIM_GUARD}")
    modekey = {"weak": "wlp", "strong": "slp"}.get(mode)
    if modekey is None:
        raise ValueError("mode must be 'weak' or 'strong'")
    coords = degree_one_coordinates(alg)
    if not coords:
        return []
    out: list[Poly] = []
    power = _generic_powers(alg, alg.socle_degree)
    D, gorenstein = alg.socle_degree, is_gorenstein(alg)
    for d, i in _map_list(alg, modekey):
        r = _expected(alg, d, i)
        # on a Gorenstein algebra map i's adjoint D-d-i < i came first: with
        # the constant invertible pairing matrices P, P', the matrix of map
        # D-d-i is P^-1 M_i^T P', so both maps have the same ideal of r x r
        # minors and the same monic gcd, already in ``out``
        if r == 0 or (gorenstein and D - d - i < i):
            continue
        mat = power(d, i)
        nrows, ncols = alg.dim(i + d), alg.dim(i)
        g = poly_gcd_list(
            poly_det([[mat[a][b] for b in csel] for a in rsel])
            for rsel in itertools.combinations(range(nrows), r)
            for csel in itertools.combinations(range(ncols), r)
        )
        if alg.field.characteristic == 0:
            g = squarefree_part(g)
        # a zero gcd is a map that never reaches rank r: the locus is everything
        if g.degree() != 0 and g not in out:
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# Higher Hessians
# ---------------------------------------------------------------------------


def hessian_matrix(alg: GradedAlgebra, i: int) -> list[list[DualPoly]]:
    """Matrix of second contractions b_a b_b . F over the degree-i basis."""
    if alg.field.characteristic != 0:
        raise ValueError("Hessians are computed in characteristic zero")
    F = alg.dual_generator()
    basis = [
        Poly.make(alg.nvars, alg.field, {m: alg.field.one()}) for m in alg.basis(i)
    ]
    return [[contract(ba * bb, F) for bb in basis] for ba in basis]


def hessian_det(alg: GradedAlgebra, i: int) -> DualPoly:
    """Hessian determinant, exact, expanded in the dual variables."""
    mat = hessian_matrix(alg, i)
    if not mat:
        raise ValueError(f"empty basis in degree {i}")
    ordinary = [[to_ordinary(e) for e in row] for row in mat]
    return from_ordinary(poly_det(ordinary))


def hessian_det_at(alg: GradedAlgebra, i: int, point: Sequence) -> Scalar:
    """Evaluate the degree-i Hessian determinant at a coefficient vector."""
    mat = hessian_matrix(alg, i)
    F = alg.field
    rows = [[to_ordinary(e).evaluate(point) for e in row] for row in mat]
    return det(Matrix.from_rows(F, rows, ncols=len(mat)))


# ``slp_by_hessian`` expands Hessians of size at most HESSIAN_SYMBOLIC_SIZE and
# evaluates larger ones at HESSIAN_EVALUATIONS seeded points in [1, HESSIAN_BOUND].
HESSIAN_SYMBOLIC_SIZE = 10
HESSIAN_BOUND = 10_000
HESSIAN_EVALUATIONS = 8


def slp_by_hessian(alg: GradedAlgebra, seed: int = 0) -> dict:
    """SLP criterion: no Hessian determinant vanishes up to half the socle.

    Sizes above the symbolic guard are decided by seeded random evaluation,
    with the Schwartz-Zippel failure bound recorded.
    """
    if alg.field.characteristic != 0:
        raise ValueError("the Hessian criterion applies in characteristic zero")
    if any(w != 1 for w in alg.ring.weights):
        # e.g. x^3, y^2 with weights 1, 2: every Hessian is nonzero, yet L^4 = 0 on A_0
        raise ValueError("the Hessian criterion applies to standard gradings only (every weight 1)")
    c = alg.socle_degree
    rng = random.Random(seed)
    per_i = []
    holds = True
    for i in range(c // 2 + 1):
        size = alg.dim(i)
        entry: dict = {"i": i, "size": size}
        if size <= HESSIAN_SYMBOLIC_SIZE:
            vanishes = hessian_det(alg, i).is_zero()
            entry["method"] = "symbolic"
        else:
            vanishes = True
            for _ in range(HESSIAN_EVALUATIONS):
                point = [rng.randint(1, HESSIAN_BOUND) for _ in range(alg.nvars)]
                if not alg.field.is_zero(hessian_det_at(alg, i, point)):
                    vanishes = False
                    break
            entry["method"] = "randomized"
            degree_bound = size * max(c - 2 * i, 1)
            entry["schwartz_zippel_bound"] = f"<= ({degree_bound}/{HESSIAN_BOUND})^{HESSIAN_EVALUATIONS}"
        entry["vanishes"] = vanishes
        if vanishes:
            holds = False
        per_i.append(entry)
    return {"slp": holds, "hessians": per_i}


# ---------------------------------------------------------------------------
# f-vector to h-vector
# ---------------------------------------------------------------------------


def h_vector(f: Sequence[int], d: int) -> tuple:
    """Alternating-sum transform of a simplicial f-vector, with f_{-1} = 1."""
    fv = list(f)
    if len(fv) != d:
        raise ValueError(f"expected {d} face counts, got {len(fv)}")

    def fat(j: int) -> int:
        return 1 if j == -1 else fv[j]

    out = []
    for i in range(d + 1):
        acc = 0
        for j in range(i + 1):
            acc += (-1) ** (i - j) * math.comb(d - j, d - i) * fat(j - 1)
        out.append(acc)
    return tuple(out)
