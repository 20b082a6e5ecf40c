"""``RankTable``'s one chain per linear form against the two-chain table.

The table used to push two chains per form: one modulo ``MODULAR_PRIME``
through the basis maps of A_1 reduced mod p (skipped when a map or L had a
denominator divisible by p), and one integer chain, ranked only where the
first was deficient.  That design's code is kept below verbatim as ``ref_*``
(``ref_degree_one_maps``, the basis-map branch of ``integer_maps`` as
``ref_integer_maps``, ``ref_PowerChains`` and ``ref_RankTable``).  A
hypothesis oracle requires equal ranks and Jordan types from both tables on
ideals and dual generators over QQ and GF(p), weighted ones included, and on
quotients whose degree-one generators are not the basis of A_1, with form
coefficients in {0, +-1, 2/3, P, 1/P}.  (That the rank modulo P of every
power of the integer chain is at most the exact rank is checked with the
dense references, in ``test_rank_certificates``.)  A deterministic guard pins
that deciding a form builds one chain and pushes each of its steps once.

``ref_RankTable`` ranks every map directly, so it is also the oracle for
the dual key of ``RankTable``, which on a Gorenstein algebra ranks L^d on
A_i as its adjoint on A_{D-i-d}: the hypothesis oracle covers weighted
complete intersections, and a second one every construction that can be
Gorenstein (tensor products, both connected sums, the blowup with a unit
lambda).  A guard pins that a table off Gorenstein ranks both maps of
every adjoint pair.
"""

import functools
import math
import weakref
from fractions import Fraction
from importlib import resources
from typing import Optional, Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefschetz import checks
from lefschetz.algebra import (
    Ideal,
    NotArtinianError,
    Ring,
    algebra_generators,
    from_dual_generator,
    from_ideal,
    hilbert_function,
    is_gorenstein,
)
from lefschetz.checks import MODULAR_PRIME, RankTable, _jordan_type, _push, report_for_element
from lefschetz.constructions import algebra_map, fiber_product
from lefschetz.descfiles import parse_algebra_text
from lefschetz.exactmath import GF, QQ, Matrix, echelon_rank, nonzero
from lefschetz.polynomials import DualPoly, Poly, monomials
from test_algebra_maps import gorenstein_constructions

# -- the two-chain design, verbatim ---------------------------------------------

_MAPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # algebra -> {modulus: maps}


def ref_degree_one_maps(alg, modulus: int = 0) -> Optional[list]:
    """Multiplication by each basis vector of A_1, memoised per algebra.

    ``maps[i][k]`` is X_k : A_i -> A_{i+1} as sparse columns, the map of the
    degree-one generator equal to the k-th basis vector e_k of A_1 (on a
    quotient, the k-th standard variable), for i < socle degree;
    multiplication by sum c_k e_k is sum c_k X_k.  Over QQ a prime ``modulus``
    gives the maps modulo it instead (entries that vanish there dropped), or
    None when an entry's denominator vanishes there.
    """
    memo = _MAPS.setdefault(alg, {})
    if modulus in memo:
        return memo[modulus]
    if modulus:
        try:
            F = GF(modulus)
            maps = [[[tuple((r, x) for r, v in col if (x := F.coerce(v))) for col in X] for X in per_k]
                    for per_k in ref_degree_one_maps(alg)]
        except ValueError:  # a denominator vanishes modulo the prime
            maps = None
    else:
        # the first degree-one generator equal to each basis vector
        first = {g.vector: g for g in reversed(algebra_generators(alg)) if g.degree == 1}
        basis = Matrix.identity(alg.field, alg.dim(1)).entries
        maps = [[first[e].maps[i] for e in basis] for i in range(alg.socle_degree)]
    memo[modulus] = maps
    return maps


_INTEGER_MAPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # algebra -> (maps, scales)


def ref_integer_maps(alg) -> tuple[list, list]:
    """The degree-one maps of ``ref_degree_one_maps`` as integer columns, with
    their scales, memoised per algebra."""
    if alg not in _INTEGER_MAPS:
        maps = ref_degree_one_maps(alg)
        if alg.field.characteristic:
            _INTEGER_MAPS[alg] = maps, [1] * len(maps)
        else:
            scales = [math.lcm(*(v.denominator for X in per_e for col in X for _, v in col)) for per_e in maps]
            _INTEGER_MAPS[alg] = [[[tuple((r, v.numerator * (s // v.denominator)) for r, v in col) for col in X]
                                   for X in per_e] for per_e, s in zip(maps, scales)], scales
    return _INTEGER_MAPS[alg]


class ref_PowerChains:
    """L^d : A_i -> A_{i+d} for one linear form L, as sparse columns."""

    def __init__(self, field, dims: Sequence[int], maps: list, terms: Sequence[tuple],
                 scales: Optional[Sequence[int]] = None):
        self.field, self.dims, self.stride, self._p = field, dims, max(dims) + 1, field.characteristic
        self._maps, self._terms = maps, terms
        self.scales = scales or [1] * len(maps)
        self._steps: dict = {}  # e -> columns of the step of L on A_e
        self._chains: dict = {}  # i -> [columns of L^1, L^2, ... on A_i]

    def step(self, e: int) -> list[dict]:
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
        chain = self._chains.setdefault(i, [self.step(i)])
        while len(chain) < d:
            chain.append(_push(chain[-1], self.step(i + len(chain)), self.stride, self._p))
        return chain[d - 1]

    def rank(self, d: int, i: int) -> int:
        return echelon_rank(self.power(d, i), self._p, min(self.dims[i], self.dims[i + d]))


_MODULAR_FIELD = GF(MODULAR_PRIME)


class ref_RankTable:
    """Ranks of L^d : A_i -> A_{i+d}, memoised, with two certified shortcuts:
    bijective narrow maps, and a full rank on ``mod_chains``."""

    def __init__(self, alg, Lvec):
        self.alg = alg
        self._Lvec = Lvec
        self._dims = hilbert_function(alg)
        self._ranks: dict = {}
        self._narrow: Optional[bool] = None
        self.mod_chains: Optional[ref_PowerChains] = None
        maps = ref_degree_one_maps(alg, MODULAR_PRIME) if alg.field.characteristic == 0 else None
        if maps is not None and all(c.denominator % MODULAR_PRIME for c in Lvec):
            terms = [(0, _MODULAR_FIELD.coerce(c)) for c in Lvec]
            self.mod_chains = ref_PowerChains(_MODULAR_FIELD, self._dims, maps, terms)

    @functools.cached_property
    def chains(self) -> ref_PowerChains:
        maps, scales = ref_integer_maps(self.alg)
        mu = math.lcm(*(c.denominator for c in self._Lvec))
        terms = [(0, c.numerator * (mu // c.denominator)) for c in self._Lvec]
        return ref_PowerChains(self.alg.field, self._dims, maps, terms, [mu * s for s in scales])

    def rank(self, d: int, i: int) -> int:
        D = self.alg.socle_degree
        if i < 0 or i + d > D:
            return 0
        if d == 0:
            return self._dims[i]
        if (d >= 2 or self._narrow is not None) and self._narrow_bijective():
            return min(self._dims[i], self._dims[i + d])
        return self._exact_rank(d, i)

    def _narrow_bijective(self) -> bool:
        if self._narrow is None:
            h, c = self._dims, self.alg.socle_degree
            self._narrow = h == h[::-1] and all(
                self._exact_rank(c - 2 * i, i) == h[i] for i in range((c + 1) // 2)
            )
        return self._narrow

    def _exact_rank(self, d: int, i: int) -> int:
        key = (d, i)
        if key not in self._ranks:
            r = self.mod_chains.rank(d, i) if self.mod_chains is not None else -1
            if r < min(self._dims[i], self._dims[i + d]):
                r = self.chains.rank(d, i)
            self._ranks[key] = r
        return self._ranks[key]


# -- the oracle -----------------------------------------------------------------

P = MODULAR_PRIME
FIELDS = [QQ, GF(2), GF(5), GF(32003)]
small = st.sampled_from([1, -1, 2, 3, Fraction(2, 3), MODULAR_PRIME])
form_coefficients = st.sampled_from([0, 1, -1, Fraction(2, 3), P, Fraction(1, P)])


def nonzero_coefficient(F):
    return small.map(F.coerce).filter(bool)


@st.composite
def rings(draw, weighted: bool):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(min_value=1, max_value=3))
    weights = tuple(draw(st.sampled_from([1, 1, 2])) for _ in range(n)) if weighted else (1,) * n
    return Ring(tuple("xyz"[:n]), F, weights)


@st.composite
def forms(draw, r: Ring, degree: int, max_terms: int = 3):
    support = draw(st.lists(st.sampled_from(monomials(r.nvars, degree, r.weights)),
                            min_size=1, max_size=max_terms, unique=True))
    return Poly.make(r.nvars, r.field, {m: draw(nonzero_coefficient(r.field)) for m in support})


@st.composite
def ideal_algebras(draw):
    """Powers of the variables plus forms of degree 2 or 3, on weighted
    rings too."""
    r = draw(rings(weighted=draw(st.booleans())))
    gens = [r.parse(f"{v}^{draw(st.integers(min_value=2, max_value=4))}") for v in r.varnames]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        degree = draw(st.sampled_from([d for d in (2, 3) if monomials(r.nvars, d, r.weights)]))
        gens.append(draw(forms(r, degree)))
    return from_ideal(Ideal(r, tuple(gens)))


@st.composite
def dual_generator_algebras(draw):
    """Gorenstein algebras of homogeneous dual generators, on weighted rings
    too."""
    r = draw(rings(weighted=draw(st.booleans())))
    degree = draw(st.sampled_from([d for d in range(1, 5) if monomials(r.nvars, d, r.weights)]))
    support = draw(st.lists(st.sampled_from(monomials(r.nvars, degree, r.weights)), min_size=1, max_size=4, unique=True))
    F = DualPoly.make(r.nvars, r.field, {m: draw(nonzero_coefficient(r.field)) for m in support})
    return from_dual_generator(F, r)


@st.composite
def linear_relation_algebras(draw):
    """Quotients whose degree-one generators are not the basis of A_1: a
    linear relation such as x - y, or a variable itself as in (x, y^2, z^2),
    beside the powers of the variables."""
    r = draw(rings(weighted=False))
    gens = [draw(forms(r, 1, max_terms=2))]
    gens += [r.parse(f"{v}^{draw(st.integers(min_value=2, max_value=4))}") for v in r.varnames]
    if r.nvars > 1 and draw(st.booleans()):
        gens.append(draw(forms(r, 2)))
    return from_ideal(Ideal(r, tuple(gens)))


@st.composite
def weighted_complete_intersections(draw):
    """n forms in n variables of weights in {1, 2, 3}: x_j^e_j plus up to two
    other monomials of its degree, kept when the quotient is artinian, so a
    complete intersection."""
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(min_value=1, max_value=3))
    r = Ring(tuple("xyz"[:n]), F, tuple(draw(st.sampled_from([1, 2, 3])) for _ in range(n)))
    gens = []
    for j in range(n):
        e = draw(st.integers(min_value=2, max_value=3))
        power = tuple(e if k == j else 0 for k in range(n))
        others = [m for m in monomials(n, e * r.weights[j], r.weights) if m != power]
        support = draw(st.lists(st.sampled_from(others), max_size=2, unique=True)) if others else []
        gens.append(Poly.make(n, F, {power: F.one(), **{m: draw(nonzero_coefficient(F)) for m in support}}))
    try:
        return from_ideal(Ideal(r, tuple(gens)))
    except NotArtinianError:
        assume(False)


algebras = st.one_of(ideal_algebras(), dual_generator_algebras(), linear_relation_algebras(),
                     weighted_complete_intersections())


def assert_tables_agree(alg, Lvec):
    D = alg.socle_degree
    pairs = [(d, i) for d in range(D + 1) for i in range(D - d + 1)]
    # ascending and descending d: with and without the narrow certificate first
    for order in (pairs, pairs[::-1]):
        table, ref = RankTable(alg, Lvec), ref_RankTable(alg, Lvec)
        assert [table.rank(d, i) for d, i in order] == [ref.rank(d, i) for d, i in order]
    assert _jordan_type(RankTable(alg, Lvec)) == _jordan_type(ref_RankTable(alg, Lvec))


@given(algebras, st.data())
@settings(max_examples=150, deadline=None)
def test_one_chain_matches_the_two_chain_table(alg, data):
    F = alg.field
    Lvec = tuple(F.coerce(c) for c in data.draw(st.lists(form_coefficients, min_size=alg.dim(1), max_size=alg.dim(1))))
    assert_tables_agree(alg, Lvec)


@pytest.mark.parametrize("kind", ["tensor", "over-field", "pair", "blowup"])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_dual_ranks_match_direct_ranks_on_gorenstein_constructions(kind, data):
    # every construction that can be Gorenstein, the blowup with a unit
    # lambda: the table keys each rank by its adjoint pair, the reference
    # ranks every map
    alg = data.draw(gorenstein_constructions(kind))
    assert is_gorenstein(alg)
    n = alg.dim(1)
    assert_tables_agree(alg, tuple(QQ.coerce(c) for c in data.draw(st.lists(form_coefficients, min_size=n, max_size=n))))


def _fiber_product_over_the_field():
    a, b, k = (from_ideal(Ideal(r, tuple(r.parse(g) for g in gens))) for r, gens in [
        (Ring(("x", "y"), QQ), ["x^2", "y^4"]), (Ring(("u", "v"), QQ), ["u^3", "v^3"]), (Ring(("w",), QQ), ["w"])])
    return fiber_product(algebra_map(a, k, ["0", "0"]), algebra_map(b, k, ["0", "0"]))


@pytest.mark.parametrize("make", [
    _fiber_product_over_the_field,  # h_D = 2
    lambda: from_ideal(Ideal(Ring(("x", "y"), QQ), tuple(Ring(("x", "y"), QQ).parse(g) for g in ["x^2", "x*y", "y^3"]))),
], ids=["fiber-product", "two-socle-vectors"])
def test_a_table_off_gorenstein_reuses_no_dual_rank(monkeypatch, make):
    # h_D = 1 on (x^2, xy, y^3), but x and y^2 span its socle.  Neither has
    # a narrow certificate (the fiber product's h is not symmetric, and L^2
    # on A_0 is the only narrow map of the other), so every map is ranked on
    # the chain, each map of an adjoint pair (d, i), (d, D - i - d) too
    alg = make()
    assert not is_gorenstein(alg)
    Lvec = (QQ.one(),) * alg.dim(1)
    D, ref = alg.socle_degree, ref_RankTable(alg, Lvec)
    pairs = [(d, i) for d in range(1, D + 1) for i in range(D - d + 1)]
    want = [ref.rank(d, i) for d, i in pairs]
    ranked, rank = [], checks.PowerChains.rank
    monkeypatch.setattr(checks.PowerChains, "rank", lambda self, d, i: ranked.append((d, i)) or rank(self, d, i))
    table = RankTable(alg, Lvec)
    assert [table.rank(d, i) for d, i in pairs] == want
    assert ranked == pairs


@pytest.mark.parametrize("gens", [["x - y", "x^3", "y^3", "z^2"], ["x", "y^2", "z^2"], ["2*x - 3*y - z", "x^2", "y^2", "z^2"]])
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_generators_beyond_the_basis_of_degree_one(F, gens):
    r = Ring(("x", "y", "z"), F)
    alg = from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)))
    assert len([g for g in algebra_generators(alg) if g.degree == 1]) == 3 > alg.dim(1)
    for coeffs in [(1, 1), (P, 1), (Fraction(1, P), Fraction(2, 3)), (0, -1)]:
        assert_tables_agree(alg, tuple(F.coerce(c) for c in coeffs))


@pytest.mark.parametrize("gens, slots", [
    # y is in the ideal: its vector is 0, and no coordinate goes on it
    (["y", "x^2", "z^3"], [0, None, 1]),
    # x = z in A_1: z's coordinate goes on x, the first generator with its vector
    (["z - x", "x^3", "y^2", "z^2"], [1, 0, None]),
    # y = 2z in A_1 (y in the ideal over GF(2)): y's vector is no unit vector
    (["y - 2*z", "x^2", "y^3", "z^3"], [0, None, 1]),
])
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_each_coordinate_goes_on_its_first_generator(F, gens, slots):
    r = Ring(("x", "y", "z"), F)
    alg = from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)))
    assert checks._chain_source(alg)[2] == slots
    for coeffs in [(1, 1), (P, Fraction(2, 3)), (Fraction(1, P), -1), (0, Fraction(5, 7))]:
        assert_tables_agree(alg, tuple(F.coerce(c) for c in coeffs))


# -- one chain, each step pushed once -------------------------------------------


# h = (1, 3, 3, 1) like x2y2z2.alg, but xz and yz span the socle of degree 2,
# so it is not Gorenstein
SOCLE_XZ = "vars: x, y, z\nfield: QQ\nideal:\nx^2\nx*y\ny^2\nx*z^2\ny*z^2\nz^4\n"


@pytest.mark.parametrize("name, form, mode, pushed", [
    ("x2y2z2.alg", f"{P}*x + y", "wlp", 0),
    # Gorenstein: L^2 on A_1 has the rank of its adjoint L^2 on A_0, so only
    # the narrow chain L^3 on A_0 is pushed, twice
    ("x2y2z2.alg", f"{P}*x + y", "slp", 2),
    ("perazzo.alg", "x + y + z + u + v", "slp", 2),
    # not Gorenstein: L^2 on A_1 is pushed too
    ("socle_xz", f"{P}*x + y", "slp", 3),
])
def test_a_form_is_decided_on_one_chain_pushed_once_per_step(monkeypatch, name, form, mode, pushed):
    # deciding a form builds one chain, whose steps are each built once and
    # whose powers are each pushed once; the first form is deficient modulo
    # the prime on A_1, where the two-chain table built the step twice
    text = SOCLE_XZ if name == "socle_xz" else (resources.files("lefschetz") / "data" / name).read_text()
    alg = parse_algebra_text(text).build()
    L = alg.ring.parse(form)
    report_for_element(alg, L, mode)  # builds the maps outside the count
    made, pushes, built = [], [], []

    class Recorded(checks.PowerChains):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def step(self, e):
            if e not in self._steps:
                built.append(e)
            return super().step(e)

    def counted(*args):
        pushes.append(args)
        return _push(*args)

    monkeypatch.setattr(checks, "PowerChains", Recorded)
    monkeypatch.setattr(checks, "_push", counted)
    report_for_element(alg, L, mode)
    [chains] = made
    assert sorted(built) == sorted(set(built)) == sorted(chains._steps)
    assert len(pushes) == sum(len(chain) - 1 for chain in chains._chains.values()) == pushed
