import itertools
import math
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lefschetz.checks as checks
from lefschetz.exactmath import GF, QQ
from lefschetz.descfiles import parse_algebra_text
from lefschetz.polynomials import DualPoly, Poly, monomials, to_ordinary
from lefschetz.algebra import Ideal, Ring, from_dual_generator, from_ideal, is_gorenstein
from lefschetz.symbolic import fraction_free_echelon
from lefschetz.checks import (
    GenericityConfig,
    LefschetzReport,
    MapRecord,
    RankTable,
    _expected,
    _map_list,
    _generic_powers,
    combine_coordinates,
    degree_one_coordinates,
    degree_one_vector,
    generic_report,
    h_vector,
    hessian_det,
    hessian_det_at,
    hessian_matrix,
    jordan_type,
    nll_conditions,
    report_for_element,
    slp_by_hessian,
    slp_for_element,
    slp_generic,
    slpn_for_element,
    slpn_generic,
    symmetric,
    unimodal,
    wlp_for_element,
    wlp_generic,
)


def ring(names="x,y,z", field=QQ, weights=None):
    return Ring(tuple(names.split(",")), field, tuple(weights) if weights else ())


def build(names, gens, field=QQ, weights=None, cap=None):
    r = ring(names, field, weights)
    return from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)), max_degree=cap)


CFG = GenericityConfig(seed=11, trials=3)


# -- for_element --------------------------------------------------------------


def test_wlp_x2y2():
    a = build("x,y", ["x^2", "y^2"])
    rep = wlp_for_element(a, a.ring.parse("x + y"))
    assert rep.holds


def test_wlp_222_char0_vs_char2():
    a0 = build("x,y,z", ["x^2", "y^2", "z^2"])
    rep0 = wlp_for_element(a0, a0.ring.parse("x + y + z"))
    assert rep0.holds
    a2 = build("x,y,z", ["x^2", "y^2", "z^2"], field=GF(2))
    rep2 = wlp_for_element(a2, a2.ring.parse("x + y + z"))
    assert not rep2.holds
    bad = [m for m in rep2.maps if not m.full]
    assert [(m.i, m.d) for m in bad] == [(1, 1)]


def test_wlp_zero_element_fails():
    a = build("x,y", ["x^2", "y^2"])
    rep = wlp_for_element(a, Poly.zero(2, QQ))
    assert not rep.holds


def test_slp_x2y2_char0_char2():
    a0 = build("x,y", ["x^2", "y^2"])
    assert slp_for_element(a0, a0.ring.parse("x + y")).holds
    a2 = build("x,y", ["x^2", "y^2"], field=GF(2))
    rep2 = slp_for_element(a2, a2.ring.parse("x + y"))
    assert not rep2.holds
    # the failing map is A_0 -> A_2 given by [2ab] = 0
    bad = [(m.i, m.d) for m in rep2.maps if not m.full]
    assert (0, 2) in bad


def test_slp_holds_slpn_fails_nonsymmetric():
    a = build("x,y", ["x^2", "x*y", "y^5"])
    L = a.ring.parse("x + y")
    assert slp_for_element(a, L).holds
    rep = slpn_for_element(a, L)
    assert not rep.holds
    assert any("symmetric" in n for n in rep.notes)


def test_weighted_wlp_witness_x():
    # |y| = 3 gives the nonunimodal (1,1,0,1,1); x is still weak Lefschetz
    a = build("x,y", ["x^2", "y^2"], weights=[1, 3])
    rep = wlp_for_element(a, a.ring.parse("x"))
    assert rep.holds
    assert not unimodal(a.hilbert_function())


# -- generic ------------------------------------------------------------------


def test_generic_monomial_ci_slp():
    a = build("x,y,z", ["x^3", "y^3", "z^3"])
    rep = slp_generic(a, CFG)
    assert rep.holds
    assert rep.witness is not None
    assert rep.certification in ("witness", "symbolic")


def test_generic_wlp_fails_char2():
    a2 = build("x,y,z", ["x^2", "y^2", "z^2"], field=GF(2))
    rep = wlp_generic(a2, CFG)
    assert rep.holds is False
    assert rep.certification == "exhaustive"


def test_generic_wlp_char3_holds():
    a3 = build("x,y,z", ["x^2", "y^2", "z^2"], field=GF(3))
    rep = wlp_generic(a3, CFG)
    assert rep.holds
    assert rep.certification == "exhaustive"


def test_wlp_not_slp_exercise():
    a = build("x,y,z", ["x^3", "y^3", "z^3", "x^3 + y^3 + z^3"][:3] + ["(unused)"][:0])
    # build the real algebra: (x^3, y^3, z^3, (x+y+z)^3)
    r = ring()
    s = r.parse("x + y + z")
    gens = (r.parse("x^3"), r.parse("y^3"), r.parse("z^3"), s * s * s)
    a = from_ideal(Ideal(r, gens))
    wl = wlp_generic(a, GenericityConfig(seed=3, trials=3, certify=True))
    sl = slp_generic(a, GenericityConfig(seed=3, trials=3, certify=True))
    assert wl.holds is True
    assert sl.holds is False
    assert sl.certification == "symbolic"


def test_perazzo_wlp_fails():
    r = ring("x,y,z,u,v")
    a = from_dual_generator(r.parse_dual("X*U^2 + Y*U*V + Z*V^2"), r)
    assert a.hilbert_function() == (1, 5, 5, 1)
    rep = wlp_generic(a, GenericityConfig(seed=5, trials=3, certify=True))
    assert rep.holds is False
    assert rep.certification == "symbolic"
    sl = slp_generic(a, GenericityConfig(seed=5, trials=3, certify=True))
    assert sl.holds is False


# -- jordan types -------------------------------------------------------------


def test_jordan_single_strand():
    r = Ring(("x",), QQ)
    a = from_ideal(Ideal(r, (r.parse("x^4"),)))
    jt = jordan_type(a, a.ring.parse("x"))
    assert jt.parts == (4,)
    assert jt.starts == ((0, 4),)


def test_jordan_x2y2():
    a = build("x,y", ["x^2", "y^2"])
    jt = jordan_type(a, a.ring.parse("x + y"))
    assert jt.parts == (3, 1)
    assert jt.starts == ((0, 3), (1, 1))


def test_jordan_zero_element():
    a = build("x,y", ["x^2", "y^2"])
    jt = jordan_type(a, Poly.zero(2, QQ))
    assert jt.parts == (1, 1, 1, 1)


def test_jordan_conjugate_of_hilbert_iff_slpn():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    L = a.ring.parse("x + y + z")
    assert slpn_for_element(a, L).holds
    jt = jordan_type(a, L)
    h = sorted(a.hilbert_function(), reverse=True)
    conj = tuple(
        sum(1 for x in h if x >= k) for k in range(1, (h[0] if h else 0) + 1)
    )
    assert jt.parts == conj
    c = a.socle_degree
    for start, length in jt.starts:
        assert 2 * start + (length - 1) == c  # centered strands


def test_wlp_witness_injective_then_surjective():
    # standard graded + WLP witness: multiplication maps are injective up to
    # some index and surjective from it on
    import random

    from lefschetz.algebra import from_dual_generator
    from lefschetz.checks import RankTable, degree_one_vector
    from lefschetz.polynomials import DualPoly

    rng = random.Random(13)
    seen = 0
    while seen < 10:
        n = rng.randint(2, 3)
        deg = rng.randint(2, 4)
        monos = monomials(n, deg)
        F = DualPoly.make(
            n, QQ, {m: rng.randint(-3, 3) for m in rng.sample(monos, min(4, len(monos)))}
        )
        if F.is_zero() or F.degree() != deg:
            continue
        r = Ring(tuple("xyz"[:n]), QQ)
        a = from_dual_generator(F, r)
        L = Poly.linear_form(n, QQ, [rng.randint(1, 40) for _ in range(n)])
        if not wlp_for_element(a, L).holds:
            continue
        table = RankTable(a, degree_one_vector(a, L))
        flags = []
        for i in range(a.socle_degree):
            rk = table.rank(1, i)
            inj = rk == a.dim(i)
            surj = rk == a.dim(i + 1)
            flags.append((inj, surj))
        # find the first surjective index; everything before must be
        # injective, everything from it on surjective
        j = next((k for k, (inj, surj) in enumerate(flags) if surj), len(flags))
        assert all(inj for inj, _ in flags[:j])
        assert all(surj for _, surj in flags[j:])
        seen += 1


# -- unimodal / symmetric -----------------------------------------------------


def test_unimodal_symmetric_basic():
    assert unimodal((1, 3, 3, 1)) and symmetric((1, 3, 3, 1))
    assert not unimodal((1, 1, 0, 1, 1))
    assert not unimodal((1, 6, 11, 8, 9, 8, 3, 2, 1))
    assert not symmetric((1, 2, 1, 1))


# -- non-Lefschetz loci -------------------------------------------------------


def test_nll_weak_222(monkeypatch):
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    gcds, gcd = [], checks.poly_gcd_list
    monkeypatch.setattr(checks, "poly_gcd_list", lambda polys: gcds.append(1) or gcd(polys))
    conds = nll_conditions(a, "weak")
    abc = Poly.make(3, QQ, {(1, 1, 1): 1})
    assert conds == [abc]
    # L on A_2 is the adjoint of L on A_0, whose minors have the same gcd
    assert len(gcds) == 2


def test_nll_takes_both_maps_of_a_pair_off_gorenstein():
    # h = (1, 2, 1), but x is in the socle: L = a1 x + a2 y sends A_0 onto
    # <L> and A_1 onto <a2 y^2>, so only the second map has a locus
    a = build("x,y", ["x^2", "x*y", "y^3"])
    assert nll_conditions(a, "weak") == [Poly.make(2, QQ, {(0, 1): 1})]


def test_nll_strong_x2y2():
    a = build("x,y", ["x^2", "y^2"])
    conds = nll_conditions(a, "strong")
    ab = Poly.make(2, QQ, {(1, 1): 1})
    assert conds == [ab]


def test_nll_single_variable():
    r = Ring(("x",), QQ)
    a = from_ideal(Ideal(r, (r.parse("x^4"),)))
    conds = nll_conditions(a, "weak")
    assert conds == [Poly.make(1, QQ, {(1,): 1})]


def test_nll_dimension_guard_at_its_edge():
    # sum h = 24 is the largest algebra the guard accepts
    a1 = Poly.make(1, QQ, {(1,): 1})
    a = build("x", ["x^24"])
    assert sum(a.hilbert_function()) == checks.NLL_DIM_GUARD == 24
    assert nll_conditions(a, "weak") == nll_conditions(a, "strong") == [a1]
    with pytest.raises(ValueError, match="^algebra dimension exceeds the symbolic guard 24$"):
        nll_conditions(build("x", ["x^25"]), "weak")


# -- hessians -----------------------------------------------------------------


def test_hessian_sum_of_squares():
    r = ring()
    a = from_dual_generator(r.parse_dual("X^2 + Y^2 + Z^2"), r)
    h0 = hessian_det(a, 0)
    assert h0 == a.dual_generator()
    h1 = hessian_det(a, 1)
    assert to_ordinary(h1) == Poly.constant(3, QQ, 8)


def test_hessian_scaling_invariance():
    # hess of the stored normalised generator: for F = X^2+Y^2+Z^2 the
    # normalisation divides by the leading coefficient
    r = ring()
    a = from_dual_generator(r.parse_dual("X^2 + Y^2 + Z^2"), r)
    rep = slp_by_hessian(a)
    assert rep["slp"] is True


def test_ikeda_hessian_vanishes():
    r = ring("x,y,z,w")
    a = from_dual_generator(r.parse_dual("X*Y*W^3 + X^3*Z*W + Y^3*Z^2"), r)
    assert not hessian_det(a, 1).is_zero()
    assert hessian_det(a, 2).is_zero()
    rep = slp_by_hessian(a)
    assert rep["slp"] is False
    assert [e["vanishes"] for e in rep["hessians"]] == [False, False, True]
    # but L^3 : A_1 -> A_4 still reaches full rank generically
    sl = slp_generic(a, GenericityConfig(seed=1, trials=4))
    for m in sl.maps:
        if (m.i, m.d) == (1, 3):
            assert m.achieved == m.expected == 4


def test_hessian_criterion_matches_generic_slp_on_monomial_ci():
    r = ring("x,y")
    a = from_dual_generator(r.parse_dual("X^2*Y^3"), r)
    assert slp_by_hessian(a)["slp"] is True
    assert slp_generic(a, CFG).holds is True


def test_hessian_rank_consistency():
    # full rank of L^{c-2i} at concrete coefficients iff hess^i nonzero there
    r = ring()
    a = from_dual_generator(r.parse_dual("X^2 + Y^2 + Z^2"), r)
    c = a.socle_degree
    for point in [(1, 2, 3), (1, 1, 0), (0, 0, 1)]:
        L = Poly.linear_form(3, QQ, point)
        table_rep = slpn_for_element(a, L)
        for i in range(c // 2 + 1):
            d = c - 2 * i
            if d == 0:
                continue
            rec = next(m for m in table_rep.maps if (m.i, m.d) == (i, d))
            hval = hessian_det_at(a, i, point)
            assert (rec.achieved == rec.expected and rec.expected == a.dim(i)) == (
                hval != 0
            )


def test_hessian_positive_characteristic_rejected():
    a = build("x,y", ["x^2", "y^2"], field=GF(5))
    with pytest.raises(ValueError):
        hessian_matrix(a, 0)


# -- h-vector -----------------------------------------------------------------


def test_h_vector_triangle():
    assert h_vector((3, 3), 2) == (1, 1, 1)


def test_h_vector_simplex_boundary():
    # oracle: sum_i h_i t^i = sum_j f_{j-1} t^j (1-t)^{d-j}
    for d in range(1, 7):
        f = tuple(math.comb(d + 1, i + 1) for i in range(d))
        assert h_vector(f, d) == tuple(1 for _ in range(d + 1))


def test_h_vector_degenerate():
    assert h_vector((), 0) == (1,)


def test_h_vector_polynomial_identity_oracle():
    import random

    rng = random.Random(2)
    for _ in range(20):
        d = rng.randint(1, 6)
        f = tuple(rng.randint(0, 30) for _ in range(d))
        hv = h_vector(f, d)
        # evaluate both sides of the generating identity at several points
        for t in (2, 3, 5):
            lhs = sum(h * t**i for i, h in enumerate(hv))
            rhs = sum(
                (1 if j == 0 else f[j - 1]) * t**j * (1 - t) ** (d - j)
                for j in range(d + 1)
            )
            assert lhs == rhs


@pytest.mark.parametrize("bad", [{"trials": 0}, {"trials": -1}, {"bound": 0}, {"bound": -5}])
def test_genericity_config_rejects_empty_sampling(bad):
    with pytest.raises(ValueError):
        GenericityConfig(**bad)


# -- reference oracle for the generic search ----------------------------------
#
# Verbatim copies of the former ``report_for_element`` and ``generic_report``,
# which decided candidates in two closures and three separate loops.  The one
# candidate loop through ``report_for_element`` must give the same whole
# report: verdict, witness, certification label, notes and every map rank.


def _h(alg) -> list[int]:
    return [alg.dim(d) for d in range(alg.socle_degree + 1)]


def ref_report_for_element(alg, L, mode: str) -> LefschetzReport:
    Lvec = degree_one_vector(alg, L)
    table = RankTable(alg, Lvec)
    h = _h(alg)
    c = alg.socle_degree
    maps = []
    ok = True
    notes = []
    for d, i in _map_list(alg, mode):
        exp = _expected(alg, d, i)
        got = table.rank(d, i)
        maps.append(MapRecord(i, d, exp, got))
        if got != exp:
            ok = False
        if mode == "slpn" and h[i] != h[c - i]:
            ok = False
    if mode == "slpn":
        if h != list(reversed(h)):
            ok = False
            notes.append("Hilbert function is not symmetric")
    return LefschetzReport(mode, tuple(maps), ok, None, "element", tuple(notes))


def ref_generic_report(alg, mode: str, cfg: GenericityConfig = GenericityConfig()) -> LefschetzReport:
    """Search for a Lefschetz element; certify negatives when feasible.

    A found witness is exact.  In characteristic zero a certified negative
    computes generic ranks over the rational function field; over a small
    finite field the search is exhaustive instead.
    """
    F = alg.field
    coords = degree_one_coordinates(alg)
    h = _h(alg)
    pairs_id = _map_list(alg, mode)
    notes: list[str] = []

    symmetric_needed = mode == "slpn"
    sym_ok = h == list(reversed(h))
    if symmetric_needed and not sym_ok:
        maps = tuple(MapRecord(i, d, _expected(alg, d, i), 0) for d, i in pairs_id)
        return LefschetzReport(
            mode, maps, False, None, "exact", ("Hilbert function is not symmetric",)
        )

    if not coords:
        maps = tuple(MapRecord(i, d, _expected(alg, d, i), 0) for d, i in pairs_id)
        holds = all(m.expected == 0 for m in maps)
        return LefschetzReport(mode, maps, holds, None, "exact", ("A_1 = 0",))

    def element_maps(coeffs):
        Lvec = combine_coordinates(alg, coords, coeffs)
        table = RankTable(alg, Lvec)
        recs = [MapRecord(i, d, _expected(alg, d, i), table.rank(d, i)) for d, i in pairs_id]
        return recs

    def witness_report(coeffs, recs, cert):
        witness = {label: str(cv) for (label, _), cv in zip(coords, coeffs)}
        holds = all(r.full for r in recs)
        if symmetric_needed:
            holds = holds and sym_ok
        return LefschetzReport(mode, tuple(recs), holds, witness, cert, tuple(notes))

    if F.characteristic != 0:
        p = F.characteristic
        if p ** len(coords) <= checks.EXHAUSTIVE_LIMIT:
            best: dict = {}
            for coeffs in itertools.product(range(p), repeat=len(coords)):
                if all(x == 0 for x in coeffs):
                    continue
                recs = element_maps(coeffs)
                for r in recs:
                    key = (r.d, r.i)
                    best[key] = max(best.get(key, 0), r.achieved)
                if all(r.full for r in recs):
                    return witness_report(coeffs, recs, "exhaustive")
            maps = tuple(
                MapRecord(i, d, _expected(alg, d, i), best.get((d, i), 0))
                for d, i in pairs_id
            )
            return LefschetzReport(mode, maps, False, None, "exhaustive", tuple(notes))
        notes.append(f"finite field too large to enumerate ({p}^{len(coords)})")

    rng = random.Random(cfg.seed)
    bound = cfg.effective_bound(alg)
    best_recs: dict = {}
    for _ in range(cfg.trials):
        coeffs = tuple(rng.randint(1, bound) for _ in coords)
        recs = element_maps(coeffs)
        for r in recs:
            key = (r.d, r.i)
            prev = best_recs.get(key)
            if prev is None or r.achieved > prev.achieved:
                best_recs[key] = r
        if all(r.full for r in recs):
            return witness_report(coeffs, recs, "witness")

    can_symbolic = (
        F.characteristic == 0
        and len(coords) <= checks.SYMBOLIC_AMBIENT_LIMIT
        and sum(h) <= checks.SYMBOLIC_DIM_LIMIT
    )
    if F.characteristic == 0 and (cfg.certify or can_symbolic):
        maps = []
        all_full = True
        for d, i in pairs_id:
            exp = _expected(alg, d, i)
            cached = best_recs.get((d, i))
            if cached is not None and cached.achieved == exp:
                maps.append(cached)
                continue
            got = fraction_free_echelon(_generic_powers(alg, d)(d, i), stop_at=exp)
            maps.append(MapRecord(i, d, exp, got))
            if got != exp:
                all_full = False
        if all_full:
            # a common witness exists over the infinite base field; sample
            # a few more points to exhibit one
            for _ in range(8):
                coeffs = tuple(rng.randint(1, bound) for _ in coords)
                recs = element_maps(coeffs)
                if all(r.full for r in recs):
                    return witness_report(coeffs, recs, "symbolic")
            notes.append("generic ranks are full but no sampled witness; reporting holds")
            return LefschetzReport(mode, tuple(maps), True, None, "symbolic", tuple(notes))
        return LefschetzReport(mode, tuple(maps), False, None, "symbolic", tuple(notes))

    maps = tuple(
        best_recs[(d, i)]
        if (d, i) in best_recs
        else MapRecord(i, d, _expected(alg, d, i), 0)
        for d, i in pairs_id
    )
    notes.append(f"randomized only ({cfg.trials} trials, bound {bound}): negatives are probabilistic")
    return LefschetzReport(mode, maps, False, None, "randomized", tuple(notes))


MODES = ("wlp", "slp", "slpn")
DIM_LIMIT = checks.SYMBOLIC_DIM_LIMIT
# (config, the SYMBOLIC_DIM_LIMIT to decide it under): a limit of 0 labels
# every uncertified negative over QQ randomized
ORACLE_CONFIGS = (
    (GenericityConfig(seed=2), DIM_LIMIT),
    (GenericityConfig(trials=1, certify=True), DIM_LIMIT),
    (GenericityConfig(trials=1), 0),
)


def assert_matches_reference(alg, mode, cfg, dim_limit):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "SYMBOLIC_DIM_LIMIT", dim_limit)
        rep = generic_report(alg, mode, cfg)
        assert rep == ref_generic_report(alg, mode, cfg)
    return rep


def bundled(name):
    return parse_algebra_text((resources.files("lefschetz") / "data" / name).read_text()).build()


BUNDLED = sorted(p.name for p in (resources.files("lefschetz") / "data").iterdir() if p.name.endswith(".alg"))


@pytest.mark.parametrize("name", BUNDLED)
def test_generic_report_matches_reference_on_bundled_files(name):
    alg = bundled(name)
    for mode in MODES:
        for cfg, dim_limit in ORACLE_CONFIGS:
            assert_matches_reference(alg, mode, cfg, dim_limit)


PERAZZO_32003 = "vars: x, y, z, u, v\nfield: Fp(32003)\ndualgen:\nX*U^2 + Y*U*V + Z*V^2\n"

# (algebra, mode, (config, SYMBOLIC_DIM_LIMIT), certification, verdict, first
# note): one case per label and note of ``generic_report``
LABEL_CASES = [
    (lambda: build("x,y", ["x^2", "x*y", "y^5"]), "slpn", (CFG, DIM_LIMIT),
     "exact", False, "Hilbert function is not symmetric"),
    (lambda: build("z", ["z^2"], weights=[2]), "wlp", (CFG, DIM_LIMIT), "exact", True, "A_1 = 0"),
    (lambda: build("z", ["z^2"], weights=[2]), "slp", (CFG, DIM_LIMIT), "exact", False, "A_1 = 0"),
    # the first point of P^1(GF(3)) that holds is y: the witness has x = 0
    (lambda: build("x,y", ["x^2", "x*y", "y^3"], field=GF(3)), "wlp", (CFG, DIM_LIMIT),
     "exhaustive", True, None),
    # the best ranks of this negative are not the ranks of its last point
    (lambda: build("x,y", ["x^4", "y^3", "x*y + x^2"], field=GF(2)), "slp", (CFG, DIM_LIMIT),
     "exhaustive", False, None),
    (lambda: build("x,y,z", ["x^2", "y^2", "z^3", "x*z + z^2"], field=GF(3)), "slp", (CFG, DIM_LIMIT),
     "exhaustive", False, None),
    (lambda: build("x,y", ["x^2", "y^2"]), "slp", (CFG, DIM_LIMIT), "witness", True, None),
    # L^2 = 2b(a - b)xy: the one trial a = b fails, the symbolic rank is full
    (lambda: build("x,y", ["x^2", "x^2 + 2*x*y + y^2"]), "slp",
     (GenericityConfig(trials=1, bound=1), DIM_LIMIT), "symbolic", True, None),
    (lambda: bundled("perazzo.alg"), "wlp", (GenericityConfig(seed=5, certify=True), DIM_LIMIT),
     "symbolic", False, None),
    (lambda: build("x,y", ["x^2", "x^2 + 2*x*y + y^2"]), "slp",
     (GenericityConfig(trials=1, bound=1), 0), "randomized", False, "randomized only"),
    (lambda: build("x,y", ["x^2", "y^2"], field=GF(32003)), "slp", (CFG, DIM_LIMIT),
     "witness", True, "finite field too large"),
    (lambda: parse_algebra_text(PERAZZO_32003).build(), "wlp", (CFG, DIM_LIMIT),
     "randomized", False, "finite field too large"),
]


@pytest.mark.parametrize("make, mode, cfg, cert, holds, note", LABEL_CASES)
def test_generic_report_matches_reference_on_every_label(make, mode, cfg, cert, holds, note):
    rep = assert_matches_reference(make(), mode, *cfg)
    assert (rep.certification, rep.holds) == (cert, holds)
    assert (rep.witness is not None) == (holds and cert != "exact")
    assert bool(rep.notes) == (note is not None)
    assert not note or rep.notes[0].startswith(note)


oracle_fields = st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(32003)])


@st.composite
def oracle_algebras(draw):
    """Dual-generator (symmetric h) or ideal (often non-symmetric h) algebras."""
    field = draw(oracle_fields)
    n = draw(st.integers(min_value=1, max_value=3))
    r = Ring(tuple("xyz"[:n]), field)
    coeff = st.integers(min_value=1, max_value=field.characteristic - 1 if field.characteristic else 4)
    if draw(st.booleans()):
        deg = draw(st.integers(min_value=2, max_value=4))
        support = draw(st.lists(st.sampled_from(monomials(n, deg)), min_size=1, max_size=4, unique=True))
        return from_dual_generator(DualPoly.make(n, field, {m: draw(coeff) for m in support}), r)
    gens = [r.parse(f"{v}^{draw(st.integers(min_value=2, max_value=4))}") for v in r.varnames]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        deg = draw(st.integers(min_value=2, max_value=3))
        support = draw(st.lists(st.sampled_from(monomials(n, deg)), min_size=1, max_size=3, unique=True))
        gens.append(Poly.make(n, field, {m: draw(coeff) for m in support}))
    return from_ideal(Ideal(r, tuple(gens)))


@given(oracle_algebras(), st.sampled_from(MODES), st.sampled_from(ORACLE_CONFIGS),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_reports_match_reference_on_drawn_algebras(alg, mode, cfg, coeffs):
    assert_matches_reference(alg, mode, *cfg)
    L = coeffs[: alg.dim(1)]
    assert report_for_element(alg, L, mode) == ref_report_for_element(alg, L, mode)


def test_exhaustive_negative_decides_one_point_per_line(monkeypatch):
    # L^3 = 0 in characteristic 3, so no point holds: each of the
    # (3^3 - 1)/2 points of P^2(GF(3)) is decided once
    alg = build("x,y,z", ["x^3", "y^3", "z^3"], field=GF(3))
    calls = []

    def counting(*args):
        calls.append(args[2])
        return combine_coordinates(*args)

    monkeypatch.setattr(checks, "combine_coordinates", counting)
    rep = slp_generic(alg, CFG)
    assert (rep.holds, rep.certification) == (False, "exhaustive")
    assert len(calls) == (3**3 - 1) // 2
    assert all(next(c for c in coeffs if c) == 1 for coeffs in calls)


PERAZZO_D6 = "X*U^5*V + Y*U*V^5 + Z*U^2*V^4"


# (algebra, deficient (d, i) maps, pushes).  On the Gorenstein perazzo-d6
# (D = 7) L^2 on A_3 is ranked as its adjoint L^2 on A_2, which is read off
# the chain that L^3 on A_2 needs: 6 pushes, where pushing L^2 on A_3 too
# would take 7 and pushing every map from its own L 8.  The last algebra is
# not Gorenstein (its socle has degrees 3 and 4), so L^3 on A_1 is pushed
# from A_1, not read off an adjoint on A_0
@pytest.mark.parametrize("make, deficient, pushed", [
    (lambda: bundled("perazzo.alg"), [(1, 1)], 0),
    (lambda: from_dual_generator(ring("x,y,z,u,v").parse_dual(PERAZZO_D6), ring("x,y,z,u,v")),
     [(1, 3), (2, 2), (2, 3), (3, 2), (5, 1)], 6),
    (lambda: build("x,y,z", ["x^3", "y^3", "z^3", "x^2*y", "x*y^2*z"]), [(3, 1)], 2),
], ids=["perazzo", "perazzo-d6", "not-gorenstein"])
def test_generic_escalation_pushes_each_degree_once(make, deficient, pushed, monkeypatch):
    # the escalation ranks one map of each adjoint pair of a Gorenstein
    # algebra, (d, min(i, D - i - d)), and pushes each A_i once, to its
    # largest d ranked; L on A_i is the step itself, so that chain takes
    # d - 1 pushes.  Pushes made while deciding candidate elements are not
    # counted.
    alg = make()
    pushes, deciding = [], []
    push, decide = checks._push, checks.report_for_element

    def counted(*args):
        if not deciding:
            pushes.append(args)
        return push(*args)

    def decide_quietly(*args):
        deciding.append(args)
        try:
            return decide(*args)
        finally:
            deciding.pop()

    monkeypatch.setattr(checks, "_push", counted)
    monkeypatch.setattr(checks, "report_for_element", decide_quietly)
    rep = slp_generic(alg, GenericityConfig(certify=True))
    assert (rep.holds, rep.certification) == (False, "symbolic")
    assert sorted((m.d, m.i) for m in rep.maps if not m.full) == deficient
    D = alg.socle_degree
    ranked = {(d, min(i, D - i - d) if is_gorenstein(alg) else i) for d, i in deficient}
    top = {i: max(d for d, j in ranked if j == i) for _, i in ranked}
    assert len(pushes) == sum(d - 1 for d in top.values()) == pushed
    # every deficient map reports the symbolic rank of its own generic power
    power = checks._generic_powers(alg, max(d for d, _ in deficient))
    short = [m for m in rep.maps if not m.full]
    assert [m.achieved for m in short] == [fraction_free_echelon(power(m.d, m.i), stop_at=m.expected) for m in short]


def test_power_chains_build_only_the_steps_they_read():
    alg = build("x,y,z", ["x^3", "y^3", "z^3"])
    maps, scales = checks.integer_maps(alg)
    chains = checks.PowerChains(alg.field, alg.hilbert_function(), maps, [(0, 1), (0, 2), (0, 3)], scales)
    assert chains._steps == {}
    chains.power(2, 1)
    assert sorted(chains._steps) == [1, 2]
    chains.power(1, 0)
    chains.power(1, 2)
    assert sorted(chains._steps) == [0, 1, 2]
    # a rank table reads, on its one chain, the steps of the one map it
    # ranks, and pushes A_1 once per further power
    table = RankTable(alg, alg.vector(alg.ring.parse("x + y + z"), 1))
    assert table._exact_rank(3, 1) == 3
    assert sorted(table.chains._steps) == [1, 2, 3]
    assert list(table.chains._chains) == [1] and len(table.chains._chains[1]) == 3
