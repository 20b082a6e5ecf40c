"""Acceptance criteria, one test per numbered criterion.

All arithmetic is exact, so every comparison is equality; each test prints
one PASS line when its criterion holds (run with -s or -v to see them).
"""

import itertools
import math
import random

import pytest

from lefschetz.exactmath import GF, QQ, Matrix, rank
from lefschetz.polynomials import DualPoly, Poly, contract, monomials, to_ordinary
from lefschetz.algebra import (
    Ideal,
    Ring,
    default_orientation,
    from_dual_generator,
    from_ideal,
    hilbert_function,
    inverse_system,
    is_gorenstein,
    orientation_from_socle_element,
    pairing_matrix,
    same_degreewise_ideal,
    socle_vectors,
)
from lefschetz.checks import (
    GenericityConfig,
    hessian_det,
    jordan_type,
    nll_conditions,
    slp_by_hessian,
    slp_for_element,
    slp_generic,
    slpn_for_element,
    symmetric,
    unimodal,
    wlp_for_element,
    wlp_generic,
)
from lefschetz.constructions import (
    algebra_map,
    blowup,
    connected_sum,
    connected_sum_over_field,
    fiber_product,
    tensor_product,
    thom_class,
)
from lefschetz.exactmath import RowSpace
from lefschetz.sl2 import (
    irreducible_decomposition,
    slpn_via_weights,
    triple_from_lefschetz,
    weight_decomposition,
)


def _pass(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def ring(names, field=QQ, weights=None):
    return Ring(tuple(names.split(",")), field, tuple(weights) if weights else ())


def build(names, gens, field=QQ, weights=None, cap=None):
    r = ring(names, field, weights)
    return from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)), max_degree=cap)


def random_dual_generator(rng, nvars, deg, max_terms=5):
    monos = monomials(nvars, deg)
    while True:
        k = rng.randint(1, min(max_terms, len(monos)))
        F = DualPoly.make(
            nvars, QQ, {m: rng.randint(-4, 4) for m in rng.sample(monos, k)}
        )
        if not F.is_zero() and F.degree() == deg:
            return F


def random_gorenstein(rng, nvars_max=3, deg_max=5, dim_max=40):
    while True:
        n = rng.randint(1, nvars_max)
        deg = rng.randint(2, deg_max)
        F = random_dual_generator(rng, n, deg)
        r = Ring(tuple("xyz"[:n]), QQ)
        alg = from_dual_generator(F, r)
        if alg.total_dim() <= dim_max:
            return alg


def test_criterion_01_hilbert_functions():
    a = build("x,y,z", ["x^2", "y^2", "z^2"])
    assert a.hilbert_function() == (1, 3, 3, 1)
    for n in range(1, 5):
        for d in range(1, 6):
            r = ring(",".join(f"x{i}" for i in range(n)))
            gens = tuple(Poly.make(n, QQ, {m: 1}) for m in monomials(n, d))
            trunc = from_ideal(Ideal(r, gens))
            assert trunc.hilbert_function() == tuple(
                math.comb(n + i - 1, i) for i in range(d)
            )
    rk = ring("x,y,z,w")
    ikeda = from_dual_generator(rk.parse_dual("X*Y*W^3 + X^3*Z*W + Y^3*Z^2"), rk)
    assert ikeda.hilbert_function() == (1, 4, 10, 10, 4, 1)
    _pass(1, "Hilbert functions (1,3,3,1), truncated formula, Ikeda")


def test_criterion_02_characteristic_dependence():
    a0 = build("x,y,z", ["x^2", "y^2", "z^2"])
    assert wlp_for_element(a0, a0.ring.parse("x + y + z")).holds
    a2 = build("x,y,z", ["x^2", "y^2", "z^2"], field=GF(2))
    rep2 = wlp_generic(a2, GenericityConfig(seed=0, trials=2))
    assert rep2.holds is False and rep2.certification == "exhaustive"
    conds = nll_conditions(a0, "weak")
    abc = Poly.make(3, QQ, {(1, 1, 1): 1})
    assert len(conds) == 1 and conds[0].monic() == abc
    b0 = build("x,y", ["x^2", "y^2"])
    assert slp_for_element(b0, b0.ring.parse("x + y")).holds
    b2 = build("x,y", ["x^2", "y^2"], field=GF(2))
    repb = slp_generic(b2, GenericityConfig(seed=0, trials=2))
    assert repb.holds is False and repb.certification == "exhaustive"
    ab = Poly.make(2, QQ, {(1, 1): 1})
    conds_s = nll_conditions(b0, "strong")
    assert len(conds_s) == 1 and conds_s[0].monic() == ab
    _pass(2, "WLP/SLP characteristic dependence and loci abc, ab")


def test_criterion_03_stanley_three_routes():
    cfg = GenericityConfig(seed=5, trials=4)
    checked = 0
    for n in (1, 2, 3):
        names = tuple("xyz"[:n])
        r = Ring(names, QQ)
        for ds in itertools.product((1, 2, 3, 4), repeat=n):
            gens = tuple(r.parse(f"{v}^{d}") for v, d in zip(names, ds))
            alg = from_ideal(Ideal(r, gens))
            generic = slp_generic(alg, cfg)
            assert generic.holds, ds
            if alg.total_dim() > 1:
                assert generic.witness is not None, ds
            hess = slp_by_hessian(alg)["slp"]
            assert hess, ds
            L = r.parse(" + ".join(names))
            weights_route = slpn_via_weights(alg, L)
            assert weights_route, ds
            checked += 1
    assert checked == 4 + 16 + 64
    _pass(3, f"Stanley on {checked} monomial CIs via search, Hessian, sl2 weights")


def test_criterion_04_wlp_not_slp():
    r = ring("x,y,z")
    s = r.parse("x + y + z")
    gens = [r.parse("x^3"), r.parse("y^3"), r.parse("z^3"), s * s * s]
    # independent oracle: enumerate products and row-reduce densely
    h = [1]
    d = 1
    while True:
        monos = monomials(3, d)
        rows = []
        for g in gens:
            gd = g.degree()
            if gd > d:
                continue
            for m in monomials(3, d - gd):
                p = g * Poly.make(3, QQ, {m: 1})
                rows.append([p.coefficient(mm) for mm in monos])
        rk = rank(Matrix.from_rows(QQ, rows, ncols=len(monos))) if rows else 0
        hd = len(monos) - rk
        if hd == 0:
            break
        h.append(hd)
        d += 1
    assert tuple(h) == (1, 3, 6, 6, 3)  # frozen from the oracle above
    alg = from_ideal(Ideal(r, tuple(gens)))
    assert alg.hilbert_function() == (1, 3, 6, 6, 3)
    cert = GenericityConfig(seed=3, trials=3, certify=True)
    wl = wlp_generic(alg, cert)
    sl = slp_generic(alg, cert)
    assert wl.holds is True
    assert sl.holds is False and sl.certification == "symbolic"
    _pass(4, "almost complete intersection: H=(1,3,6,6,3), WLP certified, SLP refuted")


def test_criterion_05_hessians():
    r = ring("x,y,z")
    a = from_dual_generator(r.parse_dual("X^2 + Y^2 + Z^2"), r)
    assert hessian_det(a, 0) == a.dual_generator()
    assert to_ordinary(hessian_det(a, 1)) == Poly.constant(3, QQ, 8)
    rk = ring("x,y,z,w")
    ikeda = from_dual_generator(rk.parse_dual("X*Y*W^3 + X^3*Z*W + Y^3*Z^2"), rk)
    assert hessian_det(ikeda, 2).is_zero()
    rng = random.Random(1)
    found_full = False
    for _ in range(6):
        L = Poly.linear_form(4, QQ, [rng.randint(1, 100) for _ in range(4)])
        rep = slpn_for_element(ikeda, L)
        rec = next(m for m in rep.maps if (m.i, m.d) == (1, 3))
        if rec.achieved == rec.expected == 4:
            found_full = True
            break
    assert found_full, "L^3: A_1 -> A_4 must reach full rank"
    _pass(5, "hess^1 = 8, hess^0 = F, Ikeda hess^2 = 0 with L^3 full rank")


def test_criterion_06_macaulay_round_trip():
    rng = random.Random(6)
    done = 0
    while done < 20:
        n = rng.randint(1, 3)
        deg = rng.randint(2, 5)
        F = random_dual_generator(rng, n, deg)
        r = Ring(tuple("xyz"[:n]), QQ)
        alg = from_dual_generator(F, r)
        G = alg.dual_generator()
        # recovered generator agrees up to a scalar
        assert G.scale(QQ.inv(G.terms[0][1])) == F.scale(QQ.inv(F.terms[0][1]))
        # double annihilator: Ann(F)_d perp equals the contractions of F
        ideal = Ideal(r, tuple(alg.minimal_generators()))
        for d in range(deg + 1):
            monos_d = monomials(n, d)
            idx = {m: i for i, m in enumerate(monos_d)}
            span_perp = RowSpace(QQ, len(monos_d))
            for v in inverse_system(ideal, d):
                span_perp.add({idx[m]: c for m, c in v.terms})
            span_contract = RowSpace(QQ, len(monos_d))
            for m in monomials(n, deg - d):
                g = contract(Poly.make(n, QQ, {m: 1}), F)
                if not g.is_zero():
                    span_contract.add({idx[mm]: c for mm, c in g.terms})
            assert span_perp.rank == span_contract.rank
            for row in span_contract.rref_rows():
                assert span_perp.contains(row)
        done += 1
    _pass(6, "20 random Macaulay round trips with double annihilator")


def test_criterion_07_constructions():
    a = build("x,y", ["x^2", "y^4"])
    b = build("u,v", ["u^3", "v^3"])
    t = build("z", ["z^2"])
    pa = algebra_map(a, t, ["z", "0"])
    pb = algebra_map(b, t, ["z", "0"])
    fp = fiber_product(a, b, t, pa, pb)
    assert tuple(hilbert_function(fp)) == (1, 3, 5, 4, 2)
    cs = connected_sum(a, b, t, pa, pb)
    assert tuple(hilbert_function(cs)) == (1, 3, 5, 3, 1)
    a3 = build("x", ["x^4"])
    b3 = build("u,v", ["u^3", "v^2"])
    pa3 = algebra_map(a3, t, ["z"])
    pb3 = algebra_map(b3, t, ["z", "0"])
    cs3 = connected_sum(a3, b3, t, pa3, pb3)
    assert tuple(hilbert_function(cs3)) == (1, 2, 2, 1)

    # randomized identity checks on twenty valid inputs
    rng = random.Random(7)
    done = 0
    while done < 20:
        over_field = done % 2 == 0
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        da = [rng.randint(2, 4) for _ in range(na)]
        socle = sum(x - 1 for x in da)
        if socle < 2:
            continue
        db = []
        remaining = socle
        for j in range(nb):
            left = nb - j - 1
            lo = max(2, remaining - 3 * left + 1)
            hi = min(4, remaining - left + 1)
            if lo > hi:
                break
            pick = rng.randint(lo, hi)
            db.append(pick)
            remaining -= pick - 1
        if remaining != 0 or len(db) != nb:
            continue
        ra = Ring(tuple(f"x{i}" for i in range(na)), QQ)
        rb = Ring(tuple(f"y{i}" for i in range(nb)), QQ)
        A = from_ideal(Ideal(ra, tuple(ra.parse(f"x{i}^{d}") for i, d in enumerate(da))))
        B = from_ideal(Ideal(rb, tuple(rb.parse(f"y{i}^{d}") for i, d in enumerate(db))))
        assert A.socle_degree == B.socle_degree == socle
        if over_field:
            T = build("w", ["w"])
            pA = algebra_map(A, T, ["0"] * na)
            pB = algebra_map(B, T, ["0"] * nb)
        else:
            T = build("z", ["z^2"])
            pA = algebra_map(A, T, ["z"] + ["0"] * (na - 1))
            pB = algebra_map(B, T, ["z"] + ["0"] * (nb - 1))
        FP = fiber_product(A, B, T, pA, pB)
        for dd in range(FP.socle_degree + 1):
            assert FP.dim(dd) == A.dim(dd) + B.dim(dd) - T.dim(dd)
        try:
            CS = connected_sum(A, B, T, pA, pB)
        except ValueError:
            # incompatible Thom classes or equal socle degrees: not a valid
            # connected-sum input, so it does not count towards the quota
            continue
        nshift = A.socle_degree - T.socle_degree
        for dd in range(A.socle_degree + 1):
            assert CS.dim(dd) == A.dim(dd) + B.dim(dd) - T.dim(dd) - T.dim(dd - nshift)
        done += 1
    _pass(7, "example 7.1/7.3 values and 20 randomized Hilbert identities")


def test_criterion_08_blowups():
    a = build("x,y", ["x^3", "y^3"])
    t = build("x,y", ["x^2", "y"])
    pi = algebra_map(a, t, ["x", "0"])
    bug = blowup(a, t, pi, [a.ring.parse("x"), a.ring.parse("0")], 1)
    assert bug.hilbert_function() == (1, 3, 5, 3, 1)
    soc = socle_vectors(bug)
    assert len(soc) == 1 and soc[0][0] == 4
    a_part, slots = bug.split(4, soc[0][1])
    assert a.poly(4, a_part).monic() == a.ring.parse("x^2*y^2")
    assert all(all(x == 0 for x in s) for s in slots)

    from lefschetz.checks import _symbolic_step_matrices
    from lefschetz.symbolic import poly_det

    r = ring("x,y,z,u,v")
    pz = from_dual_generator(r.parse_dual("X*U^2 + Y*U*V + Z*V^2"), r)
    tz = build("x,y,z,u,v", ["x^2", "y", "z", "u", "v"])
    piz = algebra_map(pz, tz, ["x", "0", "0", "0", "0"])
    omega_a = orientation_from_socle_element(pz, 3, pz.vector(r.parse("x*u^2"), 3))
    omega_t = default_orientation(tz)
    tau = thom_class(piz, omega_a, omega_t)
    lam = QQ.div(QQ.coerce(1), tau.poly(pz).leading_coefficient())
    bug2 = blowup(pz, tz, piz, [r.parse("x").scale(-1)], lam, omega_a=omega_a, omega_t=omega_t)
    assert bug2.hilbert_function() == (1, 6, 6, 1)
    det = poly_det(_symbolic_step_matrices(bug2)[1])
    e_var, f_var = Poly.variable(6, QQ, 4), Poly.variable(6, QQ, 5)
    assert det.monic() == ((e_var**4) * (f_var**2)).monic()
    assert slp_generic(bug2, GenericityConfig(seed=2, trials=3)).holds
    assert wlp_generic(pz, GenericityConfig(seed=2, trials=3, certify=True)).holds is False
    _pass(8, "blowups: (1,3,5,3,1) with socle x^2y^2; Perazzo (1,6,6,1), det f^2 e^4, SLP up / no WLP down")


def test_criterion_09_exercise_87():
    cert = GenericityConfig(seed=3, trials=3, certify=True)
    r = ring("x,y,z,u,v")
    G = r.parse_dual("X*U^6 + Y*U^4*V^2 + Z*U^5*V")
    A = from_dual_generator(G, r)
    T = from_dual_generator(contract(r.parse("u^3"), G), r)
    # derived goldens, frozen
    assert A.hilbert_function() == (1, 5, 6, 6, 6, 6, 5, 1)
    assert T.hilbert_function() == (1, 5, 6, 5, 1)
    pi = algebra_map(A, T, ["x", "y", "z", "u", "v"])
    tau = thom_class(pi, default_orientation(A), default_orientation(T))
    assert tau.poly(A).monic() == A.ring.parse("u^3")
    lam = QQ.div(QQ.coerce(-1), tau.poly(A).leading_coefficient())
    bug = blowup(A, T, pi, [r.parse("0"), r.parse("0")], lam)
    assert bug.hilbert_function() == (1, 6, 12, 17, 17, 12, 6, 1)
    assert wlp_generic(A, cert).holds is True
    assert slp_generic(A, cert).holds is False
    assert wlp_generic(T, cert).holds is True
    assert slp_generic(T, cert).holds is False
    assert wlp_generic(bug, cert).holds is False
    _pass(9, "exercise 8.7: A, T have WLP not SLP; the blowup loses WLP (certified)")


def test_criterion_10_gorenstein_properties():
    rng = random.Random(10)
    slpn_pairs = []
    for trial in range(14):
        alg = random_gorenstein(rng)
        h = alg.hilbert_function()
        assert symmetric(h)
        omega = default_orientation(alg)
        for i in range(alg.socle_degree + 1):
            m = pairing_matrix(alg, omega, i)
            assert rank(m) == alg.dim(i) == alg.dim(alg.socle_degree - i)
        n1 = alg.dim(1)
        L = Poly.linear_form(alg.nvars, QQ, [rng.randint(1, 60) for _ in range(alg.nvars)])
        slp_rep = slp_for_element(alg, L)
        wlp_rep = wlp_for_element(alg, L)
        slpn_rep = slpn_for_element(alg, L)
        assert slpn_rep.holds == (slp_rep.holds and symmetric(h))
        if slp_rep.holds:
            assert wlp_rep.holds
        if wlp_rep.holds:
            assert unimodal(h)
        jt = jordan_type(alg, L)
        assert sum(jt.parts) == alg.total_dim()
        if slpn_rep.holds:
            triple = triple_from_lefschetz(alg, L)  # verifies brackets internally
            c = alg.socle_degree
            wd = weight_decomposition(triple.h, candidates=range(-c, c + 1))
            for k, vs in wd.spaces:
                if k >= 0:
                    continue
                power = Matrix.identity(QQ, triple.size)
                for _ in range(-k):
                    power = triple.e.mul(power)
                images = [power.mul_vec(v) for v in vs]
                assert rank(Matrix.from_cols(QQ, images, nrows=triple.size)) == len(vs)
                assert len(wd.basis(-k)) == len(vs)
            flat = [w for w, vs in wd.spaces for _ in vs]
            assert irreducible_decomposition(flat) == jt.parts
            if alg.total_dim() <= 12:
                slpn_pairs.append((alg, L))
    # tensor products of narrow-sense witnesses stay narrow-sense witnesses
    count = 0
    for (a, la), (b, lb) in itertools.combinations(slpn_pairs, 2):
        t = tensor_product(a, b)
        la2 = la.substitute([t.ring.variable(j) for j in range(a.nvars)])
        lb2 = lb.substitute([t.ring.variable(a.nvars + j) for j in range(b.nvars)])
        assert slpn_for_element(t, la2 + lb2).holds
        count += 1
        if count >= 5:
            break
    assert count >= 3, "need a few narrow-sense tensor pairs"
    _pass(10, "random Gorenstein properties, sl2 bridges and tensor preservation")


def test_criterion_11_randomized_vs_symbolic():
    rng = random.Random(11)
    pure_random = GenericityConfig(seed=0, trials=2, symbolic_dim_limit=0)
    certified = GenericityConfig(seed=0, trials=2, certify=True)
    witnesses = 0
    for trial in range(50):
        if trial % 2 == 0:
            alg = random_gorenstein(rng, nvars_max=3, deg_max=4, dim_max=25)
        else:
            n = rng.randint(2, 3)
            r = Ring(tuple("xyz"[:n]), QQ)
            gens = [r.parse(f"{v}^{rng.randint(2, 3)}") for v in r.varnames]
            extra = random_dual_generator(rng, n, 2)
            gens.append(
                Poly.make(n, QQ, {m: c for m, c in extra.terms})
            )
            alg = from_ideal(Ideal(r, tuple(gens)))
        mode = "wlp" if trial % 3 else "slp"
        rand_rep = (wlp_generic if mode == "wlp" else slp_generic)(alg, pure_random)
        cert_rep = (wlp_generic if mode == "wlp" else slp_generic)(alg, certified)
        if rand_rep.witness is not None and rand_rep.holds:
            witnesses += 1
            assert cert_rep.holds is True, "witnesses never lie"
    assert witnesses >= 20
    _pass(11, f"randomized vs symbolic agreement on 50 instances ({witnesses} witnesses)")
