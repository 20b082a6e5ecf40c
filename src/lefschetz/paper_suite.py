"""Regression suite replaying the worked examples bundled with the package.

Each case rebuilds one example from scratch and checks the recorded values:
Hilbert functions, Lefschetz verdicts, Hessians, Thom classes, connected
sums and blowups.  The CLI `paper-suite` command renders one line per case
and fails when any case does.
"""

from __future__ import annotations

import math

from .algebra import (
    Ideal,
    Ring,
    default_orientation,
    from_dual_generator,
    from_ideal,
    hilbert_function,
    is_gorenstein,
    orientation_from_socle_element,
    pairing_matrix,
    same_degreewise_ideal,
    socle_vectors,
)
from .checks import (
    GenericityConfig,
    h_vector,
    hessian_det,
    jordan_type,
    nll_conditions,
    report_for_element,
    slp_by_hessian,
    slp_generic,
    slpn_for_element,
    symmetric,
    unimodal,
    wlp_for_element,
    wlp_generic,
)
from .constructions import (
    algebra_map,
    blowup,
    blowup_square_commutes,
    connected_sum,
    connected_sum_over_field,
    exceptional_divisor,
    fiber_product,
    presentation_of,
    tensor_product,
    thom_class,
)
from .exactmath import GF, QQ, rank
from .polynomials import Poly, contract, monomials, to_ordinary
from .sl2 import (
    irreducible_decomposition,
    model_rep,
    slpn_via_weights,
    triple_from_lefschetz,
    verify_triple,
    weight_decomposition,
)

CFG = GenericityConfig(seed=0, trials=3)
CERT = GenericityConfig(seed=0, trials=3, certify=True)


def _ring(names, field=QQ, weights=None):
    return Ring(tuple(names.split(",")), field, tuple(weights) if weights else ())


def _build(names, gens, field=QQ, weights=None, cap=None):
    r = _ring(names, field, weights)
    return from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)), max_degree=cap)


def _ok(cond, detail=""):
    if not cond:
        raise AssertionError(detail or "check failed")


def case_hilbert_222():
    a = _build("x,y,z", ["x^2", "y^2", "z^2"])
    _ok(a.hilbert_function() == (1, 3, 3, 1), str(a.hilbert_function()))


def case_truncated_rings():
    for n in range(1, 5):
        for d in range(1, 5):
            r = _ring(",".join(f"x{i}" for i in range(n)))
            gens = tuple(Poly.make(n, QQ, {m: 1}) for m in monomials(n, d))
            a = from_ideal(Ideal(r, gens))
            expect = tuple(math.comb(n + i - 1, i) for i in range(d))
            _ok(a.hilbert_function() == expect)


def case_ikeda_hilbert():
    r = _ring("x,y,z,w")
    a = from_dual_generator(r.parse_dual("X*Y*W^3 + X^3*Z*W + Y^3*Z^2"), r)
    _ok(a.hilbert_function() == (1, 4, 10, 10, 4, 1))
    omega = default_orientation(a)
    for i in range(6):
        _ok(rank(pairing_matrix(a, omega, i)) == a.dim(i))


def case_ci_24():
    _ok(_build("x,y", ["x^2", "y^4"]).hilbert_function() == (1, 2, 2, 2, 1))


def case_weighted_grading():
    a = _build("x,y", ["x^2", "y^2"], weights=[1, 3])
    _ok(a.hilbert_function() == (1, 1, 0, 1, 1))
    _ok(not unimodal(a.hilbert_function()))
    _ok(wlp_for_element(a, a.ring.parse("x")).holds)


def case_wlp_characteristic_dependence():
    a0 = _build("x,y,z", ["x^2", "y^2", "z^2"])
    _ok(wlp_for_element(a0, a0.ring.parse("x + y + z")).holds)
    m = a0.multiplication_map(a0.ring.parse("x + y + z"), 1)
    _ok([list(r) for r in m.entries] == [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    a2 = _build("x,y,z", ["x^2", "y^2", "z^2"], field=GF(2))
    _ok(rank(a2.multiplication_map(a2.ring.parse("x + y + z"), 1)) == 2)
    _ok(wlp_generic(a2, CFG).holds is False)
    a3 = _build("x,y,z", ["x^2", "y^2", "z^2"], field=GF(3))
    _ok(wlp_generic(a3, CFG).holds is True)


def case_slp_characteristic_dependence():
    a0 = _build("x,y", ["x^2", "y^2"])
    _ok(slp_generic(a0, CFG).holds)
    m = a0.multiplication_map(a0.ring.parse("x + y") ** 2, 0)
    _ok([list(r) for r in m.entries] == [[2]])
    a2 = _build("x,y", ["x^2", "y^2"], field=GF(2))
    _ok(slp_generic(a2, CFG).holds is False)


def case_nll_conditions():
    a = _build("x,y,z", ["x^2", "y^2", "z^2"])
    conds = nll_conditions(a, "weak")
    _ok(conds == [Poly.make(3, QQ, {(1, 1, 1): 1})], "weak locus is abc")
    b = _build("x,y", ["x^2", "y^2"])
    _ok(nll_conditions(b, "strong") == [Poly.make(2, QQ, {(1, 1): 1})], "strong locus is ab")


def case_stanley_monomial_ci():
    a = _build("x,y,z", ["x^3", "y^3", "z^3"])
    rep = slp_generic(a, CFG)
    _ok(rep.holds and rep.witness is not None)
    L = a.ring.parse("x + y + z")
    _ok(slpn_for_element(a, L).holds)
    _ok(slpn_via_weights(a, L))
    _ok(slp_by_hessian(from_dual_generator(a.dual_generator(), a.ring))["slp"])


def case_wlp_not_slp_exercise():
    r = _ring("x,y,z")
    s = r.parse("x + y + z")
    gens = (r.parse("x^3"), r.parse("y^3"), r.parse("z^3"), s * s * s)
    a = from_ideal(Ideal(r, gens))
    _ok(wlp_generic(a, CERT).holds is True)
    _ok(slp_generic(a, CERT).holds is False)


def case_perazzo_no_wlp():
    r = _ring("x,y,z,u,v")
    a = from_dual_generator(r.parse_dual("X*U^2 + Y*U*V + Z*V^2"), r)
    _ok(a.hilbert_function() == (1, 5, 5, 1))
    _ok(wlp_generic(a, CERT).holds is False)
    _ok(slp_generic(a, CERT).holds is False)


def case_hessians():
    r = _ring("x,y,z")
    a = from_dual_generator(r.parse_dual("X^2 + Y^2 + Z^2"), r)
    _ok(hessian_det(a, 0) == a.dual_generator())
    _ok(to_ordinary(hessian_det(a, 1)) == Poly.constant(3, QQ, 8))
    _ok(slp_by_hessian(a)["slp"])


def case_ikeda_hessian():
    r = _ring("x,y,z,w")
    a = from_dual_generator(r.parse_dual("X*Y*W^3 + X^3*Z*W + Y^3*Z^2"), r)
    _ok(not hessian_det(a, 1).is_zero())
    _ok(hessian_det(a, 2).is_zero())
    rep = slp_generic(a, GenericityConfig(seed=1, trials=4))
    got = {(m.i, m.d): m for m in rep.maps}
    _ok(got[(1, 3)].achieved == got[(1, 3)].expected == 4, "L^3: A_1 -> A_4 full")
    _ok(got[(2, 1)].achieved < got[(2, 1)].expected, "A_2 -> A_3 deficient")


def case_macaulay_duality():
    r = _ring("x,y,z")
    a = from_dual_generator(r.parse_dual("X^2 + Y^2 + Z^2"), r)
    b = _build("x,y,z", ["x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"])
    _ok(same_degreewise_ideal(a, b))
    _ok(is_gorenstein(b))
    c = from_dual_generator(r.parse_dual("X^2*Y*Z^3"), r)
    d = _build("x,y,z", ["x^3", "y^2", "z^4"])
    _ok(same_degreewise_ideal(c, d))
    from .algebra import inverse_system

    ideal = Ideal(_ring("x,y"), tuple(_ring("x,y").parse(g) for g in ["x^2", "y^3"]))
    dims = [len(inverse_system(ideal, k)) for k in range(5)]
    _ok(dims == [1, 2, 2, 1, 0])
    ideal2 = Ideal(
        _ring("x,y"), tuple(_ring("x,y").parse(g) for g in ["x^2", "x*y^2", "y^3"])
    )
    _ok([len(inverse_system(ideal2, k)) for k in range(4)] == [1, 2, 2, 0])


def case_example_71_thom_classes():
    a = _build("x,y", ["x^2", "y^4"])
    t = _build("z", ["z^2"])
    pa = algebra_map(a, t, ["z", "0"])
    tau = thom_class(pa, default_orientation(a), default_orientation(t))
    _ok(tau.poly(a) == a.ring.parse("y^3"), "tau_A = y^3")
    b = _build("u,v", ["u^3", "v^3"])
    pb = algebra_map(b, t, ["z", "0"])
    taub = thom_class(pb, default_orientation(b), default_orientation(t))
    _ok(taub.poly(b) == b.ring.parse("u*v^2"), "tau_B = u v^2")
    f = _build("w", ["w"])
    pf = algebra_map(a, f, ["0", "0"])
    tausoc = thom_class(pf, default_orientation(a), default_orientation(f))
    _ok(tausoc.poly(a) == a.ring.parse("x*y^3"), "tau to the field is the socle")


def case_example_71_fp_cs():
    a = _build("x,y", ["x^2", "y^4"])
    b = _build("u,v", ["u^3", "v^3"])
    t = _build("z", ["z^2"])
    pa = algebra_map(a, t, ["z", "0"])
    pb = algebra_map(b, t, ["z", "0"])
    fp = fiber_product(pa, pb)
    _ok(tuple(hilbert_function(fp)) == (1, 3, 5, 4, 2))
    cs = connected_sum(pa, pb)
    _ok(tuple(hilbert_function(cs)) == (1, 3, 5, 3, 1))
    _ok(is_gorenstein(cs))


def case_example_73_nonstandard():
    a = _build("x", ["x^4"])
    b = _build("u,v", ["u^3", "v^2"])
    t = _build("z", ["z^2"])
    pa = algebra_map(a, t, ["z"])
    pb = algebra_map(b, t, ["z", "0"])
    fp = fiber_product(pa, pb)
    _, _, gens = presentation_of(fp)
    _ok(sorted(gd for gd, _ in gens) == [1, 1, 2], "generator degrees 1,1,2")
    cs = connected_sum(pa, pb)
    _ok(tuple(hilbert_function(cs)) == (1, 2, 2, 1))


def case_example_72_sums():
    a = _build("x,y,z", ["x^3", "y^2", "z^2"])
    b = _build("x,y,t", ["x^2", "y^3", "t^2"])
    tq = _build("x,y", ["x^2", "y^2"])
    pa = algebra_map(a, tq, ["x", "y", "0"])
    pb = algebra_map(b, tq, ["x", "y", "0"])
    cs = connected_sum(pa, pb)
    _ok(tuple(hilbert_function(cs)) == (1, 4, 6, 4, 1))
    _ok(wlp_generic(cs, CFG).holds)
    r = _ring("x,y,z,t")
    second = from_dual_generator(r.parse_dual("X^3*Y*Z - X*Y^3*T"), r)
    _ok(second.hilbert_function() == (1, 4, 7, 7, 4, 1))
    _ok(hessian_det(second, 2).is_zero(), "vanishing second Hessian")
    _ok(wlp_generic(second, CERT).holds is False)


def case_blowup_notgor():
    a = _build("x,y", ["x^3", "y^3"])
    t = _build("x,y", ["x^2", "y"])
    pi = algebra_map(a, t, ["x", "0"])
    bug = blowup(pi, [a.ring.parse("x"), a.ring.parse("0")], 1)
    _ok(bug.hilbert_function() == (1, 3, 5, 3, 1))
    soc = socle_vectors(bug)
    _ok(len(soc) == 1 and soc[0][0] == 4)
    a_part, slots = bug.split(4, soc[0][1])
    _ok(a.poly(4, a_part).monic() == a.ring.parse("x^2*y^2"), "socle is x^2 y^2")
    tt = exceptional_divisor(bug)
    _ok(blowup_square_commutes(bug, tt))


def case_perazzo_blowup():
    from .checks import _symbolic_step_matrices
    from .symbolic import poly_det

    r = _ring("x,y,z,u,v")
    a = from_dual_generator(r.parse_dual("X*U^2 + Y*U*V + Z*V^2"), r)
    t = _build("x,y,z,u,v", ["x^2", "y", "z", "u", "v"])
    pi = algebra_map(a, t, ["x", "0", "0", "0", "0"])
    omega_a = orientation_from_socle_element(a, 3, a.vector(a.ring.parse("x*u^2"), 3))
    omega_t = default_orientation(t)
    tau = thom_class(pi, omega_a, omega_t)
    _ok(tau.poly(a).monic() == a.ring.parse("u^2"), "tau = u^2")
    lam = QQ.div(QQ.coerce(1), tau.poly(a).leading_coefficient())
    bug = blowup(pi, [a.ring.parse("x").scale(-1)], lam, omega_a=omega_a, omega_t=omega_t)
    _ok(bug.hilbert_function() == (1, 6, 6, 1))
    mat = _symbolic_step_matrices(bug)[1]
    det = poly_det(mat)
    e_var = Poly.variable(6, QQ, 4)
    f_var = Poly.variable(6, QQ, 5)
    _ok(det.monic() == ((e_var**4) * (f_var**2)).monic(), "det = f^2 e^4 up to scalar")
    _ok(slp_generic(bug, CFG).holds)
    _ok(wlp_generic(a, CERT).holds is False, "blown-down algebra has no WLP")


def case_exercise_87():
    r = _ring("x,y,z,u,v")
    G = r.parse_dual("X*U^6 + Y*U^4*V^2 + Z*U^5*V")
    a = from_dual_generator(G, r)
    _ok(a.hilbert_function() == (1, 5, 6, 6, 6, 6, 5, 1))
    t = from_dual_generator(contract(r.parse("u^3"), G), r)
    _ok(t.hilbert_function() == (1, 5, 6, 5, 1))
    degrees = sorted(a.ring.degree(g) for g in a.minimal_generators())
    _ok(degrees == [2] * 9 + [3, 6, 7, 7, 7], "generator degrees match the notes")
    pi = algebra_map(a, t, ["x", "y", "z", "u", "v"])
    tau = thom_class(pi, default_orientation(a), default_orientation(t))
    _ok(tau.poly(a).monic() == a.ring.parse("u^3"), "tau = u^3")
    lam = QQ.div(QQ.coerce(-1), tau.poly(a).leading_coefficient())
    bug = blowup(pi, [r.parse("0"), r.parse("0")], lam)
    _ok(bug.hilbert_function() == (1, 6, 12, 17, 17, 12, 6, 1))
    _ok(wlp_generic(a, CERT).holds is True)
    _ok(slp_generic(a, CERT).holds is False)
    _ok(wlp_generic(t, CERT).holds is True)
    _ok(slp_generic(t, CERT).holds is False)
    _ok(wlp_generic(bug, CERT).holds is False, "the blowup loses WLP")


def case_sl2_model():
    t = model_rep(1)
    _ok([list(r) for r in t.e.entries] == [[0, 1], [0, 0]])
    for d in range(7):
        _ok(verify_triple(model_rep(d)))
    eig = sorted(model_rep(3).h.entries[i][i] for i in range(4))
    _ok(eig == [-3, -1, 1, 3])
    _ok(irreducible_decomposition([2, 1, 1, 0, -1, -1, -2]) == (3, 2, 2))


def case_sl2_weights_of_222():
    a = _build("x,y,z", ["x^2", "y^2", "z^2"])
    L = a.ring.parse("x + y + z")
    triple = triple_from_lefschetz(a, L)
    wd = weight_decomposition(triple.h)
    flat = sorted(w for w, vs in wd.spaces for _ in vs)
    _ok(flat == [-3, -1, -1, -1, 1, 1, 1, 3])
    _ok(jordan_type(a, L).parts == (4, 2, 2))


def case_slp_nonsymmetric():
    a = _build("x,y", ["x^2", "x*y", "y^5"])
    L = a.ring.parse("x + y")
    _ok(report_for_element(a, L, "slp").holds)
    _ok(not slpn_for_element(a, L).holds)
    _ok(not symmetric(a.hilbert_function()))


def case_tensor_remark():
    a = _build("x,y,z", ["x^2", "x*y", "y^2", "x*z", "y*z", "z^5"])
    t = tensor_product(a, a)
    _ok(t.hilbert_function() == (1, 6, 11, 8, 9, 8, 3, 2, 1))
    _ok(not unimodal(t.hilbert_function()))


def case_tensor_slpn_preserved():
    a = _build("x,y", ["x^2", "y^2"])
    b = _build("z", ["z^4"])
    t = tensor_product(a, b)
    L = t.ring.parse("x + y + z")
    _ok(slpn_for_element(t, L).holds)


def case_stanley_second_proof():
    a = _build("x,y,z", ["x^2", "y^3", "z^2"])
    L = a.ring.parse("x + y + z")
    _ok(slpn_via_weights(a, L))


def case_connected_sum_over_field_presentation():
    a = _build("x", ["x^3"])
    b = _build("y", ["y^3"])
    cs = connected_sum_over_field(a, b)
    _ok(cs.hilbert_function() == (1, 2, 1))
    f = _build("w", ["w"])
    pa = algebra_map(a, f, ["0"])
    pb = algebra_map(b, f, ["0"])
    csp = connected_sum(pa, pb)
    _ok(tuple(hilbert_function(csp)) == cs.hilbert_function())


def case_h_vector():
    _ok(h_vector((3, 3), 2) == (1, 1, 1))
    for d in range(1, 6):
        f = tuple(math.comb(d + 1, i + 1) for i in range(d))
        _ok(h_vector(f, d) == tuple(1 for _ in range(d + 1)))


CASES = [
    ("hilbert-222", case_hilbert_222),
    ("truncated-rings", case_truncated_rings),
    ("ikeda-hilbert", case_ikeda_hilbert),
    ("ci-2-4", case_ci_24),
    ("weighted-grading", case_weighted_grading),
    ("wlp-characteristic", case_wlp_characteristic_dependence),
    ("slp-characteristic", case_slp_characteristic_dependence),
    ("non-lefschetz-loci", case_nll_conditions),
    ("stanley-monomial-ci", case_stanley_monomial_ci),
    ("wlp-not-slp", case_wlp_not_slp_exercise),
    ("perazzo-no-wlp", case_perazzo_no_wlp),
    ("hessians-sum-of-squares", case_hessians),
    ("ikeda-hessian", case_ikeda_hessian),
    ("macaulay-duality", case_macaulay_duality),
    ("example-7.1-thom", case_example_71_thom_classes),
    ("example-7.1-fp-cs", case_example_71_fp_cs),
    ("example-7.3-nonstandard", case_example_73_nonstandard),
    ("example-7.2-sums", case_example_72_sums),
    ("blowup-not-gor", case_blowup_notgor),
    ("perazzo-blowup", case_perazzo_blowup),
    ("exercise-8.7", case_exercise_87),
    ("sl2-model", case_sl2_model),
    ("sl2-weights-222", case_sl2_weights_of_222),
    ("slp-nonsymmetric", case_slp_nonsymmetric),
    ("tensor-remark", case_tensor_remark),
    ("tensor-slpn", case_tensor_slpn_preserved),
    ("stanley-second-proof", case_stanley_second_proof),
    ("connected-sum-presentation", case_connected_sum_over_field_presentation),
    ("h-vector", case_h_vector),
]


def run_all(verbose: bool = True) -> list[dict]:
    out = []
    for name, fn in CASES:
        try:
            fn()
            ok, detail = True, ""
        except AssertionError as exc:
            ok, detail = False, str(exc)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append({"name": name, "ok": ok, "detail": detail})
        if verbose:
            print(f"[{'pass' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    return out
