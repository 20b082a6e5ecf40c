#!/usr/bin/env python3
"""Build the three blowup case studies and print their invariants.

Shows, for each: the Hilbert functions of the base, the quotient and the
blowup, the Thom class, the exceptional divisor, and the Lefschetz verdicts
before and after blowing up.
"""

from lefschetz.algebra import (
    Ideal,
    Ring,
    default_orientation,
    from_dual_generator,
    from_ideal,
    orientation_from_socle_element,
)
from lefschetz.checks import GenericityConfig, slp_generic, wlp_generic
from lefschetz.constructions import algebra_map, blowup, exceptional_divisor, thom_class
from lefschetz.exactmath import QQ
from lefschetz.polynomials import contract

CFG = GenericityConfig(seed=0, trials=3, certify=True)


def report(name, A, T, bug, tau_text):
    print(f"== {name} ==")
    print(f"  H(A)    = {A.hilbert_function()}")
    print(f"  H(T)    = {T.hilbert_function()}")
    print(f"  H(bug)  = {bug.hilbert_function()}")
    print(f"  tau     = {tau_text}")
    for label, alg in (("A", A), ("T", T), ("blowup", bug)):
        w = wlp_generic(alg, CFG)
        s = slp_generic(alg, CFG)
        print(f"  {label:7s} wlp={w.holds} slp={s.holds}")
    print()


def build(names, gens):
    r = Ring(tuple(names.split(",")), QQ)
    return from_ideal(Ideal(r, tuple(r.parse(g) for g in gens)))


def case_not_gorenstein_base():
    a = build("x,y", ["x^3", "y^3"])
    t = build("x,y", ["x^2", "y"])
    pi = algebra_map(a, t, ["x", "0"])
    tau = thom_class(pi, default_orientation(a), default_orientation(t))
    bug = blowup(pi, [a.ring.parse("x"), a.ring.parse("0")], 1)
    tt = exceptional_divisor(bug)
    report("monomial CI along a line", a, t, bug, a.ring.format(tau.poly(a)))
    print(f"  exceptional divisor H = {tt.hilbert_function()}\n")


def case_perazzo():
    r = Ring(("x", "y", "z", "u", "v"), QQ)
    a = from_dual_generator(r.parse_dual("X*U^2 + Y*U*V + Z*V^2"), r)
    t = build("x,y,z,u,v", ["x^2", "y", "z", "u", "v"])
    pi = algebra_map(a, t, ["x", "0", "0", "0", "0"])
    omega_a = orientation_from_socle_element(a, 3, a.vector(r.parse("x*u^2"), 3))
    omega_t = default_orientation(t)
    tau = thom_class(pi, omega_a, omega_t)
    lam = QQ.div(QQ.coerce(1), tau.poly(a).leading_coefficient())
    bug = blowup(pi, [r.parse("x").scale(-1)], lam, omega_a=omega_a, omega_t=omega_t)
    report("Perazzo threefold", a, t, bug, a.ring.format(tau.poly(a)))


def case_wlp_loss():
    r = Ring(("x", "y", "z", "u", "v"), QQ)
    G = r.parse_dual("X*U^6 + Y*U^4*V^2 + Z*U^5*V")
    a = from_dual_generator(G, r)
    t = from_dual_generator(contract(r.parse("u^3"), G), r)
    pi = algebra_map(a, t, ["x", "y", "z", "u", "v"])
    tau = thom_class(pi, default_orientation(a), default_orientation(t))
    lam = QQ.div(QQ.coerce(-1), tau.poly(a).leading_coefficient())
    bug = blowup(pi, [r.parse("0"), r.parse("0")], lam)
    report("degree-3 Thom class: WLP is lost", a, t, bug, a.ring.format(tau.poly(a)))


if __name__ == "__main__":
    case_not_gorenstein_base()
    case_perazzo()
    case_wlp_loss()
