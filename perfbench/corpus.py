"""Seeded inputs for the three workloads.

Each workload is a fixed schedule of job slots.  A slot fixes the shape of
its input: ladder rung, field, number of variables, degree and the support of
a random form (drawn once from the slot's name).  The seed picks what varies
inside a shape: variable order, coefficients and the sampling seeds handed to
the toolkit.  So a seed changes the inputs but hardly the amount of work, and
the same seed always gives byte-identical inputs (see ``corpus_bytes``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Monomial complete intersections x_1^a_1, ..., x_n^a_n, by algebra dimension.
CI_LADDER = (
    (3, 3, 3),        # 27
    (2, 4, 4),        # 32
    (2, 2, 3, 3),     # 36
    (3, 4, 4),        # 48
    (2, 3, 3, 3),     # 54
    (4, 4, 4),        # 64
    (2, 2, 2, 2, 4),  # 64
    (2, 2, 2, 3, 3),  # 72
    (3, 5, 5),        # 75
    (4, 4, 5),        # 80
    (3, 3, 3, 3),     # 81
    (4, 5, 5),        # 100
    (3, 3, 3, 4),     # 108
    (5, 5, 5),        # 125
    (3, 3, 4, 4),     # 144
    (4, 4, 4, 4),     # 256
)
# Rungs above this dimension run over GF(p) only: (4,4,4,4) over QQ alone
# takes 3-4 s, which leaves too few passes in a run.
QQ_MAX_DIM = 144
# sl2 jobs on rungs of dimension <= 81 whose dense conjugation takes well
# under a second: (4, 4, 4) alone would take two, leaving too few passes.
SL2_RUNGS = ((3, 3, 3), (2, 4, 4), (2, 2, 3, 3))
PRIME = 32003

# gorenstein-survey: (nvars, degree, terms) of each random form, per field.
SURVEY_QQ = [(n, d, t) for n in (3, 4) for d in (3, 4, 5, 6) for t in (4, 5, 6, 7)]
SURVEY_QQ += [(3, 7, 5), (3, 7, 7), (4, 7, 5)]
SURVEY_FP = [(n, d, 5) for n in (3, 4) for d in (4, 5, 6)] + [(3, 7, 6), (4, 7, 6)]
SURVEY_F3 = [(3, 3, 4), (3, 4, 5), (3, 5, 5), (3, 5, 4)]
PERAZZO_DEGREES = (5, 5, 5, 6, 6, 6, 7, 7, 8, 8)
# Weak non-Lefschetz loci take minors of symbolic matrices, which explodes
# past these shapes: on some four-variable cubics the squarefree part alone
# takes minutes.
NLL_SHAPES = {(3, 3), (3, 4)}

# Where constructions-cli writes its files, relative to the checkout root.  A
# fixed location keeps the paths echoed in --json output independent of seed.
CLI_DIR = Path(".bench_build") / "perfbench" / "corpus"
DATA = "src/lefschetz/data"


@dataclass(frozen=True)
class Job:
    id: str
    kind: str
    spec: dict = field(default_factory=dict)


@dataclass
class Corpus:
    workload: str
    seed: int
    jobs: list
    files: dict  # relative path -> text, written by ``write_files``

    def write_files(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def build(workload: str, seed: int) -> Corpus:
    makers = {
        "ci-ladder": _ci_ladder,
        "gorenstein-survey": _survey,
        "constructions-cli": _constructions,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(makers)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs, files = makers[workload](rng, seed)
    return Corpus(workload, seed, jobs, files)


def corpus_bytes(corpus: Corpus) -> bytes:
    """Canonical serialisation of every generated input."""
    doc = {
        "jobs": [[j.id, j.kind, j.spec] for j in corpus.jobs],
        "files": corpus.files,
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


# -- ci-ladder ------------------------------------------------------------------


def _ci_ladder(rng: random.Random, seed: int):
    jobs = []
    for exps in CI_LADDER:
        order = list(exps)
        rng.shuffle(order)
        for fld in ("QQ", f"Fp({PRIME})"):
            if fld == "QQ" and math.prod(exps) > QQ_MAX_DIM:
                continue
            jobs.append(Job(
                f"slp-{''.join(map(str, order))}-{fld}", "ci-slp",
                {"exps": order, "field": fld, "cfg_seed": rng.randrange(2**31)},
            ))
    for exps in SL2_RUNGS:
        order = list(exps)
        rng.shuffle(order)
        jobs.append(Job(f"sl2-{''.join(map(str, order))}", "ci-sl2", {"exps": order}))
    return jobs, {}


# -- gorenstein-survey ------------------------------------------------------------


def _monomials(n: int, d: int) -> list:
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1) for rest in _monomials(n - 1, d - a)]


def _dual_text(names, terms) -> str:
    parts = []
    for mono, c in terms:
        factors = [f"{v.upper()}^{e}" if e > 1 else v.upper()
                   for v, e in zip(names, mono) if e]
        parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


def _random_form(rng, slot, n, d, t, coeffs):
    """A sparse form: ``t`` distinct monomials, every variable present.

    The support depends only on ``slot``; the coefficients come from ``rng``.
    """
    monos = _monomials(n, d)
    shape = random.Random(slot)
    while True:
        support = shape.sample(monos, min(t, len(monos)))
        if all(any(m[i] for m in support) for i in range(n)):
            return sorted([list(m), rng.choice(coeffs)] for m in support)


def _survey(rng: random.Random, seed: int):
    jobs = []
    small = (-4, -3, -2, -1, 1, 2, 3, 4)
    plans = [("QQ", s) for s in SURVEY_QQ]
    plans += [(f"Fp({PRIME})", s) for s in SURVEY_FP]
    plans += [("Fp(3)", s) for s in SURVEY_F3]
    for k, (fld, (n, d, t)) in enumerate(plans):
        names = "xyzw"[:n]
        coeffs = (1, 2) if fld == "Fp(3)" else small
        jobs.append(Job(
            f"form{k:02d}-{fld}-n{n}d{d}", "survey-form",
            {"vars": list(names), "field": fld,
             "terms": _random_form(rng, f"survey:{k}", n, d, t, coeffs),
             "cfg_seed": rng.randrange(2**31), "nll": fld == "QQ" and (n, d) in NLL_SHAPES},
        ))
    # Perazzo-type forms sum_i X_i g_i(U, V): their Hessians vanish, so the
    # negatives need symbolic certification.
    for k, d in enumerate(PERAZZO_DEGREES):
        names = ("x", "y", "z", "u", "v")
        shape = random.Random(f"perazzo:{k}")
        terms = []
        for i in range(3):
            for a in shape.sample(range(d), shape.randint(1, 3)):
                mono = [0] * 5
                mono[i], mono[3], mono[4] = 1, a, d - 1 - a
                terms.append([mono, rng.choice(small)])
        jobs.append(Job(
            f"perazzo{k}-d{d}", "survey-form",
            {"vars": list(names), "field": "QQ", "terms": sorted(terms),
             "cfg_seed": rng.randrange(2**31), "certify": True},
        ))
    return jobs, {}


# -- constructions-cli ------------------------------------------------------------

# Invocations that must be rejected as input errors: exit 2, one-line message.
ERROR_CONTRACT = (
    ("err-sl2-nonwitness", ["sl2", "--element", "x", f"{DATA}/x2y2z2.alg"]),
    ("err-nll-guard", ["nll", f"{DATA}/ikeda.alg"]),
    ("err-nll-strong-guard", ["nll", "--mode", "strong", f"{DATA}/stanley_333.alg"]),
    ("err-hessian-charp", ["hessian", f"{DATA}/x2y2z2_f2.alg"]),
    ("err-check-nonlinear", ["check", "--mode", "wlp", "--element", "x^2", f"{DATA}/x2y2z2.alg"]),
    ("err-jordan-nonlinear", ["jordan", "--element", "x*y", f"{DATA}/x2y2z2.alg"]),
    ("err-hessian-degree", ["hessian", "--degree", "9", f"{DATA}/ikeda.alg"]),
)


def _bundled(seed: int) -> list:
    d = DATA
    s = str(seed)
    return [
        ("hilbert-ikeda", ["hilbert", f"{d}/ikeda.alg"]),
        ("hilbert-weighted", ["hilbert", f"{d}/weighted_y3.alg"]),
        ("socle-ikeda", ["socle", f"{d}/ikeda.alg"]),
        ("socle-notgor", ["socle", f"{d}/notgor_a.alg"]),
        ("dualgen-x2y2z2", ["dualgen", f"{d}/x2y2z2.alg"]),
        ("ann-sum-of-squares", ["ann", f"{d}/sum_of_squares.alg"]),
        ("ann-ikeda", ["ann", f"{d}/ikeda.alg"]),
        ("check-slp-stanley", ["check", "--mode", "slp", "--generic", "--seed", s, f"{d}/stanley_333.alg"]),
        ("check-wlp-element", ["check", "--mode", "wlp", "--element", "x+y+z", f"{d}/x2y2z2.alg"]),
        ("check-slp-perazzo", ["check", "--mode", "slp", "--generic", "--certify", "--seed", s, f"{d}/perazzo.alg"]),
        ("check-wlp-f2", ["check", "--mode", "wlp", "--generic", f"{d}/x2y2z2_f2.alg"]),
        ("jordan-x2y2z2", ["jordan", "--element", "x+y+z", f"{d}/x2y2z2.alg"]),
        ("hessian-ikeda-2", ["hessian", f"{d}/ikeda.alg", "--degree", "2"]),
        ("hessian-ikeda", ["hessian", f"{d}/ikeda.alg", "--seed", s]),
        ("nll-x2y2z2", ["nll", f"{d}/x2y2z2.alg", "--mode", "weak"]),
        ("sl2-x2y2", ["sl2", "--element", "x+y", f"{d}/x2y2.alg"]),
        ("hvector", ["hvector", "--fvector", "3,3", "--dim", "2"]),
        ("tensor-x2y2", ["tensor", f"{d}/x2y2.alg", f"{d}/x2y2.alg"]),
        ("fiber-product-ex71", ["fiber-product", f"{d}/ex71_a.alg", f"{d}/ex71_b.alg", f"{d}/ex71_t.alg",
                                "--map-a", f"{d}/ex71_map_a.map", "--map-b", f"{d}/ex71_map_b.map"]),
        ("connect-sum-ex71", ["connect-sum", f"{d}/ex71_a.alg", f"{d}/ex71_b.alg", f"{d}/ex71_t.alg",
                              "--map-a", f"{d}/ex71_map_a.map", "--map-b", f"{d}/ex71_map_b.map"]),
        ("connect-sum-x2y2", ["connect-sum", f"{d}/x2y2.alg", f"{d}/x2y2.alg"]),
        ("blowup-notgor", ["blowup", f"{d}/notgor_a.alg", f"{d}/notgor_t.alg", "--map",
                           f"{d}/notgor_map.map", "--coeffs", "x;0", "--lam", "1"]),
        ("paper-suite", ["paper-suite"]),
    ]


# Random Gorenstein pairs (nvars of A, nvars of B, socle degree, terms).
PAIR_SHAPES = ((2, 3, 3, 3), (3, 2, 3, 4), (3, 3, 3, 4), (2, 2, 4, 3), (3, 2, 4, 4), (2, 3, 4, 4))


def _constructions(rng: random.Random, seed: int):
    files = {}
    jobs = []
    base = CLI_DIR.as_posix()
    files[f"{base}/k.alg"] = "vars: t\nfield: QQ\nideal:\nt\n"
    small = (-3, -2, -1, 1, 2, 3)
    for k, (na, nb, deg, t) in enumerate(PAIR_SHAPES):
        paths = []
        for side, n, names in (("a", na, "xyz"), ("b", nb, "uvw")):
            names = names[:n]
            dual = _dual_text(names, _random_form(rng, f"pair:{k}{side}", n, deg, t, small))
            rel = f"{base}/pair{k}_{side}.alg"
            files[rel] = f"vars: {', '.join(names)}\nfield: QQ\ndualgen:\n{dual}\n"
            zero = "; ".join(f"{v} -> 0" for v in names)
            files[f"{base}/pair{k}_{side}.map"] = f"map: {zero}\n"
            paths.append(rel)
        a, b = paths
        jobs.append(_cli(f"pair{k}-tensor", ["tensor", a, b]))
        jobs.append(_cli(f"pair{k}-connect-sum", ["connect-sum", a, b]))
        jobs.append(_cli(f"pair{k}-fiber-product", [
            "fiber-product", a, b, f"{base}/k.alg",
            "--map-a", f"{base}/pair{k}_a.map", "--map-b", f"{base}/pair{k}_b.map"]))
    jobs += [_cli(name, argv) for name, argv in _bundled(seed)]
    jobs += [_cli(name, argv, "cli-error") for name, argv in ERROR_CONTRACT]
    return jobs, files


def _cli(name: str, argv: list, kind: str = "cli") -> Job:
    return Job(name, kind, {"argv": argv + ["--json"]})
