"""Running one job through the toolkit, and checking what it returned.

``execute`` is the timed part: it takes one generated input to its final
answer through the public API (or ``lefschetz.cli.main`` in-process) and
returns an ``Outcome`` whose ``record`` is canonical JSON-ready data.
``reverify`` runs outside the timed region and re-derives every positive
verdict exactly with ``report_for_element`` on the reported witness.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from typing import Optional

import lefschetz
import lefschetz.cli
from lefschetz import GF, QQ, DualPoly, GenericityConfig, Ideal, Poly, Ring
from lefschetz.checks import report_for_element

CI_NAMES = ("x", "y", "z", "w", "v")


@dataclass
class Outcome:
    record: dict
    status: str = "ok"  # "ok", "violation" (CLI exit-code contract) or "failed"
    detail: str = ""
    # objects ``reverify`` needs: (algebra, {mode: report}) pairs
    checks: list = field(default_factory=list)

    def digest(self) -> str:
        text = json.dumps(self.record, sort_keys=True, default=str)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def field_of(text: str):
    return QQ if text == "QQ" else GF(int(text[3:-1]))


def _report_record(rep) -> dict:
    return {
        "holds": rep.holds,
        "cert": rep.certification,
        "witness": rep.witness,
        "maps": [[m.i, m.d, m.expected, m.achieved] for m in rep.maps],
    }


def _ci_algebra(exps, fld):
    ring = Ring(CI_NAMES[: len(exps)], fld)
    gens = tuple(ring.parse(f"{v}^{e}") for v, e in zip(ring.varnames, exps))
    return lefschetz.from_ideal(Ideal(ring, gens))


def _ci_slp(spec) -> Outcome:
    alg = _ci_algebra(spec["exps"], field_of(spec["field"]))
    rep = lefschetz.slp_generic(alg, GenericityConfig(seed=spec["cfg_seed"]))
    record = {"h": list(alg.hilbert_function()), "slp": _report_record(rep)}
    return Outcome(record, checks=[(alg, {"slp": rep})])


def _ci_sl2(spec) -> Outcome:
    alg = _ci_algebra(spec["exps"], QQ)
    L = Poly.linear_form(alg.nvars, QQ, [1] * alg.nvars)
    narrow = lefschetz.slpn_via_weights(alg, L)
    jt = lefschetz.jordan_type(alg, L)
    record = {"h": list(alg.hilbert_function()), "slpn_via_weights": narrow,
              "jordan": jt.as_dict()}
    return Outcome(record, checks=[(alg, {"sl2": narrow})])


def _survey_form(spec) -> Outcome:
    fld = field_of(spec["field"])
    n = len(spec["vars"])
    F = DualPoly.make(n, fld, {tuple(m): fld.coerce(c) for m, c in spec["terms"]})
    alg = lefschetz.from_dual_generator(F, Ring(tuple(spec["vars"]), fld))
    cfg = GenericityConfig(seed=spec["cfg_seed"], certify=spec.get("certify", False))
    wlp = lefschetz.wlp_generic(alg, cfg)
    slp = lefschetz.slp_generic(alg, cfg)
    record = {"h": list(alg.hilbert_function()), "wlp": _report_record(wlp),
              "slp": _report_record(slp)}
    if spec.get("nll"):
        names = [f"a{i + 1}" for i in range(n)]
        conds = lefschetz.nll_conditions(alg, "weak")
        record["nll"] = [lefschetz.format_poly(p, names) for p in conds]
    return Outcome(record, checks=[(alg, {"wlp": wlp, "slp": slp})])


def _cli(spec, expect_error: bool) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    raised: Optional[BaseException] = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lefschetz.cli.main(spec["argv"])
        except Exception as exc:  # an escaping exception is exit 1 with a traceback
            raised, code = exc, 1
    stdout = out.getvalue()
    record = {"stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
              "stdout_bytes": len(stdout.encode())}
    stderr_lines = err.getvalue().splitlines()
    if expect_error:
        # the recorded result of a rejected input is only its (empty) output,
        # so fixing the exit code does not count as a changed result
        one_line = len(stderr_lines) == 1 and stderr_lines[0].startswith("error:")
        if code == 2 and one_line and not stdout:
            return Outcome(record)
        if stdout:
            return Outcome(record, "failed", "input error produced a result")
        why = f"{type(raised).__name__} traceback" if raised is not None else f"stderr {stderr_lines!r}"
        return Outcome(record, "violation", f"exit {code} ({why}); want exit 2 with one line")
    record["exit"] = code
    if raised is not None:
        tb = "".join(traceback.format_exception_only(type(raised), raised)).strip()
        return Outcome(record, "failed", f"raised {tb}")
    if code != 0:
        return Outcome(record, "failed", f"exit {code}")
    try:
        json.loads(stdout)
    except ValueError:
        return Outcome(record, "failed", "stdout is not JSON")
    return Outcome(record)


RUNNERS = {
    "ci-slp": _ci_slp,
    "ci-sl2": _ci_sl2,
    "survey-form": _survey_form,
    "cli": lambda spec: _cli(spec, expect_error=False),
    "cli-error": lambda spec: _cli(spec, expect_error=True),
}


def execute(job) -> Outcome:
    try:
        return RUNNERS[job.kind](job.spec)
    except Exception as exc:  # a job that raises is a failed job; the run goes on
        tb = traceback.format_exc(limit=-3)
        return Outcome({"raised": type(exc).__name__}, "failed", f"raised {tb.strip()}")


def reverify(outcome: Outcome) -> list:
    """Re-derive every positive verdict exactly; returns the problems found."""
    problems = []
    for alg, reports in outcome.checks:
        fld = alg.field
        for mode, rep in reports.items():
            if mode == "sl2":
                if rep:
                    L = Poly.linear_form(alg.nvars, fld, [1] * alg.nvars)
                    if not report_for_element(alg, L, "slpn").holds:
                        problems.append("sl2 route says narrow SLP, element check disagrees")
                continue
            if not rep.holds or rep.witness is None:
                continue
            L = Poly.linear_form(
                alg.nvars, fld, [rep.witness.get(v, "0") for v in alg.ring.varnames])
            again = report_for_element(alg, L, mode)
            if not again.holds or again.maps != rep.maps:
                problems.append(f"{mode} witness {rep.witness} does not re-verify")
        if "wlp" in reports and reports["slp"].holds and not reports["wlp"].holds:
            problems.append("SLP holds without WLP")
    return problems
