"""Command-line front end.

Reports are built as plain dicts and rendered either as human text or as
canonical JSON (sorted keys): byte-identical across runs for fixed inputs
and seed.  Elapsed time goes to stderr with --timing so reports stay
deterministic.  Exit codes: 0 success, 1 mathematical negative under
--expect or failing suite cases, 2 input errors (a ValueError or a failed
check's AssertionError from the library: one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

from . import paper_suite as suite_mod
from .algebra import (
    GradedAlgebra,
    default_orientation,
    hilbert_series_text,
    is_gorenstein,
    orientation_from_socle_element,
    socle_vectors,
)
from .checks import (
    GenericityConfig,
    degree_one_coordinates,
    generic_report,
    hessian_det,
    h_vector,
    jordan_type,
    nll_conditions,
    report_for_element,
    slp_by_hessian,
    symmetric,
    unimodal,
)
from .constructions import (
    PresentationSizeError,
    algebra_map,
    blowup,
    blowup_square_commutes,
    connected_sum,
    connected_sum_over_field,
    exceptional_divisor,
    fiber_product,
    presented_algebra,
    tensor_product,
)
from .descfiles import (
    description_of,
    format_algebra_description,
    parse_algebra_text,
    parse_map_text,
)
from .polynomials import format_poly


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _load_algebra(path: str, cap=None):
    text = _read(path)
    try:
        desc = parse_algebra_text(text)
        alg = desc.build(max_degree=cap)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")
    return alg, {"path": path, "sha256": _digest(text)}


def _seed(args) -> int:
    """--seed if given, else LEFSCHETZ_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("LEFSCHETZ_SEED", "0"))


def _witness_text(witness) -> str:
    return " + ".join(label if c == "1" else f"{c}*{label}" for label, c in (witness or {}).items())


def _finish(args, report: dict, human: str) -> int:
    primary = report.get("results", {}).get("primary", "")
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(human)
    if args.expect is not None and str(primary).strip() != args.expect.strip():
        print(f"expected {args.expect!r}, got {primary!r}", file=sys.stderr)
        return 1
    return 0


def _base_report(command: str, inputs, results: dict, cert=None) -> dict:
    rep = {
        "schema": 1,
        "command": command,
        "inputs": inputs,
        "results": results,
    }
    if cert is not None:
        rep["certification"] = cert
    return rep


# -- simple commands ----------------------------------------------------------


def cmd_hilbert(args) -> int:
    alg, digest = _load_algebra(args.file, cap=args.cap)
    h = alg.hilbert_function()
    primary = " ".join(str(x) for x in h)
    results = {
        "primary": primary,
        "hilbert_function": list(h),
        "hilbert_series": hilbert_series_text(alg),
        "socle_degree": alg.socle_degree,
        "unimodal": unimodal(h),
        "symmetric": symmetric(h),
    }
    human = primary
    return _finish(args, _base_report("hilbert", [digest], results), human)


def cmd_socle(args) -> int:
    alg, digest = _load_algebra(args.file, cap=args.cap)
    soc = socle_vectors(alg)
    items = [
        {"degree": d, "element": alg.ring.format(alg.poly(d, v))} for d, v in soc
    ]
    gor = len(soc) == 1
    results = {
        "primary": f"socle dimension {len(soc)}",
        "socle": items,
        "gorenstein": gor,
        "level": all(d == alg.socle_degree for d, _ in soc),
    }
    human = "\n".join(
        [f"socle dimension {len(soc)}; gorenstein: {gor}"]
        + [f"  degree {it['degree']}: {it['element']}" for it in items]
    )
    return _finish(args, _base_report("socle", [digest], results), human)


def cmd_dualgen(args) -> int:
    alg, digest = _load_algebra(args.file, cap=args.cap)
    text = alg.ring.format(alg.dual_generator())
    results = {"primary": text, "dual_generator": text}
    return _finish(args, _base_report("dualgen", [digest], results), text)


def cmd_ann(args) -> int:
    alg, digest = _load_algebra(args.file, cap=args.cap)
    gens = alg.minimal_generators()
    texts = [alg.ring.format(g) for g in gens]
    results = {"primary": "; ".join(texts), "generators": texts}
    return _finish(args, _base_report("ann", [digest], results), "\n".join(texts))


def cmd_check(args) -> int:
    alg, digest = _load_algebra(args.file, cap=args.cap)
    cfg = GenericityConfig(seed=_seed(args), trials=args.trials, bound=args.bound, certify=args.certify)
    if args.element and args.generic:
        raise InputError("--generic and --element exclude each other")
    if args.element:
        rep = report_for_element(alg, alg.ring.parse(args.element), args.mode)
        cert = {"mode": "element", "element": args.element}
    else:
        rep = generic_report(alg, args.mode, cfg)
        cert = {
            "mode": rep.certification,
            "seed": cfg.seed,
            "trials": cfg.trials,
            "bound": cfg.bound,
        }
    d = rep.as_dict()
    d["witness_element"] = _witness_text(rep.witness)
    verdict = "holds" if rep.holds else "fails"
    results = {"primary": f"{args.mode} {verdict}", **d}
    human_lines = [f"{args.mode} {verdict} ({rep.certification})"]
    if rep.witness:
        human_lines.append(f"witness: {d['witness_element']}")
    for m in rep.maps:
        human_lines.append(
            f"  L^{m.d}: A_{m.i} -> A_{m.i + m.d}: rank {m.achieved}/{m.expected}"
            + ("" if m.full else "  [not full]")
        )
    for note in rep.notes:
        human_lines.append(f"note: {note}")
    return _finish(
        args,
        _base_report(f"check --mode {args.mode}", [digest], results, cert),
        "\n".join(human_lines),
    )


def cmd_jordan(args) -> int:
    alg, digest = _load_algebra(args.file, cap=args.cap)
    jt = jordan_type(alg, alg.ring.parse(args.element))
    results = {
        "primary": " ".join(str(p) for p in jt.parts),
        **jt.as_dict(),
    }
    human = f"jordan type: {list(jt.parts)}; strand starts: {list(jt.starts)}"
    return _finish(args, _base_report("jordan", [digest], results), human)


def cmd_hessian(args) -> int:
    alg, digest = _load_algebra(args.file, cap=args.cap)
    if args.degree is not None:
        det = hessian_det(alg, args.degree)
        text = alg.ring.format(det)
        results = {
            "primary": text,
            "degree": args.degree,
            "size": alg.dim(args.degree),
            "vanishes": det.is_zero(),
        }
        return _finish(args, _base_report("hessian", [digest], results), text)
    rep = slp_by_hessian(alg, seed=_seed(args))
    verdict = "holds" if rep["slp"] else "fails"
    results = {"primary": f"slp {verdict}", **rep}
    human = [f"slp {verdict} (hessian criterion)"]
    for e in rep["hessians"]:
        human.append(
            f"  hess^{e['i']}: size {e['size']}, "
            + ("vanishes" if e["vanishes"] else "nonzero")
            + f" [{e['method']}]"
        )
    return _finish(
        args,
        _base_report("hessian", [digest], results),
        "\n".join(human),
    )


def cmd_nll(args) -> int:
    alg, digest = _load_algebra(args.file, cap=args.cap)
    conds = nll_conditions(alg, args.mode)
    names = [f"a{i + 1}" for i in range(len(degree_one_coordinates(alg)))]
    texts = [format_poly(p, names) for p in conds]
    results = {"primary": "; ".join(texts), "conditions": texts, "coefficients": names}
    human = "non-" + args.mode + " Lefschetz locus: " + (
        " = 0; ".join(texts) + " = 0" if texts else "empty (codimension >= 2 only)"
    )
    return _finish(args, _base_report("nll", [digest], results), human)


def cmd_sl2(args) -> int:
    from .sl2 import triple_from_lefschetz

    alg, digest = _load_algebra(args.file, cap=args.cap)
    triple = triple_from_lefschetz(alg, alg.ring.parse(args.element))
    c = alg.socle_degree
    weights = {2 * i - c: alg.dim(i) for i in range(c + 1) if alg.dim(i)}

    def mat_list(m):
        return [[str(x) for x in row] for row in m.entries]

    results = {
        "primary": " ".join(f"{w}:{k}" for w, k in weights.items()),
        "E": mat_list(triple.e),
        "H": mat_list(triple.h),
        "F": mat_list(triple.f),
        "weights": {str(w): k for w, k in weights.items()},
    }
    human = "weights: " + ", ".join(
        f"{w} (dim {k})" for w, k in weights.items()
    )
    return _finish(args, _base_report("sl2", [digest], results), human)


def cmd_hvector(args) -> int:
    try:
        f = tuple(int(x) for x in args.fvector.split(",")) if args.fvector else ()
    except ValueError:
        raise InputError("fvector must be a comma-separated integer list")
    hv = h_vector(f, args.dim)
    primary = " ".join(str(x) for x in hv)
    results = {"primary": primary, "h_vector": list(hv)}
    return _finish(args, _base_report("hvector", [], results), primary)


# -- constructions -------------------------------------------------------------


def _load_map(path: str, source, target):
    text = _read(path)
    try:
        images = parse_map_text(text, source.ring, target.ring)
        return algebra_map(source, target, images), {"path": path, "sha256": _digest(text)}
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _orientation_option(alg, text):
    if text is None:
        return default_orientation(alg)
    try:
        p = alg.ring.parse(text)
        if p.is_zero() or not alg.ring.is_homogeneous(p) or alg.ring.degree(p) != alg.socle_degree:
            raise ValueError(f"must be a nonzero element homogeneous of the socle degree {alg.socle_degree}")
        return orientation_from_socle_element(
            alg, alg.socle_degree, alg.vector(p, alg.socle_degree)
        )
    except ValueError as exc:
        raise InputError(f"orientation {text!r}: {exc}")


def _emit_constructed(args, command, inputs, alg_like, extra: dict) -> int:
    h = alg_like.hilbert_function()
    gor = is_gorenstein(alg_like)
    results = {
        "primary": " ".join(str(x) for x in h),
        "hilbert_function": list(h),
        "gorenstein": gor,
        **extra,
    }
    description = None
    if isinstance(alg_like, GradedAlgebra):
        description = format_algebra_description(description_of(alg_like))
    else:
        try:
            description = format_algebra_description(
                description_of(presented_algebra(alg_like))
            )
        except PresentationSizeError as exc:
            if args.out:
                raise InputError(f"cannot write {args.out}: presentation omitted by the size guard ({exc})")
            results["presentation"] = "omitted (size guard)"
    human_lines = [f"H = {list(h)}; gorenstein: {gor}"]
    if description is None:
        human_lines.append("presentation: omitted (size guard)")
    else:
        results["description"] = description
        human_lines.append(description.rstrip())
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(description)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}")
        human_lines.append(f"wrote {args.out}")
    return _finish(
        args, _base_report(command, inputs, results), "\n".join(human_lines)
    )


def cmd_tensor(args) -> int:
    a, da = _load_algebra(args.a)
    b, db = _load_algebra(args.b)
    return _emit_constructed(args, "tensor", [da, db], tensor_product(a, b), {})


def cmd_fiber_product(args) -> int:
    a, da = _load_algebra(args.a)
    b, db = _load_algebra(args.b)
    t, dt = _load_algebra(args.t)
    pa, dma = _load_map(args.map_a, a, t)
    pb, dmb = _load_map(args.map_b, b, t)
    fp = fiber_product(pa, pb)
    identity = [
        a.dim(d) + b.dim(d) - t.dim(d) for d in range(fp.socle_degree + 1)
    ]
    return _emit_constructed(
        args,
        "fiber-product",
        [da, db, dt, dma, dmb],
        fp,
        {"hilbert_identity": identity},
    )


def cmd_connect_sum(args) -> int:
    a, da = _load_algebra(args.a)
    b, db = _load_algebra(args.b)
    inputs = [da, db]
    omega_a = _orientation_option(a, args.orient_a)
    omega_b = _orientation_option(b, args.orient_b)
    if args.t is not None and (args.map_a is None or args.map_b is None):
        raise InputError("connect-sum over T needs both --map-a and --map-b")
    if args.t is None and (args.map_a, args.map_b, args.orient_t) != (None, None, None):
        raise InputError("connect-sum over the field takes no --map-a, --map-b or --orient-t")
    if args.t is None:
        cs = connected_sum_over_field(a, b, omega_a, omega_b)
        extra = {}
    else:
        t, dt = _load_algebra(args.t)
        pa, dma = _load_map(args.map_a, a, t)
        pb, dmb = _load_map(args.map_b, b, t)
        inputs += [dt, dma, dmb]
        omega_t = _orientation_option(t, args.orient_t)
        cs = connected_sum(pa, pb, omega_a, omega_b, omega_t)
        extra = {
            "hilbert_identity": [
                a.dim(i)
                + b.dim(i)
                - t.dim(i)
                - t.dim(i - (a.socle_degree - t.socle_degree))
                for i in range(a.socle_degree + 1)
            ]
        }
    return _emit_constructed(args, "connect-sum", inputs, cs, extra)


def cmd_blowup(args) -> int:
    a, da = _load_algebra(args.a)
    t, dt = _load_algebra(args.t)
    pi, dm = _load_map(args.map, a, t)
    omega_a = _orientation_option(a, args.orient_a)
    omega_t = _orientation_option(t, args.orient_t)
    coeff_texts = [c.strip() for c in args.coeffs.split(";")] if args.coeffs else []
    if coeff_texts == [""]:
        coeff_texts = []
    coeffs = [a.ring.parse(c) for c in coeff_texts]
    bug = blowup(pi, coeffs, args.lam, omega_a=omega_a, omega_t=omega_t)
    tt = exceptional_divisor(bug)
    square = blowup_square_commutes(bug, tt)
    extra = {
        "thom_class": a.ring.format(bug.tau.poly(a)),
        "lambda": str(args.lam),
        "exceptional_divisor": format_algebra_description(description_of(tt)),
        "exceptional_divisor_hilbert": list(tt.hilbert_function()),
        "square_commutes": square,
    }
    return _emit_constructed(args, "blowup", [da, dt, dm], bug, extra)


def cmd_paper_suite(args) -> int:
    results = suite_mod.run_all(verbose=not args.json)
    passed = sum(1 for r in results if r["ok"])
    failed = len(results) - passed
    primary = f"{passed}/{len(results)} passed"
    report = _base_report("paper-suite", [], {"primary": primary, "cases": results, "passed": passed, "failed": failed})
    return _finish(args, report, f"{passed}/{len(results)} cases passed") or int(failed > 0)


# -- argument parsing -----------------------------------------------------------


def _add_common(sp, with_file=True, with_cap=True):
    if with_file:
        sp.add_argument("file", help="algebra description file")
    if with_cap:
        sp.add_argument("--cap", type=int, default=None, help="artinian search cap")
    sp.add_argument("--json", action="store_true", help="emit the JSON report")
    sp.add_argument("--expect", default=None, help="assert the primary result equals this")
    sp.add_argument("--timing", action="store_true", help="print elapsed time to stderr")


def _add_generic(sp):
    sp.add_argument("--generic", action="store_true", help="search for a generic element")
    sp.add_argument("--element", default=None, help="check this specific linear form")
    sp.add_argument("--certify", action="store_true", help="symbolic certification")
    sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--bound", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lefschetz",
        description="Exact computations with graded artinian algebras and Lefschetz properties",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("hilbert", help="Hilbert function of an algebra file")
    _add_common(sp)
    sp.set_defaults(fn=cmd_hilbert)

    sp = sub.add_parser("socle", help="socle, Gorenstein and level flags")
    _add_common(sp)
    sp.set_defaults(fn=cmd_socle)

    sp = sub.add_parser("dualgen", help="Macaulay dual generator of a Gorenstein file")
    _add_common(sp)
    sp.set_defaults(fn=cmd_dualgen)

    sp = sub.add_parser("ann", help="minimal generators of the defining ideal")
    _add_common(sp)
    sp.set_defaults(fn=cmd_ann)

    sp = sub.add_parser("check", help="decide WLP / SLP / SLPn")
    _add_common(sp)
    sp.add_argument("--mode", choices=["wlp", "slp", "slpn"], required=True)
    _add_generic(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("jordan", help="Jordan type of multiplication by an element")
    _add_common(sp)
    sp.add_argument("--element", required=True)
    sp.set_defaults(fn=cmd_jordan)

    sp = sub.add_parser("hessian", help="higher Hessians and the SLP criterion")
    _add_common(sp)
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=cmd_hessian)

    sp = sub.add_parser("nll", help="non-Lefschetz locus conditions")
    _add_common(sp)
    sp.add_argument("--mode", choices=["weak", "strong"], default="weak")
    sp.set_defaults(fn=cmd_nll)

    sp = sub.add_parser("sl2", help="sl2 triple and weight table for a witness")
    _add_common(sp)
    sp.add_argument("--element", required=True)
    sp.set_defaults(fn=cmd_sl2)

    sp = sub.add_parser("hvector", help="f-vector to h-vector transform")
    _add_common(sp, with_file=False, with_cap=False)
    sp.add_argument("--fvector", required=True, help="comma-separated face counts")
    sp.add_argument("--dim", type=int, required=True)
    sp.set_defaults(fn=cmd_hvector)

    sp = sub.add_parser("tensor", help="tensor product of two algebra files")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--out", default=None, help="write the result description here")
    _add_common(sp, with_file=False, with_cap=False)
    sp.set_defaults(fn=cmd_tensor)

    sp = sub.add_parser("fiber-product", help="fiber product over a common quotient")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("t")
    sp.add_argument("--map-a", required=True)
    sp.add_argument("--map-b", required=True)
    sp.add_argument("--out", default=None)
    _add_common(sp, with_file=False, with_cap=False)
    sp.set_defaults(fn=cmd_fiber_product)

    sp = sub.add_parser("connect-sum", help="connected sum (over T, or over the field)")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("t", nargs="?", default=None)
    sp.add_argument("--map-a", default=None)
    sp.add_argument("--map-b", default=None)
    sp.add_argument("--orient-a", default=None, help="socle element with integral 1")
    sp.add_argument("--orient-b", default=None)
    sp.add_argument("--orient-t", default=None)
    sp.add_argument("--out", default=None)
    _add_common(sp, with_file=False, with_cap=False)
    sp.set_defaults(fn=cmd_connect_sum)

    sp = sub.add_parser("blowup", help="cohomological blowup along a surjection")
    sp.add_argument("a")
    sp.add_argument("t")
    sp.add_argument("--map", required=True)
    sp.add_argument("--coeffs", default="", help="middle coefficients a_1..a_{n-1}, ';'-separated")
    sp.add_argument("--lam", default="1", help="unit scalar multiplying the Thom class")
    sp.add_argument("--orient-a", default=None)
    sp.add_argument("--orient-t", default=None)
    sp.add_argument("--out", default=None)
    _add_common(sp, with_file=False, with_cap=False)
    sp.set_defaults(fn=cmd_blowup)

    sp = sub.add_parser("paper-suite", help="replay the worked examples and report")
    _add_common(sp, with_file=False, with_cap=False)
    sp.set_defaults(fn=cmd_paper_suite)

    return p


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _join_dash_values(parser: argparse.ArgumentParser, argv: list) -> list:
    """argv with "--opt -v" written "--opt=-v" where --opt takes one value in
    the chosen subcommand and -v is not one of its options: argparse reads a
    separate value that starts with one "-" (``--lam -1/3``, ``--element
    -x+y``) as an option."""
    (sub,) = (a for a in parser._actions if a.dest == "command")
    command = sub.choices.get(next((a for a in argv if a[:1] != "-"), None))
    options = command._option_string_actions if command else {}
    out: list = []
    for tok in argv:
        action = options.get(out[-1]) if out else None
        dash_value = tok[:1] == "-" and tok[1:2] not in ("", "-") and tok not in options
        if dash_value and action and action.nargs is None:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(_join_dash_values(parser, sys.argv[1:] if argv is None else list(argv)))
    start = time.monotonic()
    try:
        code = args.fn(args)
    except (InputError, ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    if args.timing:
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
