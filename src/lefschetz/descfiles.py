"""Algebra and map description files.

Algebra files carry a `vars:` header, optional `weights:` and `field:`
headers, then either `ideal:` followed by one generator per line or
`dualgen:` followed by one polynomial.  Map files are a single `map:` line
with semicolon-separated `variable -> polynomial` entries (or one entry per
line).  Formatting then parsing reproduces the same description bit-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .algebra import GradedAlgebra, Ideal, Ring, from_dual_generator, from_ideal
from .exactmath import GF, QQ, FieldSpec
from .polynomials import DualPoly, Poly


class DescriptionError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


@dataclass(frozen=True)
class AlgebraDescription:
    ring: Ring
    kind: str  # "ideal" | "dualgen"
    generators: tuple = ()
    dual_generator: Optional[DualPoly] = None

    def build(self, max_degree: Optional[int] = None) -> GradedAlgebra:
        if self.kind == "dualgen":
            return from_dual_generator(self.dual_generator, self.ring)
        return from_ideal(Ideal(self.ring, self.generators), max_degree=max_degree)


def _parse_field(text: str, line: int) -> FieldSpec:
    text = text.strip()
    if text == "QQ":
        return QQ
    m = re.fullmatch(r"Fp\((\d+)\)", text)
    if m:
        if int(m.group(1)) == 0:
            raise DescriptionError(f"{text} is not a prime field; for characteristic 0 use QQ", line)
        try:
            return GF(int(m.group(1)))
        except ValueError as exc:
            raise DescriptionError(str(exc), line)
    raise DescriptionError(f"unknown field {text!r}; use QQ or Fp(p)", line)


def parse_algebra_text(text: str) -> AlgebraDescription:
    varnames = None
    weights = None
    field = QQ
    kind = None
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if kind is not None:
            body.append((lineno, line))
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise DescriptionError(f"expected 'key: value', got {line!r}", lineno)
        key = key.strip()
        if key == "vars":
            varnames = tuple(v.strip() for v in rest.split(",") if v.strip())
            if not varnames:
                raise DescriptionError("empty variable list", lineno)
        elif key == "weights":
            try:
                weights = tuple(int(w.strip()) for w in rest.split(","))
            except ValueError:
                raise DescriptionError("weights must be integers", lineno)
        elif key == "field":
            field = _parse_field(rest, lineno)
        elif key in ("ideal", "dualgen"):
            kind = key
            if rest.strip():
                body.append((lineno, rest.strip()))
        else:
            raise DescriptionError(f"unknown header {key!r}", lineno)
    if varnames is None:
        raise DescriptionError("missing 'vars:' header")
    if kind is None:
        raise DescriptionError("missing 'ideal:' or 'dualgen:' section")
    try:
        ring = Ring(varnames, field, weights or ())
    except ValueError as exc:
        raise DescriptionError(str(exc))
    if kind == "dualgen":
        if len(body) != 1:
            raise DescriptionError("dualgen section must contain exactly one polynomial")
        lineno, src = body[0]
        try:
            dual = ring.parse_dual(src)
        except ValueError as exc:
            raise DescriptionError(str(exc), lineno)
        return AlgebraDescription(ring, "dualgen", (), dual)
    gens = []
    if not body:
        raise DescriptionError("ideal section is empty")
    for lineno, src in body:
        try:
            gens.append(ring.parse(src))
        except ValueError as exc:
            raise DescriptionError(str(exc), lineno)
    return AlgebraDescription(ring, "ideal", tuple(gens), None)


def format_algebra_description(desc: AlgebraDescription) -> str:
    ring = desc.ring
    lines = [f"vars: {', '.join(ring.varnames)}"]
    if any(w != 1 for w in ring.weights):
        lines.append(f"weights: {', '.join(str(w) for w in ring.weights)}")
    lines.append(f"field: {ring.field}")
    if desc.kind == "dualgen":
        lines.append("dualgen:")
        lines.append(ring.format(desc.dual_generator))
    else:
        lines.append("ideal:")
        for g in desc.generators:
            lines.append(ring.format(g))
    return "\n".join(lines) + "\n"


def description_of(alg: GradedAlgebra) -> AlgebraDescription:
    return AlgebraDescription(
        alg.ring, "ideal", tuple(alg.presentation_generators()), None
    )


def parse_map_text(text: str, source: Ring, target: Ring) -> list[Poly]:
    """Variable images for a map file against the given source and target."""
    entries: dict[str, Poly] = {}
    payload = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("map:"):
            line = line[len("map:") :].strip()
            if not line:
                continue
        payload.append((lineno, line))
    for lineno, line in payload:
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            lhs, sep, rhs = chunk.partition("->")
            if not sep:
                raise DescriptionError(f"expected 'var -> poly', got {chunk!r}", lineno)
            name = lhs.strip()
            if name not in source.varnames:
                raise DescriptionError(f"unknown source variable {name!r}", lineno)
            if name in entries:
                raise DescriptionError(f"duplicate image for {name!r}", lineno)
            try:
                entries[name] = target.parse(rhs.strip())
            except ValueError as exc:
                raise DescriptionError(str(exc), lineno)
    missing = [v for v in source.varnames if v not in entries]
    if missing:
        raise DescriptionError(f"missing images for: {', '.join(missing)}")
    return [entries[v] for v in source.varnames]


def format_map(source: Ring, target: Ring, images) -> str:
    parts = [
        f"{v} -> {target.format(img)}" for v, img in zip(source.varnames, images)
    ]
    return "map: " + "; ".join(parts) + "\n"
