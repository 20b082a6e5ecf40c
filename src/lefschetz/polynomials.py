"""Multivariate homogeneous polynomials and the divided-power graded dual.

The dual is always stored in the divided basis, where the module action of
the polynomial ring is contraction: x^a acting on X^[b] gives X^[b-a] when
b >= a componentwise and 0 otherwise.  That action is characteristic-free.
Partial differentiation is a view of the same data that is only valid when
the relevant factorials are invertible.

``Poly`` and ``DualPoly`` share one term kernel, ``_Terms``: a sorted tuple
of (exponent vector, coefficient) terms with addition, negation and scaling.
``Poly`` adds the ring operations; the module actions (``contract``,
``differentiate``, ``divided_multiply``) run one loop over term pairs.

Canonical form: every stored coefficient is what ``FieldSpec.coerce``
returns (a ``Fraction`` over QQ, an ``int`` in ``[0, p)`` over GF(p)).
Coefficient arithmetic is plain ``+``, ``-`` and ``*`` on those values, and
``make`` canonicalises the result: it coerces, drops zeros and sorts the
terms in descending grevlex.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .exactmath import FieldSpec, Scalar

Monomial = tuple[int, ...]


# ---------------------------------------------------------------------------
# Monomials and the grevlex order
# ---------------------------------------------------------------------------


def mono_degree(m: Monomial, weights: Optional[Sequence[int]] = None) -> int:
    if weights is None:
        return sum(m)
    return sum(e * w for e, w in zip(m, weights))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def grevlex_key(m: Monomial):
    """Sort key: bigger key means bigger monomial in graded reverse lex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def sort_monomials(monos: Iterable[Monomial]) -> list[Monomial]:
    """Descending grevlex, largest first."""
    return sorted(monos, key=grevlex_key, reverse=True)


def monomials(nvars: int, degree: int, weights: Optional[Sequence[int]] = None) -> list[Monomial]:
    """All monomials of the given (weighted) degree, in descending grevlex.

    Memoised in a bounded cache; every call returns a fresh list.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    return list(_monomials(nvars, degree, tuple(weights) if weights is not None else (1,) * nvars))


@functools.lru_cache(maxsize=256)
def _monomials(nvars: int, degree: int, w: tuple) -> tuple:
    if degree < 0:
        return ()
    if len(w) != nvars or any(x < 1 for x in w):
        raise ValueError("weights must be positive, one per variable")
    out: list[Monomial] = []

    def rec(i: int, remaining: int, prefix: list[int]) -> None:
        if i == nvars - 1:
            if remaining % w[i] == 0:
                out.append(tuple(prefix + [remaining // w[i]]))
            return
        for e in range(remaining // w[i], -1, -1):
            rec(i + 1, remaining - e * w[i], prefix + [e])

    rec(0, degree, [])
    return tuple(sort_monomials(out))


def multi_factorial(m: Monomial) -> int:
    out = 1
    for e in m:
        out *= math.factorial(e)
    return out


def multi_binomial(a: Monomial, b: Monomial) -> int:
    """Product over coordinates of C(a_i + b_i, a_i)."""
    out = 1
    for x, y in zip(a, b):
        out *= math.comb(x + y, x)
    return out


def _power_product(m: Monomial, values: Sequence[Scalar]):
    """The product of values[i]^m[i], in plain arithmetic."""
    return math.prod(v**e for e, v in zip(m, values) if e)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def _canonical_terms(field: FieldSpec, mapping: Mapping[Monomial, Scalar]) -> tuple:
    coerce = field.coerce
    items = []
    for m, c in mapping.items():
        c = coerce(c)
        if c:
            items.append((tuple(m), c))
    items.sort(key=lambda t: grevlex_key(t[0]), reverse=True)
    return tuple(items)


@dataclass(frozen=True)
class _Terms:
    """Terms shared by ``Poly`` and ``DualPoly``; every operation returns the
    caller's class, so a ``Poly`` never equals a ``DualPoly``."""

    nvars: int
    field: FieldSpec
    terms: tuple  # ((monomial, coeff), ...) descending grevlex, no zeros

    @classmethod
    def make(cls, nvars: int, field: FieldSpec, mapping: Mapping[Monomial, Scalar]):
        return cls(nvars, field, _canonical_terms(field, mapping))

    @classmethod
    def zero(cls, nvars: int, field: FieldSpec):
        return cls(nvars, field, ())

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Monomial) -> Scalar:
        for mono, c in self.terms:
            if mono == m:
                return c
        return self.field.zero()

    def degree(self, weights: Optional[Sequence[int]] = None) -> int:
        """Max weighted degree of the support; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(mono_degree(m, weights) for m, _ in self.terms)

    def is_homogeneous(self, weights: Optional[Sequence[int]] = None) -> bool:
        return len({mono_degree(m, weights) for m, _ in self.terms}) <= 1

    def _check_compatible(self, other: "_Terms") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc[m] + c if m in acc else c
        return self.make(self.nvars, self.field, acc)

    def __sub__(self, other):
        return self + (-other)

    # Negating or scaling by a unit keeps every term nonzero and in order, so
    # both build their terms directly: canonical residues stay in [0, p).

    def __neg__(self):
        p = self.field.characteristic
        terms = tuple((m, p - c if p else -c) for m, c in self.terms)
        return type(self)(self.nvars, self.field, terms)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        if not c:
            return self.zero(self.nvars, F)
        p = F.characteristic
        if p:
            terms = tuple((m, c * v % p) for m, v in self.terms)
        else:
            terms = tuple((m, c * v) for m, v in self.terms)
        return type(self)(self.nvars, F, terms)


class Poly(_Terms):
    """Element of F[x_1..x_n], a sorted term list keyed by exponent vectors."""

    @staticmethod
    def constant(nvars: int, field: FieldSpec, c) -> "Poly":
        return Poly.make(nvars, field, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, field: FieldSpec, i: int) -> "Poly":
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly.make(nvars, field, {m: 1})

    @staticmethod
    def linear_form(nvars: int, field: FieldSpec, coeffs: Sequence) -> "Poly":
        units = [tuple(1 if j == i else 0 for j in range(nvars)) for i in range(len(coeffs))]
        return Poly.make(nvars, field, dict(zip(units, coeffs)))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        acc: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                c = c1 * c2
                acc[m] = acc[m] + c if m in acc else c
        return Poly.make(self.nvars, self.field, acc)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.nvars, self.field, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def evaluate(self, values: Sequence) -> Scalar:
        F = self.field
        vals = [F.coerce(v) for v in values]
        return F.coerce(sum(c * _power_product(m, vals) for m, c in self.terms))

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Ring map sending variable i to images[i]."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        if not images:
            raise ValueError("empty image list")
        tgt_nvars = images[0].nvars
        F = self.field
        out = Poly.zero(tgt_nvars, F)
        for m, c in self.terms:
            term = Poly.constant(tgt_nvars, F, c)
            for e, img in zip(m, images):
                if e:
                    term = term * img**e
            out = out + term
        return out

    def embedded(self, nvars: int, offset: int = 0) -> "Poly":
        """The same polynomial in nvars variables, variable i renamed i + offset.

        Zero exponents padded on either side keep the grevlex order.
        """
        if offset < 0 or offset + self.nvars > nvars:
            raise ValueError("embedding does not fit the larger ring")
        before, after = (0,) * offset, (0,) * (nvars - offset - self.nvars)
        return Poly(nvars, self.field, tuple((before + m + after, c) for m, c in self.terms))

    def leading_coefficient(self) -> Scalar:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        return self.scale(self.field.inv(self.leading_coefficient()))


class DualPoly(_Terms):
    """Element of the graded dual in the divided basis X^[a]."""


def _pair_terms(f: _Terms, g: _Terms, pair) -> DualPoly:
    """Sum over term pairs of c_a * c_b * k * X^m, where pair(a, b) returns
    (m, k) for one product of monomials, or None when it vanishes."""
    f._check_compatible(g)
    acc: dict[Monomial, Scalar] = {}
    for a, ca in f.terms:
        for b, cb in g.terms:
            hit = pair(a, b)
            if hit is not None:
                m, k = hit
                c = ca * cb * k
                acc[m] = acc[m] + c if m in acc else c
    return DualPoly.make(g.nvars, g.field, acc)


def contract(f: Poly, g: DualPoly) -> DualPoly:
    """Contraction action: x^a . X^[b] = X^[b-a] if b >= a, else 0."""
    return _pair_terms(f, g, lambda a, b: (mono_sub(b, a), 1) if mono_divides(a, b) else None)


def differentiate(f: Poly, g: DualPoly) -> DualPoly:
    """Partial-differentiation action on the dual read in the ordinary basis.

    Both g and the result carry ordinary-basis coefficients: x^a acts on X^b
    as (b!/(b-a)!) X^(b-a).  Requires all factorials up to deg(g) invertible.
    """
    f._check_compatible(g)
    d = g.degree()
    if d >= 0 and not f.field.factorial_invertible(d):
        raise ValueError(
            f"differentiation needs characteristic 0 or p > deg = {d}, have {f.field}"
        )

    def pair(a, b):
        if not mono_divides(a, b):
            return None
        m = mono_sub(b, a)
        return m, multi_factorial(b) // multi_factorial(m)

    return _pair_terms(f, g, pair)


def divided_multiply(a: DualPoly, b: DualPoly) -> DualPoly:
    """Divided-power product: X^[a] X^[b] = C(a+b, a) X^[a+b]."""
    return _pair_terms(a, b, lambda m1, m2: (mono_mul(m1, m2), multi_binomial(m1, m2)))


def to_ordinary(g: DualPoly) -> Poly:
    """Rewrite divided coefficients in the ordinary power basis (char 0 only).

    The divided term c X^[a] equals (c / a!) X^a.
    """
    F = g.field
    if F.characteristic != 0:
        raise ValueError("ordinary power basis requires characteristic 0")
    return Poly.make(g.nvars, F, {m: c / multi_factorial(m) for m, c in g.terms})


def from_ordinary(p: Poly) -> DualPoly:
    """Read an ordinary-basis dual polynomial into the divided basis.

    The ordinary term c X^a equals (c * a!) X^[a]; valid whenever a! is a
    unit, so characteristic 0 or p > deg.
    """
    F = p.field
    d = p.degree()
    if d >= 0 and not F.factorial_invertible(d):
        raise ValueError(
            f"ordinary basis needs characteristic 0 or p > deg = {d}, have {F}"
        )
    return DualPoly.make(p.nvars, F, {m: c * multi_factorial(m) for m, c in p.terms})


def dual_pairing(f: Poly, g: DualPoly) -> Scalar:
    """The perfect pairing <x^a, X^[b]> = delta_ab, extended bilinearly."""
    if f.nvars != g.nvars or f.field != g.field:
        raise ValueError("incompatible pairing operands")
    gmap = dict(g.terms)
    return f.field.coerce(sum(c * gmap[m] for m, c in f.terms if m in gmap))


def eval_linear_power(L: Poly, c: int, F_dual: DualPoly) -> Scalar:
    """Value of L^c contracted against a degree-c dual form.

    Equals c! times the ordinary-basis evaluation of the form at the
    coefficient vector of L.
    """
    F = L.field
    if L.is_zero() or not L.is_homogeneous() or L.degree() != 1:
        raise ValueError("L must be homogeneous of degree 1")
    if F_dual.degree() != c or not F_dual.is_homogeneous():
        raise ValueError("dual form must be homogeneous of degree c")
    if not F.factorial_invertible(c):
        raise ValueError(f"need characteristic 0 or p > {c}, have {F}")
    coeffs = [0] * L.nvars
    for m, cf in L.terms:
        coeffs[m.index(1)] = cf
    cfact = math.factorial(c)
    return F.coerce(
        sum(cb * (cfact // multi_factorial(b)) * _power_product(b, coeffs) for b, cb in F_dual.terms)
    )


# ---------------------------------------------------------------------------
# Text grammar
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[a-zA-Z][a-zA-Z0-9_]*)|(?P<int>\d+)|(?P<op>[-+*/^]|\[|\]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("int"):
            tokens.append(("int", m.group("int"), m.start("int")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for: poly := ['-'] term (('+'|'-') term)*.

    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' nat | '^' '[' nat ']')?
    coeff  := integer | integer '/' integer
    """

    def __init__(self, text: str, varnames: Sequence[str], field: FieldSpec):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.field = field
        for name in varnames:
            if not name or not name[0].islower():
                raise ValueError(f"ring variable names must start lower-case: {name!r}")
        self.lower = {name: i for i, name in enumerate(varnames)}
        self.upper = {name.upper(): i for i, name in enumerate(varnames)}
        if len(self.upper) != len(varnames):
            raise ValueError("variable names collide after upper-casing")
        self.saw_lower = False
        self.saw_upper = False
        self.saw_divided = False

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> dict[Monomial, Scalar]:
        acc: dict[Monomial, Scalar] = {}
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        while True:
            mono, coeff = self.term()
            if sign < 0:
                coeff = -coeff
            acc[mono] = acc[mono] + coeff if mono in acc else coeff
            kind, val, pos = self.next()
            if kind == "end":
                break
            if kind != "op" or val not in "+-":
                raise ParseError("expected '+' or '-' between terms", pos)
            sign = 1 if val == "+" else -1
        return acc

    def term(self) -> tuple[Monomial, Scalar]:
        nvars = len(self.lower)
        kind, val, pos = self.peek()
        if kind == "int":
            coeff = self.coeff()
        elif kind == "name":
            coeff = 1
        else:
            raise ParseError("expected a coefficient or a variable", pos)
        mono = [0] * nvars
        first = kind == "name"
        while True:
            if first:
                first = False
            else:
                kind, val, pos = self.peek()
                if kind == "op" and val == "*":
                    self.next()
                else:
                    break
            idx, exp, divided, is_dual = self.factor()
            if not is_dual:
                if divided:
                    raise ParseError("divided exponent ^[k] is dual-only syntax", pos)
                mono[idx] += exp
                continue
            # Dual factors multiply in the divided-power ring: the ordinary
            # power X^k stands for k! X^[k], and joining X^[a] with the
            # accumulated monomial picks up the binomial C(a+b, a).
            fm = tuple(exp if j == idx else 0 for j in range(nvars))
            coeff *= multi_binomial(tuple(mono), fm)
            if not divided:
                coeff *= math.factorial(exp)
            mono[idx] += exp
        return tuple(mono), coeff

    def coeff(self) -> Scalar:
        F = self.field
        kind, val, pos = self.next()
        num = int(val)
        kind, val, pos = self.peek()
        if kind == "op" and val == "/":
            self.next()
            kind, val, pos = self.next()
            if kind != "int":
                raise ParseError("expected denominator", pos)
            den = int(val)
            if not F.coerce(den):
                raise ParseError(f"denominator {den} is zero in {F}", pos)
            return Fraction(num, den)
        return num

    def factor(self) -> tuple[int, int, bool, bool]:
        kind, val, pos = self.next()
        if kind != "name":
            raise ParseError("expected a variable", pos)
        if val in self.lower:
            self.saw_lower = True
            is_dual = False
            idx = self.lower[val]
        elif val in self.upper:
            self.saw_upper = True
            is_dual = True
            idx = self.upper[val]
        else:
            raise ParseError(f"unknown variable {val!r}", pos)
        if self.saw_lower and self.saw_upper:
            raise ParseError("mixed lower-case and upper-case variable schemes", pos)
        exp = 1
        divided = False
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind == "op" and val == "[":
                divided = True
                kind, val, pos = self.next()
                if kind != "int":
                    raise ParseError("expected exponent inside brackets", pos)
                exp = int(val)
                self.expect_op("]")
            elif kind == "int":
                exp = int(val)
            else:
                raise ParseError("expected an exponent", pos)
        return idx, exp, divided, is_dual


def parse_element(
    text: str, varnames: Sequence[str], field: FieldSpec
) -> Union[Poly, DualPoly]:
    """Parse text into a Poly (lower-case names) or DualPoly (upper-case).

    Dual input in the ordinary basis (X^2) is converted into the divided
    basis; X^[2] is taken verbatim as a divided monomial.
    """
    parser = _Parser(text, varnames, field)
    mapping = parser.parse()
    nvars = len(varnames)
    if parser.saw_upper:
        return DualPoly.make(nvars, field, mapping)
    return Poly.make(nvars, field, mapping)


def parse_poly(text: str, varnames: Sequence[str], field: FieldSpec) -> Poly:
    out = parse_element(text, varnames, field)
    if not isinstance(out, Poly):
        raise ParseError("expected lower-case polynomial variables", 0)
    return out


def parse_dual(text: str, varnames: Sequence[str], field: FieldSpec) -> DualPoly:
    out = parse_element(text, varnames, field)
    if isinstance(out, Poly):
        if out.degree() <= 0:
            # constants are shared between the ring and its dual
            return DualPoly(out.nvars, out.field, out.terms)
        raise ParseError("expected upper-case dual variables", 0)
    return out


def format_poly(p: Poly, varnames: Sequence[str]) -> str:
    """Canonical text form; parse(format(p)) == p."""
    return _format_terms(p.terms, [str(v) for v in varnames], p.field, divided=False)


def format_dual(g: DualPoly, varnames: Sequence[str]) -> str:
    """Canonical dual text: ordinary basis in char 0, X^[k] in char p."""
    names = [str(v).upper() for v in varnames]
    if g.field.characteristic == 0:
        return _format_terms(to_ordinary(g).terms, names, g.field, divided=False)
    return _format_terms(g.terms, names, g.field, divided=True)


def _format_terms(terms, names, field: FieldSpec, divided: bool) -> str:
    if not terms:
        return "0"
    parts = []
    for i, (m, c) in enumerate(terms):
        factors = []
        for idx, e in enumerate(m):
            if e == 0:
                continue
            if divided and e >= 1:
                factors.append(names[idx] if e == 1 else f"{names[idx]}^[{e}]")
            elif e == 1:
                factors.append(names[idx])
            else:
                factors.append(f"{names[idx]}^{e}")
        neg = field.characteristic == 0 and c < 0
        mag = -c if neg else c
        coeff_str = str(mag)
        if factors and coeff_str == "1":
            body = "*".join(factors)
        elif factors:
            body = "*".join([coeff_str] + factors)
        else:
            body = coeff_str
        if i == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)
