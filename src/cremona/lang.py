"""The declarative input language and its parser.

Line-oriented declarations, ``#`` comments, ``^`` for powers, rationals as
``a/b``, ``zeta`` for the declared root of unity, basis rows as bracketed
integer lists separated by ``;``::

    vars x1 x2 x3 x4 x5
    params t1 t2
    group e=3 gen [1,2,0,0,0]
    poly F = t1*x1^3 + t2*x2^3 + x1*x2*x3
    chart x5
    basis [1,1,0,0; -1,2,0,0; 0,0,1,0; 0,0,0,1]
    prime 7

Diagnostics carry line, column and the expected token set; rendering a parsed
spec and reparsing it is the identity.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from operator import add

from .coeffs import PRIME_TEST_BOUND, Cyclotomic, ParamCoeff, is_prime
from .poly import BudgetError, LaurentPoly, poly_str


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.message = message
        self.expected = expected
        loc = f"line {line}, column {col}: {message}"
        if expected:
            loc += " (expected " + " or ".join(expected) + ")"
        super().__init__(loc)


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

# One match per token: a rational, an integer, an identifier or a symbol.  A
# comment, or a character no token starts with, runs to the end of the line,
# so it can only be the last match; whitespace matches nothing.  Digits are
# ASCII only.
_TOKEN_RE = re.compile(r"[0-9]+/[0-9]+|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[=\[\],;+\-*^()]|#.*|\S.*",
                       re.DOTALL)
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_TOKEN_START = _DIGITS | _IDENT_START | frozenset("=[],;+-*^()")


class _Line:
    """One line's token texts and a read position ``i`` into them.  The
    texts end with "" for the end of the line.  A token's column is found
    again only for a diagnostic."""

    __slots__ = ("text", "ln", "toks", "i")

    def __init__(self, text: str, ln: int):
        toks = _TOKEN_RE.findall(text)
        if toks and toks[-1][0] not in _TOKEN_START:
            last = toks.pop()
            if last[0] != "#":
                raise ParseError(ln, len(text) - len(last) + 1,
                                 f"unexpected character {last[0]!r}")
        toks.append("")
        self.text, self.ln, self.toks, self.i = text, ln, toks, 0

    def error(self, k: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        """A diagnostic at token k; the end of the line is the column after it."""
        if k == len(self.toks) - 1:
            col = len(self.text) + 1
        else:
            col = next(itertools.islice(_TOKEN_RE.finditer(self.text), k, None)).start() + 1
        return ParseError(self.ln, col, message, expected)

    def unexpected(self, k: int, expected: tuple[str, ...]) -> ParseError:
        t = self.toks[k]
        return self.error(k, f"unexpected token {t!r}" if t else "unexpected end of line",
                          expected)

    def at_end(self) -> bool:
        return not self.toks[self.i]

    def expect(self, text: str):
        if self.toks[self.i] != text:
            raise self.unexpected(self.i, (repr(text),))
        self.i += 1

    def name(self, expected: tuple[str, ...]) -> str:
        t = self.toks[self.i]
        if t[:1] not in _IDENT_START:
            raise self.unexpected(self.i, expected)
        self.i += 1
        return t

    def integer(self, signed: bool = False) -> int:
        """An integer token, after a "-" if ``signed``."""
        toks = self.toks
        k = self.i
        t = toks[k]
        sign = 1
        if signed and t == "-":
            k += 1
            t = toks[k]
            sign = -1
        if t[:1] not in _DIGITS or "/" in t:
            raise self.unexpected(k, ("integer",))
        self.i = k + 1
        return sign * _int(t, self, k)

    def integer_list(self) -> tuple[int, ...]:
        out = [self.integer(signed=True)]
        while self.toks[self.i] == ",":
            self.i += 1
            out.append(self.integer(signed=True))
        return tuple(out)

    def require_end(self):
        t = self.toks[self.i]
        if t:
            raise self.error(self.i, f"trailing input {t!r}", ("end of line",))


def _int(text: str, line: _Line, k: int) -> int:
    """The integer spelled by the digits ``text`` of token k.  CPython refuses
    to convert digit strings past a length limit (4,300 digits by default);
    that is reported at the token like any other malformed input."""
    try:
        return int(text)
    except ValueError:
        raise line.error(k, f"integer literal of {len(text)} digits is too long") from None


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------
#
# A sum adds its terms into one term dict {exponent tuple: coefficient} in
# place.  A term keeps its product as one exponent list and one coefficient
# while it has one term, and a variable factor adds to that list in place;
# any other factor goes through ``_product``, where a factor of coefficient
# 1 shifts, and every other product is LaurentPoly's (and, in ``_power``,
# every power but a variable's), under the expansion kernel's budgets of
# work, terms and bits; a refusal is reported at the "*" or "^".  Integer
# literals stay ints until an expansion or the declaration's LaurentPoly
# converts them; each declaration builds its LaurentPoly once, from the
# finished dict.

_ONE = Fraction(1)  # the coefficient of a variable atom: multiplying by it is a shift


class _ExprContext:
    """The names an expression may use and the atoms they stand for, built
    once per declaration set: the position of each variable a token can
    name, and a coefficient per parameter."""

    def __init__(self, variables, params, zeta_order: int | None):
        self.variables = tuple(variables)
        self.params = tuple(params)
        self.zeta_order = zeta_order
        self.zero = (0,) * len(self.variables)
        # identifiers other than the keyword zeta; a repeated name is the first
        self.index = {}
        for i, name in enumerate(self.variables):
            if name != "zeta" and name.isascii() and name.isidentifier():
                self.index.setdefault(name, i)
        self.param_coeffs = {name: ParamCoeff.param(self.params, name) for name in self.params}

    @cached_property
    def zeta(self) -> Cyclotomic:
        return Cyclotomic.zeta(self.zeta_order)

    def unit(self, k: int, p: int) -> tuple[int, ...]:
        """The exponent vector of variable k to the power p."""
        return self.zero[:k] + (p,) + self.zero[k + 1:]


def _parse_expr(line: _Line, ctx: _ExprContext) -> dict:
    acc = {}
    negate = False
    while True:
        _parse_term(line, ctx, acc, negate)
        t = line.toks[line.i]
        if t != "+" and t != "-":
            return acc
        line.i += 1
        negate = t == "-"


def _parse_term(line: _Line, ctx: _ExprContext, acc: dict, negate: bool):
    """Parse factors joined by ``*`` and add their product into ``acc``,
    negated if ``negate``.  While the product has one term it is kept as an
    exponent list and a coefficient, and a variable factor adds to the list
    in place; any other factor goes through ``_product``."""
    toks = line.toks
    index = ctx.index
    exps = coeff = None  # the product while it has one term
    terms = None         # the product as a term dict while it has not
    star = 0             # the token index of the "*" before this factor
    i = line.i
    while True:
        t = toks[i]
        neg = False
        while t == "-":
            neg = not neg
            i += 1
            t = toks[i]
        k = index.get(t)
        if k is None:
            line.i = i
            factor = _parse_factor(line, ctx)
            i = line.i
            if neg:
                factor = {e: -c for e, c in factor.items()}
        else:  # a variable, maybe raised: one term, coefficient 1
            if toks[i + 1] == "^":
                line.i = i + 2
                p = line.integer(signed=True)
                i = line.i
            else:
                i += 1
                p = 1
            if not neg and exps is not None and terms is None:  # a shift
                exps[k] += p
                factor = None
            else:
                factor = {ctx.unit(k, p): -_ONE if neg else _ONE}
        if factor is not None:
            if exps is None and terms is None:
                terms = factor
            else:
                terms = _product({tuple(exps): coeff} if terms is None else terms, factor,
                                 line, star, ctx)
            if len(terms) == 1:
                (e, coeff), = terms.items()
                exps, terms = list(e), None
        if toks[i] != "*":
            break
        star = i
        i += 1
    line.i = i
    for e, c in terms.items() if terms is not None else ((tuple(exps), coeff),):
        if negate:
            c = -c
        old = acc.get(e)
        if old is None:
            acc[e] = c
        else:
            s = old + c
            if s:
                acc[e] = s
            else:
                del acc[e]


def _parse_factor(line: _Line, ctx: _ExprContext) -> dict:
    """An atom other than a variable, maybe raised, as a term dict."""
    toks = line.toks
    i = line.i
    t = toks[i]
    if t[:1] in _DIGITS:
        line.i = i + 1
        if "/" in t:
            num, den = (_int(part, line, i) for part in t.split("/"))
            if den == 0:
                raise line.error(i, f"zero denominator in {t}")
            atom = {ctx.zero: Fraction(num, den)} if num else {}
        else:
            value = _int(t, line, i)
            atom = {ctx.zero: value} if value else {}
    elif t == "(":
        line.i = i + 1
        atom = _parse_expr(line, ctx)
        line.expect(")")
    elif t == "zeta":
        if not ctx.zeta_order:
            raise line.error(i, "zeta used but no cyclotomic order declared "
                                "(add a zeta or group line)")
        line.i = i + 1
        atom = {ctx.zero: ctx.zeta}
    elif t in ctx.param_coeffs:
        line.i = i + 1
        atom = {ctx.zero: ctx.param_coeffs[t]}
    else:
        want = ("number", "variable", "parameter", "'zeta'", "'('")
        if t[:1] in _IDENT_START:
            raise line.error(i, f"unknown identifier {t!r}", want)
        raise line.unexpected(i, want)
    k = line.i
    if toks[k] == "^":
        line.i = k + 1
        atom = _power(atom, line.integer(signed=True), line, k, ctx)
    return atom


def _product(a: dict, b: dict, line: _Line, k: int, ctx: _ExprContext) -> dict:
    """a * b, refused at token k if over a budget.  A one-term factor of
    coefficient 1 shifts the other's exponents; any other product is
    LaurentPoly's, on the two dicts as they are (their terms are clean, and
    int coefficients multiply as rationals)."""
    mono, rest = (b, a) if len(b) == 1 else (a, b)
    if len(mono) == 1:
        (m, cm), = mono.items()
        if cm is _ONE:
            return {tuple(map(add, e, m)): c for e, c in rest.items()}
    try:
        return (LaurentPoly._raw(ctx.variables, a) * LaurentPoly._raw(ctx.variables, b)).terms
    except BudgetError as exc:
        raise line.error(k, f"product: {exc}") from None


def _power(atom: dict, exp: int, line: _Line, k: int, ctx: _ExprContext) -> dict:
    """atom ** exp, refused at token k if over a budget, or if negative and
    LaurentPoly refuses it: a variable power scales its exponents, any other
    power is LaurentPoly's."""
    if len(atom) == 1:
        (e, c), = atom.items()
        if c is _ONE:  # a variable power: one term, coefficient 1, no work
            return {tuple(exp * x for x in e): _ONE}
    if exp == 0:
        return {ctx.zero: _ONE}
    try:
        return (LaurentPoly(ctx.variables, atom) ** exp).terms
    except BudgetError as exc:
        raise line.error(k, f"power {exp}: {exc}") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise line.error(k, f"cannot take power {exp}: {exc}") from None


def parse_poly(text: str, variables, params=(), zeta_order: int | None = None) -> LaurentPoly:
    """Parse a single polynomial expression (test and scenario convenience)."""
    line = _Line(text, 1)
    ctx = _ExprContext(variables, params, zeta_order)
    terms = _parse_expr(line, ctx)
    line.require_end()
    return LaurentPoly(ctx.variables, terms)


# ---------------------------------------------------------------------------
# problem specifications
# ---------------------------------------------------------------------------

@dataclass
class ProblemSpec:
    variables: tuple[str, ...] = ()
    params: tuple[str, ...] = ()
    zeta_order: int | None = None
    generators: tuple[tuple[int, tuple[int, ...]], ...] = ()
    polys: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)
    chart: str | None = None
    basis: tuple[tuple[int, ...], ...] | None = None
    primes: tuple[int, ...] = ()

    def effective_zeta_order(self) -> int | None:
        if self.zeta_order is not None:
            return self.zeta_order
        acc = math.lcm(*(e for e, _ in self.generators))
        return acc if acc > 1 else None

    def chart_index(self) -> int | None:
        if self.chart is None:
            return None
        return self.variables.index(self.chart)


_KEYWORDS = ("'vars'", "'params'", "'zeta'", "'group'", "'poly'", "'map'",
             "'chart'", "'basis'", "'prime'")
# declarations a spec holds one of; a second line would replace the first
_ONCE = ("vars", "params", "zeta", "chart", "basis")


def _names(line: _Line, what: str, taken: tuple[str, ...], other: str) -> tuple[str, ...]:
    """The rest of a vars or params line: distinct names, none of them in
    ``taken``, the names of the ``other`` kind."""
    names = []
    while not line.at_end():
        k = line.i
        name = line.name((f"{what} name",))
        if name == "zeta":
            raise line.error(k, f"'zeta' names the root of unity, not a {what}",
                             (f"a new {what} name",))
        if name in names:
            raise line.error(k, f"{what} {name!r} declared twice", (f"a new {what} name",))
        if name in taken:
            raise line.error(k, f"{what} {name!r} is already declared as a {other}",
                             (f"a new {what} name",))
        names.append(name)
    return tuple(names)


def parse_input(text: str) -> ProblemSpec:
    """Parse a full problem specification; raises ParseError with position."""
    spec = ProblemSpec()
    poly_lines = []  # deferred until the declarations are known
    map_lines = []
    gen_lines: list[int] = []
    declared: dict[str, int] = {}  # a keyword of _ONCE -> its line

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _Line(raw, ln)
        if line.at_end():
            continue
        kw = line.name(_KEYWORDS)
        if kw in _ONCE:
            if kw in declared:
                raise line.error(0, f"{kw} declared twice, first on line {declared[kw]}")
            declared[kw] = ln

        if kw == "vars":
            spec.variables = _names(line, "variable", spec.params, "parameter")
            if not spec.variables:
                raise line.error(line.i, "vars line needs at least one name", ("variable name",))
        elif kw == "params":
            spec.params = _names(line, "parameter", spec.variables, "variable")
        elif kw == "zeta":
            line.expect("e")
            line.expect("=")
            k = line.i
            spec.zeta_order = line.integer()
            if spec.zeta_order < 1:
                raise line.error(k, "cyclotomic order must be positive")
            line.require_end()
        elif kw == "group":
            line.expect("e")
            line.expect("=")
            k = line.i
            order = line.integer()
            if order < 1:
                raise line.error(k, "generator order must be positive")
            line.expect("gen")
            line.expect("[")
            row = line.integer_list()
            line.expect("]")
            line.require_end()
            spec.generators = spec.generators + ((order, row),)
            gen_lines.append(ln)
        elif kw == "poly":
            k = line.i
            name = line.name(("polynomial name",))
            if any(name == other for _, other, _ in poly_lines):
                raise line.error(k, f"poly {name!r} declared twice", ("a new polynomial name",))
            line.expect("=")
            poly_lines.append((ln, name, line))
        elif kw == "map":
            k = line.i
            name = line.name(("map name",))
            if any(name == other for _, other, _ in map_lines):
                raise line.error(k, f"map {name!r} declared twice", ("a new map name",))
            line.expect("=")
            comps = [line.name(("polynomial name",))]
            while not line.at_end():
                line.expect(",")
                comps.append(line.name(("polynomial name",)))
            map_lines.append((ln, name, tuple(comps)))
        elif kw == "chart":
            spec.chart = line.name(("variable name",))
            line.require_end()
        elif kw == "basis":
            line.expect("[")
            rows = [line.integer_list()]
            while line.toks[line.i] == ";":
                line.i += 1
                rows.append(line.integer_list())
            line.expect("]")
            line.require_end()
            spec.basis = tuple(rows)
        elif kw == "prime":
            k = line.i
            p = line.integer()
            line.require_end()
            if p >= PRIME_TEST_BOUND:
                raise line.error(k, f"modulus {p} is past the primality test's bound",
                                 (f"a prime below {PRIME_TEST_BOUND}",))
            if not is_prime(p):
                raise line.error(k, f"non-prime modulus {p}", ("a prime number",))
            spec.primes = spec.primes + (p,)
        else:
            raise line.error(0, f"unknown declaration {kw!r}", _KEYWORDS)

    # structural validation
    n = len(spec.variables)
    if n == 0:  # declarations come in any order, so this means no vars line at all
        first = min([*gen_lines, *(ln for ln, _, _ in poly_lines),
                     *([declared["basis"]] if spec.basis is not None else [])], default=1)
        raise ParseError(first, 1, "no vars line declares the variables", ("a vars line",))
    for (order, row), ln in zip(spec.generators, gen_lines):
        if len(row) != n:
            raise ParseError(ln, 1,
                             f"generator row has {len(row)} entries, expected {n}",
                             (f"{n} integers",))
    if spec.chart is not None and spec.chart not in spec.variables:
        raise ParseError(declared["chart"], 1, f"chart {spec.chart!r} is not a declared variable",
                         ("a declared variable name",))
    if spec.basis is not None:
        if len(spec.basis) != n - 1 or any(len(r) != n - 1 for r in spec.basis):
            raise ParseError(declared["basis"], 1,
                             f"basis must be {n - 1}x{n - 1} over the non-chart variables",
                             (f"{n - 1} rows of {n - 1} integers",))

    ctx = _ExprContext(spec.variables, spec.params, spec.effective_zeta_order())
    for ln, name, line in poly_lines:
        terms = _parse_expr(line, ctx)
        line.require_end()
        spec.polys[name] = LaurentPoly(ctx.variables, terms)
    for ln, name, comps in map_lines:
        for c in comps:
            if c not in spec.polys:
                raise ParseError(ln, 1, f"map component {c!r} is not a declared poly")
        spec.maps[name] = comps
    return spec


def render_spec(spec: ProblemSpec) -> str:
    """Canonical text form; parse_input(render_spec(s)) == s."""
    out = []
    if spec.variables:
        out.append("vars " + " ".join(spec.variables))
    if spec.params:
        out.append("params " + " ".join(spec.params))
    if spec.zeta_order is not None:
        out.append(f"zeta e={spec.zeta_order}")
    for order, row in spec.generators:
        out.append(f"group e={order} gen [" + ",".join(map(str, row)) + "]")
    for name, p in spec.polys.items():
        out.append(f"poly {name} = {poly_str(p)}")
    for name, comps in spec.maps.items():
        out.append(f"map {name} = " + ", ".join(comps))
    if spec.chart is not None:
        out.append(f"chart {spec.chart}")
    if spec.basis is not None:
        rows = "; ".join(",".join(map(str, r)) for r in spec.basis)
        out.append(f"basis [{rows}]")
    for p in spec.primes:
        out.append(f"prime {p}")
    return "\n".join(out) + "\n"
