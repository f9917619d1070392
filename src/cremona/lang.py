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
from .poly import LaurentPoly, poly_str


# Most terms ``atom ^ exp`` or ``a * b`` may expand to; an expansion this size
# takes a few seconds, and the bound is checked before any expansion starts.
POWER_TERM_BUDGET = 10_000
# Most bits a numerator or denominator of ``atom ^ exp`` or ``a * b`` may
# need, checked the same way: at most about 3,000 decimal digits, which
# CPython still prints.
POWER_BIT_BUDGET = 10_000
# Most term products ``atom ^ exp`` or ``a * b`` may take.  A power takes exp
# times its term bound times the atom's terms, since it is built as
# atom^(j-1) * atom for j up to exp; a product takes its term pairs, each
# counted once per 64 bits of the two factors' summed coefficient bit
# lengths.  About 1 s of expansion at the 0.2-0.4 us per product of small
# coefficients measured with CPython 3.11 on a 2-core Xeon.
POWER_WORK_BUDGET = 3_000_000


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
# any other factor goes through ``_product``, where only products of two sums
# (and, in ``_power``, powers of sums) reach LaurentPoly's product (the packed
# ``_expand`` kernel).
# Integer literals stay ints; each declaration builds its LaurentPoly once,
# from the finished dict, which makes them Fractions.

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
            # a shift, which reaches no budget unless the coefficient alone
            # has as many terms as the term budget
            if not neg and exps is not None and terms is None and \
                    (not ctx.params or _scalar_terms(coeff) <= POWER_TERM_BUDGET):
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


def _over_budget(value: int, budget: int, what: str, exp: int | None, line: _Line, k: int):
    """Refuse at token k a power ``exp`` (a product if None) whose ``what``,
    a template for ``value``, is over ``budget``."""
    if value > budget:
        op = "product" if exp is None else f"power {exp}"
        raise line.error(k, f"{op} may {what.format(value)}, over the budget of {budget}")


def _product(a: dict, b: dict, line: _Line, k: int, ctx: _ExprContext) -> dict:
    """a * b, refused at token k if over a budget.  A one-term factor shifts
    the other's exponents and scales its coefficients, and does not scale
    them when its coefficient is 1; two sums are multiplied out by
    LaurentPoly's product."""
    mono, rest = (b, a) if len(b) == 1 else (a, b)
    shift = len(mono) == 1 and next(iter(mono.values())) is _ONE
    # without parameters the term count is the dict size: most products are
    # far inside the budget, so their supports are not measured
    if ctx.params or len(a) * len(b) > POWER_TERM_BUDGET:
        _over_budget(_product_term_bound(a, b), POWER_TERM_BUDGET, "expand to {} terms",
                     None, line, k)
    if not shift:
        # the coefficients of a * b are integers of at most ma * mb over at
        # most ma * mb, as for a power; a pair of 5,000-bit coefficients costs
        # about as much as 150 pairs of small ones
        ma, mb = _coeff_size(a), _coeff_size(b)
        _over_budget(max(1, (ma * mb).bit_length()), POWER_BIT_BUDGET,
                     "need {}-bit coefficients", None, line, k)
        _over_budget(_term_count(a) * _term_count(b) * -(-(ma.bit_length() + mb.bit_length()) // 64),
                     POWER_WORK_BUDGET, "take {} term products", None, line, k)
    if len(mono) != 1:
        return (LaurentPoly(ctx.variables, a) * LaurentPoly(ctx.variables, b)).terms
    (m, cm), = mono.items()
    if shift:
        return {tuple(map(add, e, m)): c for e, c in rest.items()}
    return {tuple(map(add, e, m)): c * cm for e, c in rest.items()}


def _power(atom: dict, exp: int, line: _Line, k: int, ctx: _ExprContext) -> dict:
    """atom ** exp, refused at token k if over a budget.  A one-term atom is
    raised by scaling its exponents and powering its coefficient; a sum by
    LaurentPoly's power."""
    mono = len(atom) == 1
    if mono:
        (e, c), = atom.items()
        if c is _ONE:  # a variable power: one term, coefficient 1, no work
            return {tuple(exp * x for x in e): _ONE}
    bound = _power_term_bound(atom, exp)
    _over_budget(bound, POWER_TERM_BUDGET, "expand to {} terms", exp, line, k)
    if exp == 0:
        return {ctx.zero: _ONE}
    if exp < 0:
        if not mono:
            raise line.error(k, f"cannot take power {exp}: negative powers only for monomials")
        try:
            e, c = tuple(-x for x in e), (Fraction(c) if isinstance(c, int) else c) ** -1
        except (ValueError, ZeroDivisionError) as exc:
            raise line.error(k, f"cannot take power {exp}: {exc}") from None
        atom = {e: c}
    n = abs(exp)
    _over_budget(_power_bit_bound(atom, n), POWER_BIT_BUDGET, "need {}-bit coefficients",
                 exp, line, k)
    if mono:
        return {tuple(n * x for x in e): c ** n}
    _over_budget(n * bound * len(atom), POWER_WORK_BUDGET, "take {} term products",
                 exp, line, k)
    return (LaurentPoly(ctx.variables, atom) ** n).terms


def _supports(*atoms: dict) -> list[list[tuple[int, ...]]]:
    """Each atom's exponent vectors, one per parameter monomial of each
    term, padded to one common width (a plain coefficient has t^0)."""
    supports = []
    for atom in atoms:
        support = []
        for e, c in atom.items():
            if isinstance(c, ParamCoeff):
                support.extend(e + pe for pe, _ in c.terms)
            else:
                support.append(e)
        supports.append(support)
    width = max((len(v) for support in supports for v in support), default=0)
    return [[v + (0,) * (width - len(v)) for v in support] for support in supports]


def _box_widths(support: list[tuple[int, ...]]) -> list[int]:
    return [max(col) - min(col) for col in zip(*support)]


def _power_term_bound(atom: dict, exp: int) -> int:
    """An upper bound on the term count of ``atom ** exp``, parameter
    monomials included: the number of multisets of ``exp`` monomials, or of
    lattice points in ``exp`` times the support's bounding box if fewer."""
    (support,) = _supports(atom)
    k = len(support)
    if exp < 2 or k < 2:
        return k
    box = math.prod(exp * w + 1 for w in _box_widths(support))
    return min(box, math.comb(exp + k - 1, k - 1))


def _rationals(c) -> list:
    """The rational numbers a coefficient is written with."""
    if isinstance(c, ParamCoeff):
        return [r for _, v in c.terms for r in _rationals(v)]
    if isinstance(c, Cyclotomic):
        return list(c.coeffs)
    return [c]


def _coeff_size(atom: dict) -> int:
    """max(D, S) for D the common denominator of the atom's rational numbers
    and S the sum of their absolute values times D: every coefficient of the
    atom is an integer of at most S over D."""
    values = [r for c in atom.values() for r in _rationals(c)]
    den = math.lcm(*(r.denominator for r in values))
    return max(den, sum(abs(r.numerator) * (den // r.denominator) for r in values))


def _power_bit_bound(atom: dict, exp: int) -> int:
    """A bound on the bit lengths of the numerators and denominators of
    ``atom ** exp`` for exp >= 0.  With m the atom's ``_coeff_size``, every
    coefficient of the power is an integer of at most m^exp over at most
    m^exp, and m^exp has at most exp times as many bits as m; a cyclotomic
    coefficient adds a constant factor that depends only on its order.
    Atoms written with 0 and one +/-1, such as ``zeta``, get 1 whatever the
    exponent.  Integer arithmetic only, so any exponent is measured."""
    m = _coeff_size(atom)
    return max(1, exp * m.bit_length()) if m > 1 else 1


def _scalar_terms(c) -> int:
    """The terms of coefficient c, each parameter monomial counted apart."""
    return len(c.terms) if isinstance(c, ParamCoeff) else 1


def _term_count(atom: dict) -> int:
    """The atom's terms, each parameter monomial counted apart."""
    return sum(map(_scalar_terms, atom.values()))


def _product_term_bound(a: dict, b: dict) -> int:
    """An upper bound on the term count of ``a * b``, parameter monomials
    included: the product of the two term counts, or the number of lattice
    points in the sum of the two supports' bounding boxes if fewer.  The
    boxes are measured only for a product over the budget, which most
    products in an input are not."""
    pairs = _term_count(a) * _term_count(b)
    if pairs <= POWER_TERM_BUDGET:
        return pairs
    sa, sb = _supports(a, b)
    box = math.prod(wa + wb + 1 for wa, wb in zip(_box_widths(sa), _box_widths(sb)))
    return min(pairs, box)


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


def _names(line: _Line, what: str, taken: tuple[str, ...], other: str) -> tuple[str, ...]:
    """The rest of a vars or params line: distinct names, none of them in
    ``taken``, the names of the ``other`` kind."""
    names = []
    while not line.at_end():
        k = line.i
        name = line.name((f"{what} name",))
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
    basis_line = 1
    chart_line = 1

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _Line(raw, ln)
        if line.at_end():
            continue
        kw = line.name(_KEYWORDS)

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
            order = line.integer()
            if order < 1:
                raise ParseError(ln, 1, "generator order must be positive")
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
            chart_line = ln
        elif kw == "basis":
            line.expect("[")
            rows = [line.integer_list()]
            while line.toks[line.i] == ";":
                line.i += 1
                rows.append(line.integer_list())
            line.expect("]")
            line.require_end()
            spec.basis = tuple(rows)
            basis_line = ln
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
    for (order, row), ln in zip(spec.generators, gen_lines):
        if n == 0:
            raise ParseError(ln, 1, "group declared before vars", ("a vars line first",))
        if len(row) != n:
            raise ParseError(ln, 1,
                             f"generator row has {len(row)} entries, expected {n}",
                             (f"{n} integers",))
    if spec.chart is not None and spec.chart not in spec.variables:
        raise ParseError(chart_line, 1, f"chart {spec.chart!r} is not a declared variable",
                         ("a declared variable name",))
    if spec.basis is not None:
        if n == 0:
            raise ParseError(basis_line, 1, "basis declared before vars",
                             ("a vars line first",))
        if len(spec.basis) != n - 1 or any(len(r) != n - 1 for r in spec.basis):
            raise ParseError(basis_line, 1,
                             f"basis must be {n - 1}x{n - 1} over the non-chart variables",
                             (f"{n - 1} rows of {n - 1} integers",))

    ctx = _ExprContext(spec.variables, spec.params, spec.effective_zeta_order())
    for ln, name, line in poly_lines:
        if n == 0:
            raise ParseError(ln, 1, "poly declared before vars")
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
