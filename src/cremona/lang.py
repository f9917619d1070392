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

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<rational>\d+/\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[=\[\],;+\-*^()])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


@dataclass(slots=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, line_no: int) -> list[Token]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "comment":
            break
        if kind == "bad":
            raise ParseError(line_no, m.start() + 1, f"unexpected character {m.group()!r}")
        out.append(Token(kind, m.group(), line_no, m.start() + 1))
    return out


class _Cursor:
    def __init__(self, tokens: list[Token], line_no: int, line_len: int):
        self.tokens = tokens + [None]  # the end of the line peeks as None
        self.i = 0
        self.line_no = line_no
        self.line_len = line_len

    def peek(self) -> Token | None:
        return self.tokens[self.i]

    def next(self) -> Token | None:
        t = self.tokens[self.i]
        if t is not None:
            self.i += 1
        return t

    def expect(self, text: str | None = None, kind: str | None = None,
               expected: tuple[str, ...] = ()) -> Token:
        t = self.peek()
        want = expected or ((repr(text),) if text else ((kind,) if kind else ()))
        if t is None:
            raise ParseError(self.line_no, self.line_len + 1, "unexpected end of line", want)
        if text is not None and t.text != text:
            raise ParseError(t.line, t.col, f"unexpected token {t.text!r}", want)
        if kind is not None and t.kind != kind:
            raise ParseError(t.line, t.col, f"unexpected token {t.text!r}", want)
        self.i += 1
        return t

    def at_end(self) -> bool:
        return self.tokens[self.i] is None

    def require_end(self):
        t = self.peek()
        if t is not None:
            raise ParseError(t.line, t.col, f"trailing input {t.text!r}", ("end of line",))


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------
#
# Expressions are parsed on plain term dicts {exponent tuple: coefficient}.
# A sum adds into one accumulator in place, a factor with one term shifts the
# exponents of the other, and only products of two sums and powers of sums go
# through LaurentPoly's product (the packed ``_expand`` kernel).  Each
# declaration builds its LaurentPoly once, from the finished dict.

_ONE = Fraction(1)  # the coefficient of a variable atom: multiplying by it is a shift


class _ExprContext:
    """The names an expression may use and the atoms they stand for, built
    once per declaration set: the zero vector, a unit vector per variable and
    a coefficient per parameter."""

    def __init__(self, variables, params, zeta_order: int | None):
        self.variables = tuple(variables)
        self.params = tuple(params)
        self.zeta_order = zeta_order
        self.zero = (0,) * len(self.variables)
        self.units = {}
        for i, name in enumerate(self.variables):
            self.units.setdefault(name, self.zero[:i] + (1,) + self.zero[i + 1:])
        self.param_coeffs = {name: ParamCoeff.param(self.params, name) for name in self.params}

    @cached_property
    def zeta(self) -> Cyclotomic:
        return Cyclotomic.zeta(self.zeta_order)


def _parse_expr(cur: _Cursor, ctx: _ExprContext) -> dict:
    acc = _parse_term(cur, ctx)
    while True:
        t = cur.peek()
        if t is None or t.text not in ("+", "-"):
            return acc
        cur.next()
        negate = t.text == "-"
        for e, c in _parse_term(cur, ctx).items():
            if negate:
                c = -c
            if e not in acc:
                acc[e] = c
                continue
            s = acc[e] + c
            if s:
                acc[e] = s
            else:
                del acc[e]


def _parse_term(cur: _Cursor, ctx: _ExprContext) -> dict:
    acc = _parse_factor(cur, ctx)
    while True:
        t = cur.peek()
        if t is None or t.text != "*":
            return acc
        cur.next()
        acc = _product(acc, _parse_factor(cur, ctx), t, ctx)


def _parse_factor(cur: _Cursor, ctx: _ExprContext) -> dict:
    sign = 1
    while True:
        t = cur.peek()
        if t is not None and t.text == "-":
            cur.next()
            sign = -sign
        else:
            break
    atom = _parse_atom(cur, ctx)
    t = cur.peek()
    if t is not None and t.text == "^":
        cur.next()
        atom = _power(atom, _parse_signed_int(cur), t, ctx)
    return atom if sign == 1 else {e: -c for e, c in atom.items()}


def _product(a: dict, b: dict, tok: Token, ctx: _ExprContext) -> dict:
    """a * b, refused at ``tok`` if over a budget.  A one-term factor shifts
    the other's exponents and scales its coefficients, and does not scale
    them when its coefficient is 1; two sums are multiplied out by
    LaurentPoly's product."""
    mono, rest = (b, a) if len(b) == 1 else (a, b)
    shift = len(mono) == 1 and next(iter(mono.values())) is _ONE
    # without parameters the term count is the dict size: most products are
    # far inside the budget, so their supports are not measured
    if ctx.params or len(a) * len(b) > POWER_TERM_BUDGET:
        bound = _product_term_bound(a, b)
        if bound > POWER_TERM_BUDGET:
            raise ParseError(tok.line, tok.col,
                             f"product may expand to {bound} terms, over the budget "
                             f"of {POWER_TERM_BUDGET}")
    if not shift:
        # the coefficients of a * b are integers of at most ma * mb over at
        # most ma * mb, as for a power
        ma, mb = _coeff_size(a), _coeff_size(b)
        bits = max(1, (ma * mb).bit_length())
        if bits > POWER_BIT_BUDGET:
            raise ParseError(tok.line, tok.col,
                             f"product may need {bits}-bit coefficients, over the budget "
                             f"of {POWER_BIT_BUDGET}")
        # a pair of 5,000-bit coefficients costs about as much as 150 pairs
        # of small ones
        work = _term_count(a) * _term_count(b) * -(-(ma.bit_length() + mb.bit_length()) // 64)
        if work > POWER_WORK_BUDGET:
            raise ParseError(tok.line, tok.col,
                             f"product may take {work} term products, over the budget "
                             f"of {POWER_WORK_BUDGET}")
    if len(mono) != 1:
        return (LaurentPoly(ctx.variables, a) * LaurentPoly(ctx.variables, b)).terms
    (m, cm), = mono.items()
    if shift:
        return {tuple(map(add, e, m)): c for e, c in rest.items()}
    return {tuple(map(add, e, m)): c * cm for e, c in rest.items()}


def _power(atom: dict, exp: int, tok: Token, ctx: _ExprContext) -> dict:
    """atom ** exp, refused at ``tok`` if over a budget.  A one-term atom is
    raised by scaling its exponents and powering its coefficient; a sum by
    LaurentPoly's power."""
    mono = len(atom) == 1
    if mono:
        (e, c), = atom.items()
        if c is _ONE:  # a variable power: one term, coefficient 1, no work
            return {tuple(exp * x for x in e): _ONE}
    bound = _power_term_bound(atom, exp)
    if bound > POWER_TERM_BUDGET:
        raise ParseError(tok.line, tok.col,
                         f"power {exp} may expand to {bound} terms, over the budget "
                         f"of {POWER_TERM_BUDGET}")
    if exp == 0:
        return {ctx.zero: _ONE}
    if exp < 0:
        if not mono:
            raise ParseError(tok.line, tok.col,
                             f"cannot take power {exp}: negative powers only for monomials")
        try:
            e, c = tuple(-x for x in e), c ** -1
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(tok.line, tok.col, f"cannot take power {exp}: {exc}") from None
        atom = {e: c}
    n = abs(exp)
    bits = _power_bit_bound(atom, n)
    if bits > POWER_BIT_BUDGET:
        raise ParseError(tok.line, tok.col,
                         f"power {exp} may need {bits}-bit coefficients, over the budget "
                         f"of {POWER_BIT_BUDGET}")
    if mono:
        return {tuple(n * x for x in e): c ** n}
    work = n * bound * len(atom)
    if work > POWER_WORK_BUDGET:
        raise ParseError(tok.line, tok.col,
                         f"power {exp} may take {work} term products, over the budget "
                         f"of {POWER_WORK_BUDGET}")
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


def _term_count(atom: dict) -> int:
    """The atom's terms, each parameter monomial counted apart."""
    return sum(len(c.terms) if isinstance(c, ParamCoeff) else 1 for c in atom.values())


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


def _int(text: str, tok: Token) -> int:
    """The integer spelled by the digits ``text`` of ``tok``.  CPython refuses
    to convert digit strings past a length limit (4,300 digits by default);
    that is reported at the token like any other malformed input."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(tok.line, tok.col,
                         f"integer literal of {len(text)} digits is too long") from None


def _parse_int(cur: _Cursor) -> int:
    tok = cur.expect(kind="int", expected=("integer",))
    return _int(tok.text, tok)


def _parse_signed_int(cur: _Cursor) -> int:
    t = cur.peek()
    sign = 1
    if t is not None and t.text == "-":
        cur.next()
        sign = -1
    return sign * _parse_int(cur)


def _parse_atom(cur: _Cursor, ctx: _ExprContext) -> dict:
    t = cur.peek()
    want = ("number", "variable", "parameter", "'zeta'", "'('")
    if t is None:
        raise ParseError(cur.line_no, cur.line_len + 1, "unexpected end of line", want)
    if t.text == "(":
        cur.next()
        inner = _parse_expr(cur, ctx)
        cur.expect(")")
        return inner
    if t.kind == "rational":
        cur.next()
        num, den = (_int(part, t) for part in t.text.split("/"))
        if den == 0:
            raise ParseError(t.line, t.col, f"zero denominator in {t.text}")
        return {ctx.zero: Fraction(num, den)} if num else {}
    if t.kind == "int":
        cur.next()
        value = _int(t.text, t)
        return {ctx.zero: Fraction(value)} if value else {}
    if t.kind == "ident":
        cur.next()
        name = t.text
        if name == "zeta":
            if not ctx.zeta_order:
                raise ParseError(t.line, t.col,
                                 "zeta used but no cyclotomic order declared "
                                 "(add a zeta or group line)")
            return {ctx.zero: ctx.zeta}
        if name in ctx.units:
            return {ctx.units[name]: _ONE}
        if name in ctx.param_coeffs:
            return {ctx.zero: ctx.param_coeffs[name]}
        raise ParseError(t.line, t.col, f"unknown identifier {name!r}", want)
    raise ParseError(t.line, t.col, f"unexpected token {t.text!r}", want)


def parse_poly(text: str, variables, params=(), zeta_order: int | None = None) -> LaurentPoly:
    """Parse a single polynomial expression (test and scenario convenience)."""
    tokens = _tokenize(text, 1)
    cur = _Cursor(tokens, 1, len(text))
    ctx = _ExprContext(variables, params, zeta_order)
    terms = _parse_expr(cur, ctx)
    cur.require_end()
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


def _parse_int_list(cur: _Cursor) -> tuple[int, ...]:
    out = [_parse_signed_int(cur)]
    while not cur.at_end() and cur.peek().text == ",":
        cur.next()
        out.append(_parse_signed_int(cur))
    return tuple(out)


def parse_input(text: str) -> ProblemSpec:
    """Parse a full problem specification; raises ParseError with position."""
    lines = text.splitlines()
    spec = ProblemSpec()
    poly_lines = []  # deferred until the declarations are known
    map_lines = []
    gen_lines: list[int] = []
    basis_line = 1
    chart_line = 1

    for ln, raw in enumerate(lines, start=1):
        tokens = _tokenize(raw, ln)
        if not tokens:
            continue
        cur = _Cursor(tokens, ln, len(raw))
        head = cur.expect(kind="ident", expected=(
            "'vars'", "'params'", "'zeta'", "'group'", "'poly'", "'map'",
            "'chart'", "'basis'", "'prime'"))
        kw = head.text

        if kw == "vars":
            names = []
            while not cur.at_end():
                names.append(cur.expect(kind="ident", expected=("variable name",)).text)
            if not names:
                raise ParseError(ln, len(raw) + 1, "vars line needs at least one name",
                                 ("variable name",))
            spec.variables = tuple(names)
        elif kw == "params":
            names = []
            while not cur.at_end():
                names.append(cur.expect(kind="ident", expected=("parameter name",)).text)
            spec.params = tuple(names)
        elif kw == "zeta":
            cur.expect("e")
            cur.expect("=")
            spec.zeta_order = _parse_int(cur)
            cur.require_end()
        elif kw == "group":
            cur.expect("e")
            cur.expect("=")
            order = _parse_int(cur)
            if order < 1:
                raise ParseError(ln, 1, "generator order must be positive")
            cur.expect("gen")
            cur.expect("[")
            row = _parse_int_list(cur)
            cur.expect("]")
            cur.require_end()
            spec.generators = spec.generators + ((order, row),)
            gen_lines.append(ln)
        elif kw == "poly":
            name = cur.expect(kind="ident", expected=("polynomial name",))
            cur.expect("=")
            poly_lines.append((ln, raw, name.text, cur))
        elif kw == "map":
            name = cur.expect(kind="ident", expected=("map name",))
            cur.expect("=")
            comps = [cur.expect(kind="ident", expected=("polynomial name",)).text]
            while not cur.at_end():
                cur.expect(",")
                comps.append(cur.expect(kind="ident", expected=("polynomial name",)).text)
            map_lines.append((ln, name.text, tuple(comps)))
        elif kw == "chart":
            spec.chart = cur.expect(kind="ident", expected=("variable name",)).text
            cur.require_end()
            chart_line = ln
        elif kw == "basis":
            cur.expect("[")
            rows = [_parse_int_list(cur)]
            while cur.peek() is not None and cur.peek().text == ";":
                cur.next()
                rows.append(_parse_int_list(cur))
            cur.expect("]")
            cur.require_end()
            spec.basis = tuple(rows)
            basis_line = ln
        elif kw == "prime":
            tok = cur.peek()
            p = _parse_int(cur)
            cur.require_end()
            if p >= PRIME_TEST_BOUND:
                raise ParseError(tok.line, tok.col, f"modulus {p} is past the primality "
                                 "test's bound", (f"a prime below {PRIME_TEST_BOUND}",))
            if not is_prime(p):
                raise ParseError(tok.line, tok.col, f"non-prime modulus {p}",
                                 ("a prime number",))
            spec.primes = spec.primes + (p,)
        else:
            raise ParseError(head.line, head.col, f"unknown declaration {kw!r}", (
                "'vars'", "'params'", "'zeta'", "'group'", "'poly'", "'map'",
                "'chart'", "'basis'", "'prime'"))

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
    for ln, raw, name, cur in poly_lines:
        if n == 0:
            raise ParseError(ln, 1, "poly declared before vars")
        terms = _parse_expr(cur, ctx)
        cur.require_end()
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
