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

from .coeffs import Cyclotomic, ParamCoeff, is_prime
from .poly import LaurentPoly, poly_str


# Most terms ``atom ^ exp`` or ``a * b`` may expand to; an expansion this size
# takes a few seconds, and the bound is checked before any expansion starts.
POWER_TERM_BUDGET = 10_000


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
  | (?P<rational>\d+/\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[=\[\],;+\-*^()])
""", re.VERBOSE)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, line_no: int) -> list[Token]:
    out = []
    pos = 0
    while pos < len(text):
        if text[pos] == "#":
            break
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(line_no, pos + 1, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        if kind != "ws":
            out.append(Token(kind, m.group(), line_no, pos + 1))
        pos = m.end()
    return out


class _Cursor:
    def __init__(self, tokens: list[Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.i = 0
        self.line_no = line_no
        self.line_len = line_len

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token | None:
        t = self.peek()
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
        return self.i >= len(self.tokens)

    def require_end(self):
        t = self.peek()
        if t is not None:
            raise ParseError(t.line, t.col, f"trailing input {t.text!r}", ("end of line",))


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

@dataclass
class _ExprContext:
    variables: tuple[str, ...]
    params: tuple[str, ...]
    zeta_order: int | None


def _parse_expr(cur: _Cursor, ctx: _ExprContext) -> LaurentPoly:
    acc = _parse_term(cur, ctx)
    while True:
        t = cur.peek()
        if t is not None and t.text in ("+", "-"):
            cur.next()
            rhs = _parse_term(cur, ctx)
            acc = acc + rhs if t.text == "+" else acc - rhs
        else:
            return acc


def _parse_term(cur: _Cursor, ctx: _ExprContext) -> LaurentPoly:
    acc = _parse_factor(cur, ctx)
    while True:
        t = cur.peek()
        if t is not None and t.text == "*":
            cur.next()
            rhs = _parse_factor(cur, ctx)
            bound = _product_term_bound(acc, rhs)
            if bound > POWER_TERM_BUDGET:
                raise ParseError(t.line, t.col,
                                 f"product may expand to {bound} terms, over the budget "
                                 f"of {POWER_TERM_BUDGET}")
            acc = acc * rhs
        else:
            return acc


def _parse_factor(cur: _Cursor, ctx: _ExprContext) -> LaurentPoly:
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
        exp = _parse_signed_int(cur)
        bound = _power_term_bound(atom, exp)
        if bound > POWER_TERM_BUDGET:
            raise ParseError(t.line, t.col,
                             f"power {exp} may expand to {bound} terms, over the budget "
                             f"of {POWER_TERM_BUDGET}")
        try:
            atom = atom ** exp
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ParseError(t.line, t.col, f"cannot take power {exp}: {exc}") from None
    return atom if sign == 1 else -atom


def _supports(*atoms: LaurentPoly) -> list[list[tuple[int, ...]]]:
    """Each atom's exponent vectors, one per parameter monomial of each
    term, padded to one common width (a plain coefficient has t^0)."""
    supports = []
    for atom in atoms:
        support = []
        for e, c in atom.terms.items():
            if isinstance(c, ParamCoeff):
                support.extend(e + pe for pe, _ in c.terms)
            else:
                support.append(e)
        supports.append(support)
    width = max((len(v) for support in supports for v in support), default=0)
    return [[v + (0,) * (width - len(v)) for v in support] for support in supports]


def _box_widths(support: list[tuple[int, ...]]) -> list[int]:
    return [max(col) - min(col) for col in zip(*support)]


def _power_term_bound(atom: LaurentPoly, exp: int) -> int:
    """An upper bound on the term count of ``atom ** exp``, parameter
    monomials included: the number of multisets of ``exp`` monomials, or of
    lattice points in ``exp`` times the support's bounding box if fewer."""
    (support,) = _supports(atom)
    k = len(support)
    if exp < 2 or k < 2:
        return k
    box = math.prod(exp * w + 1 for w in _box_widths(support))
    return min(box, math.comb(exp + k - 1, k - 1))


def _product_term_bound(a: LaurentPoly, b: LaurentPoly) -> int:
    """An upper bound on the term count of ``a * b``, parameter monomials
    included: the product of the two term counts, or the number of lattice
    points in the sum of the two supports' bounding boxes if fewer.  The
    boxes are measured only for a product over the budget, which most
    products in an input are not."""
    pairs = math.prod(sum(len(c.terms) if isinstance(c, ParamCoeff) else 1
                          for c in atom.terms.values()) for atom in (a, b))
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


def _parse_atom(cur: _Cursor, ctx: _ExprContext) -> LaurentPoly:
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
        return LaurentPoly.constant(ctx.variables, Fraction(num, den))
    if t.kind == "int":
        cur.next()
        return LaurentPoly.constant(ctx.variables, Fraction(_int(t.text, t)))
    if t.kind == "ident":
        cur.next()
        name = t.text
        if name == "zeta":
            if not ctx.zeta_order:
                raise ParseError(t.line, t.col,
                                 "zeta used but no cyclotomic order declared "
                                 "(add a zeta or group line)")
            return LaurentPoly.constant(
                ctx.variables, Cyclotomic.zeta(ctx.zeta_order))
        if name in ctx.variables:
            return LaurentPoly.variable(ctx.variables, name)
        if name in ctx.params:
            return LaurentPoly.constant(
                ctx.variables, ParamCoeff.param(ctx.params, name))
        raise ParseError(t.line, t.col, f"unknown identifier {name!r}", want)
    raise ParseError(t.line, t.col, f"unexpected token {t.text!r}", want)


def parse_poly(text: str, variables, params=(), zeta_order: int | None = None) -> LaurentPoly:
    """Parse a single polynomial expression (test and scenario convenience)."""
    tokens = _tokenize(text, 1)
    cur = _Cursor(tokens, 1, len(text))
    ctx = _ExprContext(tuple(variables), tuple(params), zeta_order)
    p = _parse_expr(cur, ctx)
    cur.require_end()
    return p


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
            p = _parse_int(cur)
            cur.require_end()
            if not is_prime(p):
                raise ParseError(ln, 7, f"non-prime modulus {p}", ("a prime number",))
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
        p = _parse_expr(cur, ctx)
        cur.require_end()
        spec.polys[name] = p
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
