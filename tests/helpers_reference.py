"""Naive references: the product and power of ``LaurentPoly`` as a
tuple-key double loop and square-and-multiply over it, ``substitute`` built
from those and ``__add__``, reduction into F_p by ``FpElem`` arithmetic,
evaluation mod p by a per-term ``pow`` loop, the F_p enumerations as
per-point loops over ``proj_points``, a basis search that solves every
candidate in the lattice again, and a recursive-descent expression parser
over token objects."""
import itertools
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from cremona import lang
from cremona.coeffs import Cyclotomic, FpElem, ParamCoeff, root_embed
from cremona.lang import (ParseError, _coeff_size, _power_bit_bound, _power_term_bound,
                          _product_term_bound, _term_count)
from cremona.pipeline import (SEARCH_ENTRY_BOUND, MonomialBasis, cremona_step,
                              hnf_basis_for, rewrite_invariant)
from cremona.poly import LaurentPoly
from cremona.verify import (FiberHistogram, QuotientFiberReport, Refusal, ScanReport,
                            _check_enumeration_guard, group_elements_mod_p,
                            normalize_point, proj_points)


def reference_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b by a double loop over tuple keys and coefficient objects: the
    product ``LaurentPoly.__mul__`` ran before it used the packed kernel."""
    if a.vars != b.vars:
        raise ValueError(f"variable sets differ: {a.vars} vs {b.vars}")
    acc: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    return LaurentPoly(a.vars, acc)


def reference_pow(a: LaurentPoly, n: int) -> LaurentPoly:
    """a ** n by square-and-multiply over ``reference_mul``, starting from
    the base so that F_p powers stay in F_p; a ** 0 is the unit of a's
    domain (Q for the zero polynomial); negative n for monomials only."""
    if n == 0:
        return LaurentPoly.constant(a.vars, next(iter(a.terms.values()), 1) ** 0)
    if n < 0:
        if len(a.terms) != 1:
            raise ValueError("negative powers only for monomials")
        (e, c), = a.terms.items()
        return LaurentPoly(a.vars, {tuple(n * x for x in e): c ** n})
    result = None
    while True:
        if n & 1:
            result = a if result is None else reference_mul(result, a)
        n >>= 1
        if not n:
            return result
        a = reference_mul(a, a)


def reference_substitute(F: LaurentPoly, images: dict) -> LaurentPoly:
    target = next(iter(images.values())).vars
    acc = LaurentPoly.zero(target)
    for e, c in F.terms.items():
        t = LaurentPoly.constant(target, c)
        for name, k in zip(F.vars, e):
            if k:
                t = reference_mul(t, reference_pow(images[name], k))
        acc = acc + t
    return acc


def reference_to_prime_field(x, p: int) -> FpElem:
    """``coeffs.to_prime_field`` as a step-by-step reduction in ``FpElem``
    arithmetic, one field element per operation: the reduction it ran
    before it computed residues on ints."""
    if isinstance(x, FpElem):
        if x.p != p:
            raise ValueError(f"prime field mismatch: {x.p} vs {p}")
        return x
    if isinstance(x, int):
        return FpElem(p, x)
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
        return FpElem(p, x.numerator) / FpElem(p, x.denominator)
    if isinstance(x, Cyclotomic):
        r = root_embed(x.order, p)
        acc = FpElem(p, 0)
        for k, c in enumerate(x.coeffs):
            if c:
                acc = acc + reference_to_prime_field(c, p) * r ** k
        return acc
    if isinstance(x, ParamCoeff):
        raise ValueError(
            "parameter coefficients must be specialized before finite-field "
            "reduction")
    raise TypeError(f"cannot reduce {type(x).__name__} into F_{p}")


def reference_eval_mod(F: LaurentPoly, pt: tuple, p: int) -> int:
    """F at pt mod p by one ``pow`` per variable per term: the term loop
    ``verify.eval_compiled`` ran before it evaluated generated code."""
    acc = 0
    for e, c in F.sorted_terms():
        t = reference_to_prime_field(c, p).value
        if not t:
            continue
        for x, k in zip(pt, e):
            if k == 0:
                continue
            if k < 0:
                if x % p == 0:
                    raise ZeroDivisionError("pole at zero coordinate")
                t = t * pow(x, (p - 2) * (-k), p)
            else:
                t = t * pow(x, k, p)
        acc += t
    return acc % p


def reference_smooth_scan(F: LaurentPoly, p: int) -> ScanReport:
    """``verify.smooth_scan`` as a loop over ``proj_points`` that evaluates
    one partial at a time, the way it ran before its loops were generated."""
    d = F.homogeneous_degree()
    if d is None or not F.is_polynomial():
        raise Refusal("smooth_scan needs a homogeneous polynomial")
    if p in (2, 3) or d % p == 0:
        raise Refusal(f"bad characteristic {p} for degree {d}")
    t0 = time.perf_counter()
    n = F.n_vars
    _check_enumeration_guard(n, p)
    partials = [F.partial_deriv(i) for i in range(n)]
    singular = []
    count = 0
    for pt in proj_points(n, p):
        count += 1
        if all(reference_eval_mod(g, pt, p) == 0 for g in partials):
            if reference_eval_mod(F, pt, p) != 0:
                raise ArithmeticError("Euler relation violated; check the characteristic")
            singular.append(pt)
    return ScanReport(p, count, singular, time.perf_counter() - t0)


def reference_fiber_histogram(rmap, p: int) -> FiberHistogram:
    """``verify.fiber_histogram`` as a loop over ``proj_points``."""
    t0 = time.perf_counter()
    n = len(rmap.source_vars)
    _check_enumeration_guard(n, p)
    comps = rmap.components
    fibers: dict[tuple[int, ...], int] = {}
    indet = 0
    count = 0
    for pt in proj_points(n, p):
        count += 1
        img = tuple(reference_eval_mod(c, pt, p) for c in comps)
        if not any(img):
            indet += 1
            continue
        img = normalize_point(img, p)
        fibers[img] = fibers.get(img, 0) + 1
    hist: dict[int, int] = {}
    for size in fibers.values():
        hist[size] = hist.get(size, 0) + 1
    degree = max(hist, key=lambda s: (hist[s], s)) if hist else 0
    return FiberHistogram(
        prime=p, source_points=count, indeterminacy=indet, histogram=dict(sorted(hist.items())),
        inferred_degree=degree, image_points=len(fibers), elapsed_s=time.perf_counter() - t0)


def reference_map_fiber_orbit_check(F: LaurentPoly, action, forward, target: LaurentPoly,
                                    p: int) -> QuotientFiberReport:
    """``verify.map_fiber_orbit_check`` as a loop over the torus points."""
    t0 = time.perf_counter()
    for order, _ in action.generators:
        if (p - 1) % order != 0:
            raise ValueError(f"root of order {order} unavailable in F_{p}")
    n = action.n_vars
    _check_enumeration_guard(n, p)
    comps = forward.components

    elements = group_elements_mod_p(action, p)
    if len(elements) != action.group_order():
        raise ArithmeticError("embedded group order mismatch")

    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    count = 0
    all_on = True
    for tail in itertools.product(range(1, p), repeat=n - 1):
        pt = (1,) + tail
        if reference_eval_mod(F, pt, p) != 0:
            continue
        count += 1
        img = tuple(reference_eval_mod(c, pt, p) for c in comps)
        img = normalize_point(img, p)
        if reference_eval_mod(target, img, p) != 0:
            all_on = False
            continue
        fibers.setdefault(img, []).append(pt)

    orbits_ok = True
    sizes: dict[int, int] = {}
    for img, pts in fibers.items():
        orbit = {normalize_point(tuple(g[i] * pts[0][i] % p for i in range(n)), p)
                 for g in elements}
        if set(pts) != orbit:
            orbits_ok = False
        sizes[len(pts)] = sizes.get(len(pts), 0) + 1
    generic = max(sizes, key=lambda s: (sizes[s], s)) if sizes else 0
    return QuotientFiberReport(
        prime=p, torus_points=count, all_on_image=all_on, orbits_ok=orbits_ok,
        fiber_sizes=dict(sorted(sizes.items())), generic_fiber=generic,
        group_order=action.group_order(), elapsed_s=time.perf_counter() - t0)


def reference_search_basis(X, chart, width=8, depth=6):
    """``pipeline.search_basis`` as it was before it carried term
    coordinates through its row moves: every candidate is scored by
    rewriting the chart equation in its basis with ``rewrite_invariant``."""
    start = hnf_basis_for(X.action, chart)
    cremona_step(X, chart, start)
    f = X.F.dehomogenize(chart)

    def score(basis):
        flat = tuple(x for row in basis.rows for x in row)
        return rewrite_invariant(f, chart, basis)[0].total_degree(), flat

    best_score = score(start)
    best_basis = start
    beam = [(best_score, start)]
    seen = {start.rows}
    n = start.size
    for _ in range(depth):
        candidates = []
        for _, basis in beam:
            rows = basis.rows
            neighbors = []
            for i in range(n):
                neg = tuple(tuple(-x for x in r) if k == i else r for k, r in enumerate(rows))
                neighbors.append(neg)
                for j in range(n):
                    if i == j:
                        continue
                    for sign in (1, -1):
                        new_row = tuple(a + sign * b for a, b in zip(rows[i], rows[j]))
                        if max(abs(x) for x in new_row) > SEARCH_ENTRY_BOUND:
                            continue
                        neighbors.append(tuple(new_row if k == i else r
                                               for k, r in enumerate(rows)))
            for rows2 in neighbors:
                if rows2 in seen:
                    continue
                seen.add(rows2)
                cand = MonomialBasis(rows2)
                candidates.append((score(cand), cand))
        if not candidates:
            break
        candidates.sort(key=lambda t: t[0])
        beam = candidates[:width]
        if candidates[0][0] < best_score:
            best_score, best_basis = candidates[0]
    return best_basis, cremona_step(X, chart, best_basis)


# ---------------------------------------------------------------------------
# the expression parser
# ---------------------------------------------------------------------------
#
# ``lang.parse_poly`` as it was before it read token texts and built each
# term's monomial in place: one ``Token`` per token, a cursor over them, and a
# term dict per factor, multiplied by ``_product`` at every "*".  Digits are
# ASCII only, as in ``lang``.  The budgets are read from ``lang`` at each
# check, and the bounds are ``lang``'s own.

_REF_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<rational>[0-9]+/[0-9]+)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[=\[\],;+\-*^()])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

_REF_ONE = Fraction(1)  # the coefficient of a variable atom: multiplying by it is a shift


@dataclass(slots=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _ref_tokenize(text: str, line_no: int) -> list[_Token]:
    out = []
    for m in _REF_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "comment":
            break
        if kind == "bad":
            raise ParseError(line_no, m.start() + 1, f"unexpected character {m.group()!r}")
        out.append(_Token(kind, m.group(), line_no, m.start() + 1))
    return out


class _Cursor:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int):
        self.tokens = tokens + [None]  # the end of the line peeks as None
        self.i = 0
        self.line_no = line_no
        self.line_len = line_len

    def peek(self) -> _Token | None:
        return self.tokens[self.i]

    def next(self) -> _Token | None:
        t = self.tokens[self.i]
        if t is not None:
            self.i += 1
        return t

    def expect(self, text: str | None = None, kind: str | None = None,
               expected: tuple[str, ...] = ()) -> _Token:
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

    def require_end(self):
        t = self.peek()
        if t is not None:
            raise ParseError(t.line, t.col, f"trailing input {t.text!r}", ("end of line",))


class _RefContext:
    def __init__(self, variables, params, zeta_order):
        self.variables = tuple(variables)
        self.params = tuple(params)
        self.zeta_order = zeta_order
        self.zero = (0,) * len(self.variables)
        self.units = {}
        for i, name in enumerate(self.variables):
            self.units.setdefault(name, self.zero[:i] + (1,) + self.zero[i + 1:])
        self.param_coeffs = {name: ParamCoeff.param(self.params, name) for name in self.params}


def _ref_expr(cur: _Cursor, ctx: _RefContext) -> dict:
    acc = _ref_term(cur, ctx)
    while True:
        t = cur.peek()
        if t is None or t.text not in ("+", "-"):
            return acc
        cur.next()
        negate = t.text == "-"
        for e, c in _ref_term(cur, ctx).items():
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


def _ref_term(cur: _Cursor, ctx: _RefContext) -> dict:
    acc = _ref_factor(cur, ctx)
    while True:
        t = cur.peek()
        if t is None or t.text != "*":
            return acc
        cur.next()
        acc = _ref_product(acc, _ref_factor(cur, ctx), t, ctx)


def _ref_factor(cur: _Cursor, ctx: _RefContext) -> dict:
    sign = 1
    while True:
        t = cur.peek()
        if t is not None and t.text == "-":
            cur.next()
            sign = -sign
        else:
            break
    atom = _ref_atom(cur, ctx)
    t = cur.peek()
    if t is not None and t.text == "^":
        cur.next()
        atom = _ref_power(atom, _ref_signed_int(cur), t, ctx)
    return atom if sign == 1 else {e: -c for e, c in atom.items()}


def _ref_product(a: dict, b: dict, tok: _Token, ctx: _RefContext) -> dict:
    mono, rest = (b, a) if len(b) == 1 else (a, b)
    shift = len(mono) == 1 and next(iter(mono.values())) is _REF_ONE
    if ctx.params or len(a) * len(b) > lang.POWER_TERM_BUDGET:
        bound = _product_term_bound(a, b)
        if bound > lang.POWER_TERM_BUDGET:
            raise ParseError(tok.line, tok.col,
                             f"product may expand to {bound} terms, over the budget "
                             f"of {lang.POWER_TERM_BUDGET}")
    if not shift:
        ma, mb = _coeff_size(a), _coeff_size(b)
        bits = max(1, (ma * mb).bit_length())
        if bits > lang.POWER_BIT_BUDGET:
            raise ParseError(tok.line, tok.col,
                             f"product may need {bits}-bit coefficients, over the budget "
                             f"of {lang.POWER_BIT_BUDGET}")
        work = _term_count(a) * _term_count(b) * -(-(ma.bit_length() + mb.bit_length()) // 64)
        if work > lang.POWER_WORK_BUDGET:
            raise ParseError(tok.line, tok.col,
                             f"product may take {work} term products, over the budget "
                             f"of {lang.POWER_WORK_BUDGET}")
    if len(mono) != 1:
        return (LaurentPoly(ctx.variables, a) * LaurentPoly(ctx.variables, b)).terms
    (m, cm), = mono.items()
    if shift:
        return {tuple(map(add, e, m)): c for e, c in rest.items()}
    return {tuple(map(add, e, m)): c * cm for e, c in rest.items()}


def _ref_power(atom: dict, exp: int, tok: _Token, ctx: _RefContext) -> dict:
    mono = len(atom) == 1
    if mono:
        (e, c), = atom.items()
        if c is _REF_ONE:
            return {tuple(exp * x for x in e): _REF_ONE}
    bound = _power_term_bound(atom, exp)
    if bound > lang.POWER_TERM_BUDGET:
        raise ParseError(tok.line, tok.col,
                         f"power {exp} may expand to {bound} terms, over the budget "
                         f"of {lang.POWER_TERM_BUDGET}")
    if exp == 0:
        return {ctx.zero: _REF_ONE}
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
    if bits > lang.POWER_BIT_BUDGET:
        raise ParseError(tok.line, tok.col,
                         f"power {exp} may need {bits}-bit coefficients, over the budget "
                         f"of {lang.POWER_BIT_BUDGET}")
    if mono:
        return {tuple(n * x for x in e): c ** n}
    work = n * bound * len(atom)
    if work > lang.POWER_WORK_BUDGET:
        raise ParseError(tok.line, tok.col,
                         f"power {exp} may take {work} term products, over the budget "
                         f"of {lang.POWER_WORK_BUDGET}")
    return (LaurentPoly(ctx.variables, atom) ** n).terms


def _ref_int(text: str, tok: _Token) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(tok.line, tok.col,
                         f"integer literal of {len(text)} digits is too long") from None


def _ref_signed_int(cur: _Cursor) -> int:
    t = cur.peek()
    sign = 1
    if t is not None and t.text == "-":
        cur.next()
        sign = -1
    tok = cur.expect(kind="int", expected=("integer",))
    return sign * _ref_int(tok.text, tok)


def _ref_atom(cur: _Cursor, ctx: _RefContext) -> dict:
    t = cur.peek()
    want = ("number", "variable", "parameter", "'zeta'", "'('")
    if t is None:
        raise ParseError(cur.line_no, cur.line_len + 1, "unexpected end of line", want)
    if t.text == "(":
        cur.next()
        inner = _ref_expr(cur, ctx)
        cur.expect(")")
        return inner
    if t.kind == "rational":
        cur.next()
        num, den = (_ref_int(part, t) for part in t.text.split("/"))
        if den == 0:
            raise ParseError(t.line, t.col, f"zero denominator in {t.text}")
        return {ctx.zero: Fraction(num, den)} if num else {}
    if t.kind == "int":
        cur.next()
        value = _ref_int(t.text, t)
        return {ctx.zero: Fraction(value)} if value else {}
    if t.kind == "ident":
        cur.next()
        name = t.text
        if name == "zeta":
            if not ctx.zeta_order:
                raise ParseError(t.line, t.col,
                                 "zeta used but no cyclotomic order declared "
                                 "(add a zeta or group line)")
            return {ctx.zero: Cyclotomic.zeta(ctx.zeta_order)}
        if name in ctx.units:
            return {ctx.units[name]: _REF_ONE}
        if name in ctx.param_coeffs:
            return {ctx.zero: ctx.param_coeffs[name]}
        raise ParseError(t.line, t.col, f"unknown identifier {name!r}", want)
    raise ParseError(t.line, t.col, f"unexpected token {t.text!r}", want)


def reference_parse_poly(text: str, variables, params=(), zeta_order=None) -> LaurentPoly:
    """``lang.parse_poly`` by the recursive-descent parser it replaced."""
    cur = _Cursor(_ref_tokenize(text, 1), 1, len(text))
    ctx = _RefContext(variables, params, zeta_order)
    terms = _ref_expr(cur, ctx)
    cur.require_end()
    return LaurentPoly(ctx.variables, terms)
