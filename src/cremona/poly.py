"""Sparse multivariate Laurent polynomials over exact coefficient domains.

A polynomial carries its full tuple of ambient variable names and a mapping
from integer exponent vectors (negative entries allowed) to nonzero
coefficients.  Coefficients may be Fraction, Cyclotomic, FpElem, or
ParamCoeff; domains are never mixed implicitly, conversions go through
``specialize_params`` / ``reduce_mod``.

Canonical term order is graded lexicographic, largest first.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add

from .coeffs import Cyclotomic, FpElem, ParamCoeff, _reduce_vector, euler_phi, specialize, \
    to_prime_field


def term_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def _wrap_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


class LaurentPoly:
    """Sparse Laurent polynomial with exact coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: dict):
        self.vars = tuple(variables)
        clean = {}
        for e, c in terms.items():
            c = _wrap_coeff(c)
            if c:
                if len(e) != len(self.vars):
                    raise ValueError("exponent length does not match variable count")
                clean[tuple(e)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> LaurentPoly:
        return cls(variables, {})

    @classmethod
    def one(cls, variables) -> LaurentPoly:
        return cls(variables, {(0,) * len(variables): Fraction(1)})

    @classmethod
    def constant(cls, variables, c) -> LaurentPoly:
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def monomial(cls, variables, exps, coeff=1) -> LaurentPoly:
        return cls(variables, {tuple(exps): coeff})

    @classmethod
    def variable(cls, variables, name: str) -> LaurentPoly:
        idx = variables.index(name)
        e = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {e: Fraction(1)})

    # -- basic structure --------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.vars)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: term_key(t[0]), reverse=True)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(self.sorted_terms())))

    def __repr__(self):
        return f"LaurentPoly({self.vars!r}, {poly_str(self)!r})"

    def __str__(self):
        return poly_str(self)

    # -- ring operations ---------------------------------------------------------

    def _check_compat(self, other: LaurentPoly):
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    def _as_poly(self, other):
        if isinstance(other, LaurentPoly):
            self._check_compat(other)
            return other
        if isinstance(other, (int, Fraction, Cyclotomic, FpElem, ParamCoeff)):
            return LaurentPoly.constant(self.vars, other)
        return None

    def __add__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in o.terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return LaurentPoly(self.vars, acc)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        """A one-term factor shifts and scales the other; two multi-term
        factors are multiplied out by ``_expand``."""
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        mono, rest = (o, self) if len(o.terms) == 1 else (self, o)
        if len(mono.terms) == 1:
            (m, cm), = mono.terms.items()
            return LaurentPoly(self.vars, {tuple(map(add, e, m)): c * cm
                                           for e, c in rest.terms.items()})
        return _formal_product([(self, 1), (o, 1)])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n == 0:
            return LaurentPoly.one(self.vars)
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return LaurentPoly(self.vars, {tuple(n * x for x in e): c ** n})
        if n < 0:
            raise ValueError("negative powers only for monomials")
        return _formal_product([(self, n)])

    # -- degrees -----------------------------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial")
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self):
        """The common total degree of all terms, or None."""
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def is_polynomial(self) -> bool:
        return all(k >= 0 for e in self.terms for k in e)

    def deg_in_var(self, i: int) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial")
        return max(e[i] for e in self.terms)

    def min_deg_in_var(self, i: int) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial")
        return min(e[i] for e in self.terms)

    # -- chart operations ---------------------------------------------------------

    def dehomogenize(self, chart: int) -> LaurentPoly:
        """Set the chart variable to 1.  Requires a homogeneous polynomial."""
        if self.homogeneous_degree() is None:
            raise ValueError("dehomogenize requires a homogeneous polynomial")
        out = {}
        for e, c in self.terms.items():
            e2 = tuple(0 if i == chart else k for i, k in enumerate(e))
            out[e2] = c  # no collisions: F homogeneous
        return LaurentPoly(self.vars, out)

    def homogenize(self, chart: int) -> tuple[LaurentPoly, int]:
        """Clear the chart variable in minimally: result homogeneous, chart does
        not divide it, and setting chart = 1 recovers the input.
        """
        if not self.terms:
            raise ValueError("cannot homogenize the zero polynomial")
        if not self.is_polynomial():
            raise ValueError("homogenize requires nonnegative exponents")
        if any(e[chart] for e in self.terms):
            raise ValueError("input already involves the chart variable")
        d = self.total_degree()
        out = {}
        for e, c in self.terms.items():
            e2 = tuple(d - sum(e) if i == chart else k for i, k in enumerate(e))
            out[e2] = c
        return LaurentPoly(self.vars, out), d

    # -- calculus / content ---------------------------------------------------------

    def partial_deriv(self, i: int) -> LaurentPoly:
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = tuple(k - 1 if j == i else k for j, k in enumerate(e))
                out[e2] = c * e[i]
        return LaurentPoly(self.vars, out)

    def monomial_content(self) -> tuple[tuple[int, ...], LaurentPoly]:
        """Write self = x^m * phat with every variable hitting exponent 0 in phat."""
        if not self.terms:
            raise ValueError("content of the zero polynomial")
        exps = list(self.terms)
        m = tuple(min(e[i] for e in exps) for i in range(self.n_vars))
        out = {tuple(a - b for a, b in zip(e, m)): c for e, c in self.terms.items()}
        return m, LaurentPoly(self.vars, out)

    # -- coefficient-domain conversions ------------------------------------------------

    def map_coeffs(self, fn) -> LaurentPoly:
        return LaurentPoly(self.vars, {e: fn(c) for e, c in self.terms.items()})

    def specialize_params(self, assignment: dict) -> LaurentPoly:
        return self.map_coeffs(lambda c: specialize(c, assignment))

    def reduce_mod(self, p: int) -> LaurentPoly:
        return self.map_coeffs(lambda c: to_prime_field(c, p))

    # -- evaluation / substitution ---------------------------------------------------

    def evaluate(self, point):
        """Exact evaluation at a point of scalars; poles raise ZeroDivisionError."""
        if len(point) != self.n_vars:
            raise ValueError("point length mismatch")
        vals = [Fraction(v) if isinstance(v, int) else v for v in point]
        acc = None
        for e, c in self.terms.items():
            t = c
            for i, k in enumerate(e):
                if k == 0:
                    continue
                v = vals[i]
                if k < 0 and not v:
                    raise ZeroDivisionError(f"pole at zero coordinate {self.vars[i]}")
                t = t * (v ** k if k > 0 else (1 / v) ** (-k))
            acc = t if acc is None else acc + t
        if acc is None:
            return Fraction(0)
        return acc

    def substitute(self, images: dict[str, LaurentPoly]) -> LaurentPoly:
        """Substitute polynomials for variables (the one exact expansion, see
        ``_expand``); negative exponents need single-monomial images."""
        target_vars = None
        for img in images.values():
            if target_vars is None:
                target_vars = img.vars
            elif img.vars != target_vars:
                raise ValueError("substitution images live in different ambients")
        if target_vars is None:
            raise ValueError("empty substitution")
        return _expand(self, images, target_vars)


# ---------------------------------------------------------------------------
# exact expansion on packed integer keys
# ---------------------------------------------------------------------------

def _domain(scalars):
    """(cyclotomic order, prime, parameter symbols) shared by the scalars,
    each None when absent."""
    inner = [a for c in scalars
             for a in ([a for _, a in c.terms] if isinstance(c, ParamCoeff) else [c])]
    orders = {a.order for a in inner if isinstance(a, Cyclotomic)}
    primes = {a.p for a in inner if isinstance(a, FpElem)}
    symbols = {c.symbols for c in scalars if isinstance(c, ParamCoeff)}
    for what, found in (("cyclotomic order", orders), ("prime field", primes),
                        ("parameter symbol", symbols)):
        if len(found) > 1:
            raise ValueError(f"{what} mismatch: {sorted(found)}")
    if primes and not all(isinstance(a, FpElem) for a in inner):
        raise TypeError(f"F_{min(primes)} coefficients mixed with exact ones")
    return (min(orders, default=None), min(primes, default=None),
            min(symbols, default=None))


def _coeff_parts(c, n_params: int):
    """[(parameter exponents + (zeta power,), rational or int value)] of a scalar."""
    if isinstance(c, ParamCoeff):
        return [(pe + z, v) for pe, a in c.terms for z, v in _coeff_parts(a, 0)]
    pad = (0,) * n_params
    if isinstance(c, Cyclotomic):
        return [(pad + (j,), v) for j, v in enumerate(c.coeffs) if v]
    return [(pad + (0,), c.value if isinstance(c, FpElem) else c)]


def _box(parts):
    """Per-slot minimum and maximum over the slot tuples of some parts."""
    cols = list(zip(*(s for s, _ in parts)))
    return [min(col) for col in cols], [max(col) for col in cols]


def _pmul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            s = get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _expand(F: LaurentPoly, images: dict, target_vars) -> LaurentPoly:
    """Sum over the terms c*x^e of F of c * prod_i images[x_i]^e_i, exactly.

    Monomial images fold into the term scalars by coefficient arithmetic,
    negative powers included; zero images kill their terms.  The others are
    multiplied out on Kronecker-packed integer keys (Monagan & Pearce, Maple
    14, 2009): one slot per target variable, parameter symbol and the zeta
    power, each with a radix spanning the exponent range the expansion can
    reach, so Laurent exponents decode exactly.  Denominators are cleared per
    image into the term scalars, which share one denominator.  Only keys that
    survive the sum are zeta-folded and decoded.  The result's coefficients
    lie in the inputs' common domain: Q, Q(zeta_e), parameters over either,
    or F_p.
    """
    n = len(target_vars)
    terms = []  # (scalar, exponent shift, [(name, k) of non-monomial images])
    for e, c in F.terms.items():
        scalar, shift, factors, dead = c, (0,) * n, [], False
        for name, k in zip(F.vars, e):
            if not k:
                continue
            if name not in images:
                raise ValueError(f"no image given for variable {name}")
            img = images[name]
            if len(img.terms) != 1:
                if k < 0:
                    raise ValueError(f"negative power of non-monomial image for {name}")
                dead = dead or not img.terms
                factors.append((name, k))
            else:
                (m, cm), = img.terms.items()
                scalar = scalar * cm ** k
                shift = tuple(a + k * b for a, b in zip(shift, m))
        if not dead:
            terms.append((scalar, shift, factors))
    if not terms:
        return LaurentPoly.zero(target_vars)
    used = list(dict.fromkeys(name for _, _, factors in terms for name, _ in factors))
    order, prime, symbols = _domain(
        [s for s, _, _ in terms] + [c for name in used for c in images[name].terms.values()])
    n_params = len(symbols or ())

    # images with cleared denominators, term scalars still rational, and the
    # exponent box each term can reach
    image_ints, scale, image_box = {}, {}, {}
    for name in used:
        parts = [(ex + s, v) for ex, c in images[name].terms.items()
                 for s, v in _coeff_parts(c, n_params)]
        d = scale[name] = lcm(*(v.denominator for _, v in parts))
        image_ints[name] = [(s, v.numerator * (d // v.denominator)) for s, v in parts]
        image_box[name] = _box(parts)
    scalars, lo, hi = [], None, None
    for scalar, shift, factors in terms:
        s_scale = prod(scale[name] ** k for name, k in factors)
        parts = [(shift + s, Fraction(v) / s_scale) for s, v in _coeff_parts(scalar, n_params)]
        scalars.append(parts)
        t_lo, t_hi = _box(parts)
        for name, k in factors:
            i_lo, i_hi = image_box[name]
            t_lo = [a + k * b for a, b in zip(t_lo, i_lo)]
            t_hi = [a + k * b for a, b in zip(t_hi, i_hi)]
        lo = t_lo if lo is None else list(map(min, lo, t_lo))
        hi = t_hi if hi is None else list(map(max, hi, t_hi))
    radices = [b - a + 1 for a, b in zip(lo, hi)]
    weights = [prod(radices[:j]) for j in range(len(radices))]

    def key(s):
        return sum(x * w for x, w in zip(s, weights))

    den = lcm(*(v.denominator for parts in scalars for _, v in parts))
    packed = {name: {key(s): v for s, v in ps} for name, ps in image_ints.items()}
    powers = {name: [p] for name, p in packed.items()}  # powers[name][k - 1]

    total: dict[int, int] = {}
    for parts, (_, _, factors) in zip(scalars, terms):
        product = {0: 1}
        for j, (name, k) in enumerate(factors):
            pows = powers[name]
            while len(pows) < k:
                pows.append(_pmul(pows[-1], pows[0]))
            product = pows[k - 1] if not j else _pmul(product, pows[k - 1])
        for s, v in parts:
            sk = key(s)
            sv = v.numerator * (den // v.denominator)
            for k, pv in product.items():
                k += sk
                t = total.get(k, 0) + sv * pv
                if t:
                    total[k] = t
                else:
                    del total[k]

    # fold the zeta power (the top slot) of the surviving keys
    off, wz = key(lo), weights[-1]
    reduced: dict[int, int] = {}
    for k, v in total.items():
        z, rest = divmod(k - off, wz)
        vec = (v,) if order is None else \
            _reduce_vector(order, [0] * ((z + lo[-1]) % order) + [v])
        for j, c in enumerate(vec):
            if c:
                t = reduced.get(rest + j * wz, 0) + c
                if t:
                    reduced[rest + j * wz] = t
                else:
                    del reduced[rest + j * wz]

    # decode: monomial -> parameter exponents -> zeta power vector
    phi = euler_phi(order) if order is not None else 1
    out: dict = {}
    for k, v in reduced.items():
        digits = []
        for r, a in zip(radices[:-1], lo):
            k, d = divmod(k, r)
            digits.append(d + a)
        by_param = out.setdefault(tuple(digits[:n]), {})
        by_param.setdefault(tuple(digits[n:]), [0] * phi)[k] = v  # k: the zeta power

    def scalar_of(vec):
        if prime is not None:
            return FpElem(prime, vec[0])
        vals = tuple(Fraction(x, den) for x in vec)
        return vals[0] if order is None else Cyclotomic(order, vals)

    return LaurentPoly(target_vars, {
        mono: scalar_of(by_param[()]) if symbols is None else
        ParamCoeff._make(symbols, {pe: scalar_of(vec) for pe, vec in by_param.items()})
        for mono, by_param in out.items()})


def _formal_product(factors: list[tuple[LaurentPoly, int]]) -> LaurentPoly:
    """prod f ** k over the (f, k) in factors, k >= 1: ``_expand`` of one
    formal monomial whose coefficient is the one of the first factor's
    domain, so that F_p factors stay in F_p."""
    if not all(f.terms for f, _ in factors):
        return LaurentPoly.zero(factors[0][0].vars)
    unit = next(iter(factors[0][0].terms.values())) ** 0
    names = tuple(f"f{i}" for i in range(len(factors)))
    formal = LaurentPoly(names, {tuple(k for _, k in factors): unit})
    return _expand(formal, dict(zip(names, (f for f, _ in factors))), factors[0][0].vars)


# ---------------------------------------------------------------------------
# exact division and gcd over a field coefficient domain
# ---------------------------------------------------------------------------

def divide_exact(a: LaurentPoly, b: LaurentPoly):
    """Exact multivariate division a / b (field coefficients), or None."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return LaurentPoly.zero(a.vars)
    rem = dict(a.terms)
    out: dict = {}
    b_terms = b.sorted_terms()
    (eb, cb) = b_terms[0]
    while rem:
        ea, ca = max(rem.items(), key=lambda t: term_key(t[0]))
        e = tuple(x - y for x, y in zip(ea, eb))
        if any(k < 0 for k in e):
            return None
        q = ca / cb
        out[e] = out.get(e, 0) + q
        for eb2, cb2 in b_terms:
            key = tuple(x + y for x, y in zip(e, eb2))
            s = rem.get(key, 0) - q * cb2
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return LaurentPoly(a.vars, out)


def _leading_coeff(p: LaurentPoly):
    e, c = p.sorted_terms()[0]
    return c


def _as_univariate(p: LaurentPoly, i: int) -> dict[int, LaurentPoly]:
    out: dict[int, dict] = {}
    for e, c in p.terms.items():
        k = e[i]
        e2 = tuple(0 if j == i else x for j, x in enumerate(e))
        out.setdefault(k, {})[e2] = c
    return {k: LaurentPoly(p.vars, d) for k, d in out.items()}


def _from_univariate(coeffs: dict[int, LaurentPoly], i: int, variables) -> LaurentPoly:
    acc: dict = {}
    for k, poly in coeffs.items():
        for e, c in poly.terms.items():
            e2 = tuple(k if j == i else x for j, x in enumerate(e))
            acc[e2] = c
    return LaurentPoly(variables, acc)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd of two polynomials over a field coefficient domain.

    Primitive pseudo-remainder sequence, recursing on the variable count.
    The result is normalized with leading coefficient 1.
    """
    if a.vars != b.vars:
        raise ValueError("variable sets differ")
    if not a:
        return _monic(b) if b else b
    if not b:
        return _monic(a)
    if not (a.is_polynomial() and b.is_polynomial()):
        raise ValueError("gcd requires polynomials")
    used = [i for i in range(a.n_vars)
            if any(e[i] for e in a.terms) or any(e[i] for e in b.terms)]
    if not used:
        return LaurentPoly.one(a.vars)
    return _monic(_gcd_rec(a, b, used))


def _monic(p: LaurentPoly) -> LaurentPoly:
    if not p:
        return p
    lc = _leading_coeff(p)
    return p.map_coeffs(lambda c: c / lc)


def _gcd_rec(a: LaurentPoly, b: LaurentPoly, used: list[int]) -> LaurentPoly:
    if not a:
        return b
    if not b:
        return a
    if len(used) == 0:
        return LaurentPoly.one(a.vars)
    if len(used) == 1:
        return _gcd_univar(a, b, used[0])
    v = used[0]
    rest = used[1:]

    ua, ub = _as_univariate(a, v), _as_univariate(b, v)
    ca = _content(list(ua.values()), rest)
    cb = _content(list(ub.values()), rest)
    cont = _gcd_rec(ca, cb, rest)
    pa = _from_univariate({k: _must_divide(p, ca) for k, p in ua.items()}, v, a.vars)
    pb = _from_univariate({k: _must_divide(p, cb) for k, p in ub.items()}, v, a.vars)

    # primitive PRS on the primitive parts, univariate in v
    A, B = pa, pb
    while True:
        da = A.deg_in_var(v) if A else -1
        db = B.deg_in_var(v) if B else -1
        if db < 0:
            g = A
            break
        if da < db:
            A, B = B, A
            continue
        R = _pseudo_rem(A, B, v)
        if not R:
            g = B
            break
        uR = _as_univariate(R, v)
        cR = _content(list(uR.values()), rest)
        R = _from_univariate({k: _must_divide(p, cR) for k, p in uR.items()}, v, a.vars)
        A, B = B, R
    ug = _as_univariate(g, v)
    cg = _content(list(ug.values()), rest)
    pp = _from_univariate({k: _must_divide(p, cg) for k, p in ug.items()}, v, a.vars)
    return cont * pp


def _content(polys: list[LaurentPoly], used: list[int]) -> LaurentPoly:
    acc = polys[0]
    for p in polys[1:]:
        acc = _gcd_rec(acc, p, used)
        if acc.homogeneous_degree() == 0:
            break
    return _monic(acc)


def _must_divide(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q = divide_exact(a, b)
    if q is None:
        raise ArithmeticError("content division failed")
    return q


def _gcd_univar(a: LaurentPoly, b: LaurentPoly, v: int) -> LaurentPoly:
    A, B = a, b
    while B:
        da = A.deg_in_var(v) if A else -1
        db = B.deg_in_var(v)
        if da < db:
            A, B = B, A
            continue
        A, B = B, _pseudo_rem(A, B, v)
    return A


def _pseudo_rem(A: LaurentPoly, B: LaurentPoly, v: int) -> LaurentPoly:
    """Remainder of lc(B)^k * A modulo B, univariate in v with poly coefficients."""
    ua = _as_univariate(A, v)
    ub = _as_univariate(B, v)
    db = max(ub)
    lb = ub[db]
    rem = dict(ua)
    while rem:
        da = max(rem)
        if da < db:
            break
        la = rem[da]
        # rem = lb*rem - la * x^(da-db) * B
        new: dict[int, LaurentPoly] = {}
        for k, p in rem.items():
            new[k] = lb * p
        for k, p in ub.items():
            key = da - db + k
            q = new.get(key, LaurentPoly.zero(A.vars)) - la * p
            if q:
                new[key] = q
            else:
                new.pop(key, None)
        rem = new
    return _from_univariate(rem, v, A.vars)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def scalar_str(c) -> str:
    """Render a coefficient; multi-term values come back parenthesized."""
    if isinstance(c, int):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, Cyclotomic):
        parts = []
        for k, a in enumerate(c.coeffs):
            if not a:
                continue
            if k == 0:
                parts.append(str(a))
            else:
                z = "zeta" if k == 1 else f"zeta^{k}"
                if a == 1:
                    parts.append(z)
                elif a == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{a}*{z}")
        if not parts:
            return "0"
        body = parts[0]
        for p in parts[1:]:
            body += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        if len(parts) > 1:
            return f"({body})"
        return body
    if isinstance(c, FpElem):
        return str(c.value)
    if isinstance(c, ParamCoeff):
        parts = []
        for e, a in c.terms:
            factors = []
            a_str = scalar_str(a)
            if a_str not in ("1",) or not any(e):
                factors.append(a_str)
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(c.symbols[i])
                elif k:
                    factors.append(f"{c.symbols[i]}^{k}")
            if factors and factors[0] == "1" and len(factors) > 1:
                factors = factors[1:]
            parts.append("*".join(factors) if factors else "1")
        if not parts:
            return "0"
        body = " + ".join(parts)
        if len(parts) > 1:
            return f"({body})"
        return body
    raise TypeError(f"cannot render coefficient of type {type(c).__name__}")


def _term_str(variables, e, c) -> str:
    mono = []
    for i, k in enumerate(e):
        if k == 1:
            mono.append(variables[i])
        elif k:
            mono.append(f"{variables[i]}^{k}")
    cs = scalar_str(c)
    if not mono:
        return cs
    if cs == "1":
        return "*".join(mono)
    if cs == "-1":
        return "-" + "*".join(mono)
    return cs + "*" + "*".join(mono)


def poly_str(p: LaurentPoly) -> str:
    """Canonical plain-text rendering; round-trips through the input parser."""
    if not p.terms:
        return "0"
    parts = [_term_str(p.vars, e, c) for e, c in p.sorted_terms()]
    out = parts[0]
    for s in parts[1:]:
        if s.startswith("-") and not s.startswith("-("):
            out += " - " + s[1:]
        else:
            out += " + " + s
    return out
