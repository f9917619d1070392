"""Sparse multivariate Laurent polynomials over exact coefficient domains.

A polynomial carries its full tuple of ambient variable names and a mapping
from integer exponent vectors (negative entries allowed) to nonzero
coefficients.  Coefficients may be Fraction, Cyclotomic, FpElem, or
ParamCoeff, which is itself a LaurentPoly over the parameter symbols with
Fraction or Cyclotomic coefficients, so that the one product kernel below
multiplies both; domains are never mixed implicitly, conversions go through
``specialize_params`` / ``reduce_mod``.

Canonical term order is graded lexicographic, largest first.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add, mul, sub

from .coeffs import Cyclotomic, FpElem, ParamCoeff, _reduce_vector, cyclotomic_polynomial, \
    euler_phi, specialize, to_prime_field


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
    def _raw(cls, variables: tuple, terms: dict) -> LaurentPoly:
        """A polynomial on terms known to be clean: nonzero coefficients of
        its domain on exponent tuples of the right length, as ``__init__``
        leaves them."""
        p = object.__new__(cls)
        p.vars, p.terms = variables, terms
        return p

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
        if isinstance(other, int):  # a constant of this polynomial's domain
            c = next(iter(self.terms.values()), None)
            return LaurentPoly.constant(self.vars, FpElem(c.p, other)
                                        if isinstance(c, FpElem) else other)
        if isinstance(other, (Fraction, Cyclotomic, FpElem, ParamCoeff)):
            return LaurentPoly.constant(self.vars, other)
        return None

    def _plus(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        if self.terms and o.terms:  # one coefficient shows each side's domain
            _domain([next(iter(self.terms.values())), next(iter(o.terms.values()))])
        acc = dict(self.terms)
        for e, c in o.terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return LaurentPoly._raw(self.vars, acc)

    def _negated(self):
        return LaurentPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return self._plus(o._negated())

    def __rsub__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return o._plus(self._negated())

    def _times(self, other):
        """A one-term factor shifts and scales the other; two multi-term
        factors are multiplied out by ``_expand``."""
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        mono, rest = (o, self) if len(o.terms) == 1 else (self, o)
        if len(mono.terms) == 1:
            (m, cm), = mono.terms.items()
            return LaurentPoly._raw(self.vars, {tuple(map(add, e, m)): c * cm
                                                for e, c in rest.terms.items()})
        return _formal_product([(self, 1), (o, 1)])

    def _power(self, n: int):
        if n == 0:  # the unit of the operand's domain
            unit = next(iter(self.terms.values()), Fraction(1)) ** 0
            return LaurentPoly._raw(self.vars, {(0,) * len(self.vars): unit})
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return LaurentPoly._raw(self.vars, {tuple(n * x for x in e): c ** n})
        if n < 0:
            raise ValueError("negative powers only for monomials")
        return _formal_product([(self, n)])

    # bench/tracer.py wraps the public names; ParamCoeff calls the private
    # ones, so that its arithmetic counts as coefficient operations, not as
    # polynomial products nested in them
    __add__ = __radd__ = _plus
    __neg__ = _negated
    __mul__ = __rmul__ = _times
    __pow__ = _power

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

    def _at(self, point):
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

    evaluate = _at  # coeffs.specialize calls _at, as ParamCoeff calls _plus above

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
    if set(map(type, scalars)) == {Fraction}:
        return None, None, None
    inner = [a for c in scalars
             for a in (c.poly.terms.values() if isinstance(c, ParamCoeff) else [c])]
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


def _parts(items, n_params: int) -> list:
    """[(exponents + parameter exponents, zeta power, rational or int
    value)] of some (exponents, scalar) pairs: one entry per nonzero
    rational component of each scalar."""
    tail = (0,) * n_params
    out = []
    for ex, c in items:
        if isinstance(c, Cyclotomic):
            out += [(ex + tail, j, v) for j, v in enumerate(c.coeffs) if v]
        elif isinstance(c, ParamCoeff):
            out += _parts([(ex + pe, a) for pe, a in c.poly.terms.items()], 0)
        else:
            out.append((ex + tail, 0, c.value if isinstance(c, FpElem) else c))
    return out


def _box(parts):
    """Per-slot minimum and maximum over the slot tuples of some parts."""
    cols = list(zip(*(s for s, _, _ in parts)))
    return list(map(min, cols)), list(map(max, cols))


def _pmul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _radix(order: int, bound: int) -> tuple[int, int]:
    """(B, N) for the least B = 2^b at which ``_digits`` recovers every
    vector v of phi(order) integers at most ``bound`` in absolute value from
    sum_j v_j * B^j mod N = Phi_order(B): B > 2 * bound makes each v_j a
    balanced digit, 2 * bound * (B^phi - 1) / (B - 1) < N the sum a residue."""
    phi, b = euler_phi(order), (2 * bound).bit_length()
    while True:
        B = 1 << b
        N = sum(c * B ** i for i, c in enumerate(cyclotomic_polynomial(order)))
        if 2 * bound * (B ** phi - 1) < N * (B - 1):
            return B, N
        b += 1


def _digits(x: int, B: int, N: int, phi: int) -> list[int]:
    """The phi balanced base-B digits, lowest first, of the balanced residue
    of x in [0, N); the last digit takes what the others leave."""
    if 2 * x > N:
        x -= N
    out = []
    for _ in range(phi - 1):
        out.append((x + B // 2) % B - B // 2)
        x = (x - out[-1]) // B
    return out + [x]


def _share(terms: dict, hats: list, split: bool) -> tuple[int, tuple | None]:
    """(j, m) for a multi-term image x^m * hats[j], m None for x^0.  Split,
    m is the per-variable minimum exponent and an equal hat already in
    ``hats`` is reused; otherwise the hat is appended."""
    m, hat = None, terms
    if split:
        m = tuple(map(min, *terms))
        if any(m):
            hat = {tuple(map(sub, e, m)): c for e, c in terms.items()}
        else:
            m = None
        for j, h in enumerate(hats):
            if h == hat:
                return j, m
    hats.append(hat)
    return len(hats) - 1, m


def _expand(F: LaurentPoly, images: dict, target_vars) -> LaurentPoly:
    """Sum over the terms c*x^e of F of c * prod_i images[x_i]^e_i, exactly.

    Monomial images fold into the term scalars by coefficient arithmetic,
    negative powers included; zero images kill their terms.  When F has
    more than one live term, every other image is split as x^m * hat, m its
    per-variable minimum exponent, and images with equal hats share one
    packed table, denominator scale, exponent box and ladder of powers;
    x^(k*m) joins the term's exponent shift like a monomial image.  Hats
    are compared by value: the domain, which sets the result's coefficient
    types, is read from every image before sharing, so a rational
    Cyclotomic hat may stand for a Fraction one.  Terms with one signature,
    the sorted (hat, total exponent) pairs, merge their shifted scalars
    into one cofactor, which multiplies their product of hat powers once.

    The products run on Kronecker-packed integer keys (Monagan & Pearce,
    Maple 14, 2009): one slot per target variable and parameter symbol, each
    with a radix spanning the exponent range the expansion can reach, so
    Laurent exponents decode exactly.  Denominators are cleared per hat into
    the cofactors, which share one denominator.  Over Q(zeta_e) the power of
    zeta rides in the value: zeta -> B = 2^b maps Z[zeta_e] onto Z/N, N =
    Phi_e(B), and each rung and product is reduced mod N (over F_p, N = p).
    Every entry of a true sum is at most M = R_e * the sum over signatures
    of |cofactor|_1 * prod_j |hat_j|_1^k, L1 norms of cleared integer parts
    and R_e the largest of a reduced zeta^z; ``_radix`` takes the least b at
    which such a sum's balanced residue mod N splits into balanced base-B
    digits, its coefficients in 1, zeta, ..., zeta^(phi-1).  Only keys that
    survive the sum are decoded.  The result's coefficients lie in the
    inputs' common domain: Q, Q(zeta_e), parameters over either, or F_p.
    """
    n = len(target_vars)
    zero = (0,) * n
    terms = []  # (scalar, exponent shift, [(name, k) of non-monomial images])
    for e, c in F.terms.items():
        scalar, shift, factors, dead = c, zero, [], False
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
                shift = tuple([a + k * b for a, b in zip(shift, m)])
        if not dead:
            terms.append((scalar, shift, factors))
    if not terms:
        return LaurentPoly.zero(target_vars)

    # a lone term has no product to share, so its images stay whole
    split = len(terms) > 1
    hats, hat_of, groups = [], {}, {}  # hat_of[name] = (j, m); signature -> [(shift, scalar)]
    for scalar, shift, factors in terms:
        sig = {}
        for name, k in factors:
            if name not in hat_of:
                hat_of[name] = _share(images[name].terms, hats, split)
            j, m = hat_of[name]
            sig[j] = sig.get(j, 0) + k
            if m is not None:
                shift = tuple([a + k * b for a, b in zip(shift, m)])
        groups.setdefault(tuple(sorted(sig.items())), []).append((shift, scalar))
    order, prime, symbols = _domain(
        [s for s, _, _ in terms] + [c for name in hat_of for c in images[name].terms.values()])
    n_params = len(symbols or ())

    # hats with cleared denominators, cofactor scalars still rational, and
    # the exponent box each group can reach
    scale, hat_ints, hat_box = [], [], []
    for hat in hats:
        parts = _parts(hat.items(), n_params)
        d = lcm(*(v.denominator for _, _, v in parts))
        scale.append(d)
        hat_ints.append([(s, z, v.numerator * (d // v.denominator)) for s, z, v in parts])
        hat_box.append(_box(parts))
    cofactors, lo, hi = [], None, None
    for sig, members in groups.items():
        s_scale = prod(scale[j] ** k for j, k in sig)
        parts = _parts(members, n_params)
        if s_scale != 1:
            parts = [(s, z, Fraction(v) / s_scale) for s, z, v in parts]
        cofactors.append(parts)
        t_lo, t_hi = _box(parts)
        for j, k in sig:
            i_lo, i_hi = hat_box[j]
            t_lo = [a + k * b for a, b in zip(t_lo, i_lo)]
            t_hi = [a + k * b for a, b in zip(t_hi, i_hi)]
        lo = t_lo if lo is None else list(map(min, lo, t_lo))
        hi = t_hi if hi is None else list(map(max, hi, t_hi))
    radices = [b - a + 1 for a, b in zip(lo, hi)]
    weights = [prod(radices[:j]) for j in range(len(radices))]
    den = lcm(*(v.denominator for parts in cofactors for _, _, v in parts))
    cofactors = [[(s, z, v.numerator * (den // v.denominator)) for s, z, v in parts]
                 for parts in cofactors]

    B, N = 1, prime  # F_p values are residues mod p on every rung
    if order is not None:
        norm = [sum(abs(v) for _, _, v in ps) for ps in hat_ints + cofactors]
        R = max(sum(map(abs, _reduce_vector(order, [0] * z + [1]))) for z in range(order))
        B, N = _radix(order, R * sum(norm[len(hats) + g] * prod(norm[j] ** k for j, k in sig)
                                     for g, sig in enumerate(groups)))

    def key(s):
        return sum(map(mul, s, weights))

    def fold(table: dict) -> dict:  # residues mod N, zeros dropped
        return {k: r for k, v in table.items() if (r := v % N)} if N else table

    def pack(parts) -> dict:
        table: dict[int, int] = {}
        for s, z, v in parts:
            k = key(s)
            table[k] = table.get(k, 0) + v * B ** z
        return fold(table)

    powers = [[pack(ps)] for ps in hat_ints]  # powers[j][k - 1]
    total: dict[int, int] = {}
    get = total.get
    for sig, parts in zip(groups, cofactors):
        product = {0: 1}
        for i, (j, k) in enumerate(sig):
            pows = powers[j]
            while len(pows) < k:
                pows.append(fold(_pmul(pows[-1], pows[0])))
            product = pows[k - 1] if not i else fold(_pmul(product, pows[k - 1]))
        for sk, sv in pack(parts).items():
            for k, pv in product.items():
                k += sk
                total[k] = get(k, 0) + sv * pv

    def value(x):  # a numerator over den, or a residue mod the prime
        if prime is not None:
            return FpElem(prime, x)
        return Fraction(x // den) if not x % den else Fraction(x, den)

    # decode the nonzero sums: monomial + parameter exponents -> scalar
    off = key(lo)
    slots = list(zip(weights, radices, lo))
    out: dict = {}
    for k, v in total.items():
        if N:
            v %= N
        if v:
            k -= off
            d = tuple([k // w % r + a for w, r, a in slots])
            out[d] = value(v) if order is None else Cyclotomic(
                order, tuple(map(value, _digits(v, B, N, euler_phi(order)))))
    if symbols is not None:
        by_mono: dict = {}
        for d, c in out.items():
            by_mono.setdefault(d[:n], {})[d[n:]] = c
        out = {mono: ParamCoeff(LaurentPoly._raw(symbols, pcs)) for mono, pcs in by_mono.items()}
    return LaurentPoly._raw(target_vars, out)


def _formal_product(factors: list[tuple[LaurentPoly, int]]) -> LaurentPoly:
    """prod f ** k over the (f, k) in factors, k >= 1: ``_expand`` of one
    formal monomial whose coefficient is the one of the first factor's
    domain, so that F_p factors stay in F_p."""
    if not all(f.terms for f, _ in factors):
        return LaurentPoly._raw(factors[0][0].vars, {})
    unit = next(iter(factors[0][0].terms.values())) ** 0
    names = tuple(f"f{i}" for i in range(len(factors)))
    formal = LaurentPoly._raw(names, {tuple(k for _, k in factors): unit})
    return _expand(formal, dict(zip(names, (f for f, _ in factors))), factors[0][0].vars)


# ---------------------------------------------------------------------------
# exact division and gcd over a field coefficient domain
# ---------------------------------------------------------------------------

def divide_exact(a: LaurentPoly, b: LaurentPoly):
    """Exact multivariate division a / b of polynomials (field
    coefficients), or None."""
    if a.vars != b.vars:
        raise ValueError("variable sets differ")
    if not (a.is_polynomial() and b.is_polynomial()):
        raise ValueError("exact division requires polynomials")
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

    The trivial cases come first, as in sympy's ``PolyElement.cofactors``:
    the gcd is x^min(m_a, m_b) times the gcd of what is left of a = x^m_a *
    a' and b = x^m_b * b', and that is the operand of lower degree (fewer
    terms on ties) when it divides the other.  Only the remaining pairs run
    the primitive pseudo-remainder sequence, whose contents come back here.
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
    (ma, a), (mb, b) = a.monomial_content(), b.monomial_content()
    low, high = sorted((a, b), key=lambda p: (p.total_degree(), len(p.terms)))
    g = _monic(low if divide_exact(high, low) is not None else _gcd_prs(a, b))
    m = tuple(map(min, ma, mb))
    return LaurentPoly._raw(g.vars, {tuple(map(add, e, m)): c for e, c in g.terms.items()})


def _monic(p: LaurentPoly) -> LaurentPoly:
    if not p:
        return p
    lc = p.sorted_terms()[0][1]
    return p.map_coeffs(lambda c: c / lc)


def _gcd_prs(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The primitive PRS (Brown, J. ACM 1971) of two nonzero polynomials in
    the first variable either involves, the other variables in the
    coefficients: gcd(a, b) = gcd(cont a, cont b) * the last nonzero
    remainder, each remainder made primitive.  Up to a scalar.  A of lower
    degree than B is its own remainder, so the first round orders the pair."""
    v = next(i for i in range(a.n_vars) if any(e[i] for e in (*a.terms, *b.terms)))
    (A, ca), (B, cb) = _primitive(_as_univariate(a, v)), _primitive(_as_univariate(b, v))
    while R := _pseudo_rem(A, B):
        A, B = B, _primitive(R)[0]
    return poly_gcd(ca, cb) * _from_univariate(B, v, a.vars)


def _primitive(U: dict[int, LaurentPoly]) -> tuple[dict[int, LaurentPoly], LaurentPoly]:
    """(U / c, c) for c the monic gcd of U's coefficients."""
    c = None
    for p in U.values():
        c = _monic(p) if c is None else poly_gcd(c, p)
        if not c.total_degree():
            break
    out = {k: divide_exact(p, c) for k, p in U.items()}
    if None in out.values():
        raise ArithmeticError("content division failed")
    return out, c


def _pseudo_rem(A: dict[int, LaurentPoly], B: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """Remainder of lc(B)^k * A modulo B, both univariate with polynomial
    coefficients."""
    db = max(B)
    lb = B[db]
    while A and (da := max(A)) >= db:
        la = A[da]
        # A = lb*A - la * x^(da-db) * B
        new = {k: lb * p for k, p in A.items()}
        for k, p in B.items():
            k += da - db
            new[k] = new[k] - la * p if k in new else -(la * p)
        A = {k: p for k, p in new.items() if p}
    return A


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
        for e, a in c.poly.sorted_terms():
            a_str = scalar_str(a)
            factors = [a_str] if a_str != "1" or not any(e) else []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(c.symbols[i])
                elif k:
                    factors.append(f"{c.symbols[i]}^{k}")
            parts.append("*".join(factors))
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
