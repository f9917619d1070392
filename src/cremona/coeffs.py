"""Exact coefficient arithmetic.

Four coefficient domains are supported:

* arbitrary-precision rationals (``fractions.Fraction``),
* cyclotomic numbers Q(zeta_e), reduced modulo the e-th cyclotomic polynomial,
* prime fields F_p with deterministic embeddings of roots of unity,
* polynomials in named parameters with rational or cyclotomic coefficients.

All values are immutable; operations are pure functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd


# ---------------------------------------------------------------------------
# small integer helpers
# ---------------------------------------------------------------------------

_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _PRIME_BASES
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the thirteen prime bases 2..41, which
    no odd composite below ``PRIME_TEST_BOUND`` passes (Sorenson and
    Webster, *Strong pseudoprimes to twelve prime bases*, Math. Comp. 2017).
    Larger n raise ``ValueError``."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{n} is past the primality test's bound {PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (dense, ascending), den monic-up-to-sign."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q[i] = c // lead
        for j, dj in enumerate(den):
            num[i + j] -= q[i] * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of the e-th cyclotomic polynomial, ascending, monic.

    >>> cyclotomic_polynomial(3)
    (1, 1, 1)
    """
    if e < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in range(1, e):
        if e % d == 0:
            poly = _int_poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(e: int) -> int:
    return len(cyclotomic_polynomial(e)) - 1


@lru_cache(maxsize=None)
def _power_reductions(e: int) -> tuple[tuple[int, ...], ...]:
    """zeta_e^k in the basis 1, zeta, ..., zeta^{phi-1} for k = phi(e) .. e-1,
    as integer vectors (Phi_e is monic with integer coefficients)."""
    phi = euler_phi(e)
    mod = cyclotomic_polynomial(e)
    # x^phi = -(c_0 + ... + c_{phi-1} x^{phi-1})  since Phi_e is monic
    cur = [-c for c in mod[:phi]]
    rows = []
    for _ in range(phi, e):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(phi):
                cur[j] -= top * mod[j]
    return tuple(rows)


def power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply; one is returned for n = 0."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return one if result is None else result
        base = base * base


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cyclotomic:
    """An element of Q(zeta_e) in the basis 1, zeta, ..., zeta^{phi(e)-1}."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        phi = euler_phi(self.order)
        if len(self.coeffs) != phi:
            raise ValueError(f"expected {phi} coefficients for order {self.order}")

    @staticmethod
    def from_rational(order: int, value) -> Cyclotomic:
        phi = euler_phi(order)
        return Cyclotomic(order, (Fraction(value),) + (Fraction(0),) * (phi - 1))

    @staticmethod
    def zeta(order: int, power: int = 1) -> Cyclotomic:
        """zeta_e^power, reduced."""
        power %= order
        raw = [Fraction(0)] * max(power + 1, euler_phi(order))
        raw[power] = Fraction(1)
        return Cyclotomic(order, _reduce_vector(order, raw))

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ValueError(
                    f"cyclotomic order mismatch: {self.order} vs {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return None

    # -- ring / field operations --------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        phi = euler_phi(self.order)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    conv[i + j] += a * b
        return Cyclotomic(self.order, _reduce_vector(self.order, conv))

    __rmul__ = __mul__

    def inverse(self) -> Cyclotomic:
        """1/a = (product of the other Galois conjugates of a) / N(a): the
        product of all conjugates sigma_k(a), k coprime to e, is the norm."""
        if not self:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        e = self.order
        conj = Cyclotomic.from_rational(e, 1)
        for k in range(2, e):
            if gcd(k, e) == 1:
                raw = [0] * ((len(self.coeffs) - 1) * k + 1)
                for j, c in enumerate(self.coeffs):
                    raw[j * k] = c
                conj = conj * Cyclotomic(e, _reduce_vector(e, raw))
        norm = (self * conj).coeffs[0]
        return Cyclotomic(e, tuple(c / norm for c in conj.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, Cyclotomic.from_rational(self.order, 1))

    # -- predicates ----------------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self.coeffs})"


def _reduce_vector(order: int, conv) -> tuple:
    """Fold sum_k conv[k] * zeta^k, of any length, into the power basis
    1, zeta, ..., zeta^{phi-1}.  Works on Fraction or int entries."""
    phi = euler_phi(order)
    out = list(conv[:phi]) + [0] * (phi - len(conv))
    rows = _power_reductions(order)
    for k in range(phi, len(conv)):
        c = conv[k]
        if c:
            k %= order  # zeta^order = 1
            if k < phi:
                out[k] += c
            else:
                for j, r in enumerate(rows[k - phi]):
                    out[j] += c * r
    return tuple(out)


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FpElem:
    """An element of the prime field F_p."""

    p: int
    value: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        object.__setattr__(self, "value", self.value % self.p)

    def _coerce(self, other):
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise ValueError(f"prime field mismatch: {self.p} vs {other.p}")
            return other
        if isinstance(other, int):
            return FpElem(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(self.p, self.value + o.value)

    __radd__ = __add__

    def __neg__(self):
        return FpElem(self.p, -self.value)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(self.p, self.value - o.value)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(self.p, self.value * o.value)

    __rmul__ = __mul__

    def inverse(self) -> FpElem:
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElem(self.p, pow(self.value, self.p - 2, self.p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FpElem(self.p, pow(self.value, n, self.p))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, FpElem):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.value))

    def __repr__(self):
        return f"FpElem({self.p}, {self.value})"


@lru_cache(maxsize=None)
def root_embed(e: int, p: int) -> FpElem:
    """The smallest element of F_p* of multiplicative order exactly e.

    Deterministic, so finite-field reductions are reproducible across runs.

    >>> root_embed(3, 7).value
    2
    """
    if e < 1:
        raise ValueError("order must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if (p - 1) % e != 0:
        raise ValueError(f"no element of order {e} in F_{p}*: {e} does not divide {p - 1}")
    if e == 1:
        return FpElem(p, 1)
    factors = prime_factors(e)
    for a in range(2, p):
        if pow(a, e, p) == 1 and all(pow(a, e // f, p) != 1 for f in factors):
            return FpElem(p, a)
    raise ArithmeticError("unreachable: F_p* is cyclic")


def to_prime_field(x, p: int) -> FpElem:
    """Specialize an exact scalar into F_p."""
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
                acc = acc + to_prime_field(c, p) * r ** k
        return acc
    if isinstance(x, ParamCoeff):
        raise ValueError(
            "parameter coefficients must be specialized before finite-field "
            "reduction")
    raise TypeError(f"cannot reduce {type(x).__name__} into F_{p}")


# ---------------------------------------------------------------------------
# parameter-polynomial coefficients
# ---------------------------------------------------------------------------

def _pc_key(item):
    exps = item[0]
    return (sum(exps), exps)


@dataclass(frozen=True)
class ParamCoeff:
    """Polynomial in named parameters, with Fraction or Cyclotomic coefficients.

    Only ring operations are provided; the transformation pipeline never
    divides by a nonconstant parameter expression.
    """

    symbols: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], object], ...]  # sorted, nonzero coeffs

    @staticmethod
    def _make(symbols, mapping) -> ParamCoeff:
        items = tuple(sorted(
            ((e, c) for e, c in mapping.items() if c),
            key=_pc_key, reverse=True))
        return ParamCoeff(symbols, items)

    @staticmethod
    def const(symbols: tuple[str, ...], value) -> ParamCoeff:
        if isinstance(value, int):
            value = Fraction(value)
        zero = (0,) * len(symbols)
        return ParamCoeff._make(symbols, {zero: value})

    @staticmethod
    def param(symbols: tuple[str, ...], name: str) -> ParamCoeff:
        idx = symbols.index(name)
        e = tuple(1 if i == idx else 0 for i in range(len(symbols)))
        return ParamCoeff._make(symbols, {e: Fraction(1)})

    # -- coercion -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ParamCoeff):
            if other.symbols != self.symbols:
                raise ValueError("parameter symbol mismatch")
            return other
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return ParamCoeff.const(self.symbols, other)
        return None

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in o.terms:
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return ParamCoeff._make(self.symbols, acc)

    __radd__ = __add__

    def __neg__(self):
        return ParamCoeff(self.symbols, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in o.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return ParamCoeff._make(self.symbols, acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ParamCoeff):
            if not other.is_constant():
                raise ValueError("division by a nonconstant parameter expression")
            other = other.constant_value()
        if isinstance(other, int):
            other = Fraction(other)
        inv = 1 / other
        return ParamCoeff(self.symbols, tuple((e, c * inv) for e, c in self.terms))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of parameter expressions")
        return power(self, n, ParamCoeff.const(self.symbols, 1))

    # -- predicates -------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e, _ in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.terms[0][1]

    def __eq__(self, other):
        if isinstance(other, ParamCoeff):
            return self.symbols == other.symbols and self.terms == other.terms
        if isinstance(other, (int, Fraction, Cyclotomic)):
            if not self.terms:
                return other == 0
            return self.is_constant() and self.terms[0][1] == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.symbols, self.terms))

    def __repr__(self):
        return f"ParamCoeff({self.symbols}, {self.terms})"


def specialize(c, assignment: dict):
    """Evaluate a ParamCoeff (or pass through a plain scalar) at an assignment.

    Values may be exact scalars (int, Fraction, Cyclotomic) or FpElem over a
    common prime; the two target kinds may not be mixed.
    """
    if not isinstance(c, ParamCoeff):
        return c
    primes = {v.p for v in assignment.values() if isinstance(v, FpElem)}
    exacts = [v for v in assignment.values() if not isinstance(v, (FpElem, int))]
    if primes and exacts:
        raise ValueError("mixed target fields in specialization")
    if len(primes) > 1:
        raise ValueError(f"mixed prime fields in specialization: {sorted(primes)}")
    p = primes.pop() if primes else None

    used = [s for i, s in enumerate(c.symbols)
            if any(e[i] for e, _ in c.terms)]
    missing = [s for s in used if s not in assignment]
    if missing:
        raise ValueError(f"assignment missing symbols: {missing}")

    def lift(x):
        if p is not None:
            return to_prime_field(x, p)
        return Fraction(x) if isinstance(x, int) else x

    acc = lift(0)
    for e, coeff in c.terms:
        t = lift(coeff)
        for i, k in enumerate(e):
            if k:
                t = t * lift(assignment[c.symbols[i]]) ** k
        acc = acc + t
    return acc
