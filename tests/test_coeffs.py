import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona.coeffs import (PRIME_TEST_BOUND, Cyclotomic, FpElem, ParamCoeff,
                            _reduce_vector, cyclotomic_polynomial, euler_phi, is_prime,
                            root_embed, specialize, to_prime_field)
from cremona.poly import LaurentPoly, scalar_str
from helpers_reference import reference_param_mul, reference_to_prime_field


def z3(k=1):
    return Cyclotomic.zeta(3, k)


class TestCyclotomicPolynomials:
    def test_small_orders(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_phi(self):
        assert [euler_phi(e) for e in (1, 2, 3, 4, 5, 6, 12)] == [1, 1, 2, 2, 4, 2, 4]


class TestCyclotomicArithmetic:
    def test_root_of_unity(self):
        assert z3() * z3(2) == 1

    def test_sum_of_conjugates(self):
        assert z3() + z3(2) == -1

    def test_product_of_shifted(self):
        # (1 + z)(1 + z^2) = 1 + z + z^2 + 1 = 1
        assert (1 + z3()) * (1 + z3(2)) == 1

    def test_powers_cycle(self):
        assert z3() ** 3 == 1
        assert z3() ** 4 == z3()
        assert Cyclotomic.zeta(5) ** 5 == 1

    def test_division(self):
        a = 1 + z3()
        assert a / a == 1
        assert (z3() / z3()) == 1
        assert 1 / z3() == z3(2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            z3() / Cyclotomic.from_rational(3, 0)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            z3() + Cyclotomic.zeta(5)

    def test_rational_embedding(self):
        assert Cyclotomic.from_rational(3, Fraction(2, 3)) == Fraction(2, 3)
        assert z3() * 0 == 0
        assert not (z3() - z3())


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 6, 7, 9, 12])
def test_reduce_vector_any_length(e):
    phi = euler_phi(e)
    # the e-th roots of unity sum to zero (e > 1)
    assert _reduce_vector(e, [1] * e) == ((1,) if e == 1 else (0,) * phi)
    for k in range(3 * e):
        fold = _reduce_vector(e, [0] * k + [1])
        assert fold == _reduce_vector(e, [0] * (k % e) + [1])
        assert Cyclotomic(e, tuple(Fraction(c) for c in fold)) == Cyclotomic.zeta(e) ** k


def test_cyclotomic_polynomials_match_sympy():
    # Phi_105 is the first with a coefficient other than 0 and +-1
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for e in range(1, 121):
        want = sympy.Poly(sympy.cyclotomic_poly(e, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(e) == tuple(map(int, want)), e
    assert min(cyclotomic_polynomial(105)) == -2


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 21])
def test_reduce_vector_matches_sympy_rem(e):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    mod = sympy.cyclotomic_poly(e, x)
    rng = random.Random(e)
    for length in range(3 * e + 1):
        for entry in (lambda: rng.randint(-9, 9),
                      lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))):
            v = [entry() for _ in range(length)]
            rem = sympy.rem(sum(sympy.Rational(c) * x ** k for k, c in enumerate(v)), mod, x)
            want = sympy.Poly(rem, x).all_coeffs()[::-1]
            want += [0] * (euler_phi(e) - len(want))
            assert _reduce_vector(e, v) == tuple(Fraction(str(c)) for c in want)


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=5)


def cyclotomics(order):
    return st.builds(
        lambda cs: Cyclotomic(order, tuple(cs)),
        st.lists(small_fractions, min_size=euler_phi(order), max_size=euler_phi(order)))


@settings(max_examples=120, deadline=None)
@given(cyclotomics(3), cyclotomics(3), cyclotomics(3))
def test_field_axioms_order3(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if b:
        assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(cyclotomics(5), cyclotomics(5))
def test_mul_inverse_order5(a, b):
    if a:
        assert a * a.inverse() == 1
    assert (a - b) + b == a


# e = 1 and 2 have no conjugate other than the identity, so the inverse
# is the bare division by the norm
INVERSE_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24)


@pytest.mark.parametrize("e", INVERSE_ORDERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_inverse_is_two_sided(e, data):
    a = data.draw(cyclotomics(e))
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    assert a * inv == 1
    assert inv * a == 1
    assert inv.inverse() == a


@pytest.mark.parametrize("e", INVERSE_ORDERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rational_operands_match_the_coerced_path(e, data):
    # a rational operand touches the constant entry of a sum and the nonzero
    # entries of a product; each result must be the one with the operand
    # made a vector first, every entry still a Fraction
    c = data.draw(cyclotomics(e))
    r = data.draw(st.one_of(st.integers(-9, 9), small_fractions))
    v = c._coerce(r)
    for got, want in [(c + r, c + v), (r + c, v + c), (c - r, c - v), (r - c, v - c),
                      (c * r, c * v), (r * c, v * c)]:
        assert type(got) is Cyclotomic and got.order == e
        assert got.coeffs == want.coeffs
        assert all(type(x) is Fraction for x in got.coeffs)


def test_inverse_and_mul_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(a):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                   for k, c in enumerate(a.coeffs))

    def from_sympy(expr, e):
        coeffs = sympy.Poly(expr, x).all_coeffs()[::-1]
        coeffs += [0] * (euler_phi(e) - len(coeffs))
        return Cyclotomic(e, tuple(Fraction(int(c.p), int(c.q)) for c in coeffs))

    rng = random.Random(20251018)
    for e in INVERSE_ORDERS:
        mod = sympy.cyclotomic_poly(e, x)
        for _ in range(4):
            a, b = (Cyclotomic(e, tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                        for _ in range(euler_phi(e))))
                    for _ in range(2))
            product = sympy.rem(sympy.expand(to_sympy(a) * to_sympy(b)), mod, x)
            assert a * b == from_sympy(product, e)
            if a:
                assert a.inverse() == from_sympy(sympy.invert(to_sympy(a), mod, x), e)


F7 = [FpElem(7, v) for v in range(7)]


@pytest.mark.parametrize("op, want", [
    (lambda: 2 - z3(), Cyclotomic(3, (Fraction(2), Fraction(-1)))),
    (lambda: Fraction(1, 2) - z3(2), Cyclotomic(3, (Fraction(3, 2), Fraction(1)))),
    (lambda: z3() / z3(2), z3(2)),
    (lambda: (1 + z3()) / 2, Cyclotomic(3, (Fraction(1, 2), Fraction(1, 2)))),
    (lambda: 1 / z3(), z3(2)),
    (lambda: Fraction(3) / z3(2), 3 * z3()),
    (lambda: 3 - F7[5], F7[5]),
    (lambda: F7[3] / F7[5], F7[2]),
    (lambda: F7[3] / 2, F7[5]),
    (lambda: 1 / F7[3], F7[5]),
    (lambda: 4 / F7[2], F7[2]),
], ids=["cyc-int-rsub", "cyc-fraction-rsub", "cyc-div", "cyc-div-int", "cyc-int-rdiv",
        "cyc-fraction-rdiv", "fp-int-rsub", "fp-div", "fp-div-int", "fp-int-rdiv",
        "fp-int-rdiv-2"])
def test_derived_field_operations(op, want):
    # a - b, a / b and b / a with the other operand an int, a Fraction or
    # the same field's element, against values computed by hand
    got = op()
    assert type(got) is type(want) and got == want


@pytest.mark.parametrize("op", [
    lambda: z3() / "x", lambda: "x" / z3(), lambda: "x" - z3(),
    lambda: z3() / F7[1], lambda: F7[1] / z3(),
    lambda: F7[1] / Fraction(1, 2), lambda: Fraction(1, 2) / F7[1],
    lambda: Fraction(1, 2) - F7[1],
], ids=["cyc/str", "str/cyc", "str-cyc", "cyc/fp", "fp/cyc", "fp/fraction", "fraction/fp",
        "fraction-fp"])
def test_derived_field_operations_refuse_foreign_operands(op):
    with pytest.raises(TypeError):
        op()


class TestPrimeField:
    def test_basics(self):
        x = FpElem(7, 10)
        assert x.value == 3
        assert x + 5 == 1
        assert x * x == 2
        assert (x / x) == 1
        assert -x == 4

    def test_inverse_error(self):
        with pytest.raises(ZeroDivisionError):
            FpElem(7, 0).inverse()

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            FpElem(9, 1)

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            FpElem(7, 1) + FpElem(11, 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_fp_ring_axioms(a, b, c):
    x, y, z = FpElem(7, a), FpElem(7, b), FpElem(7, c)
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z


class TestRootEmbed:
    def test_examples(self):
        assert root_embed(3, 7) == FpElem(7, 2)
        assert root_embed(1, 5) == FpElem(5, 1)
        assert root_embed(5, 11) == FpElem(11, 3)

    def test_not_available(self):
        with pytest.raises(ValueError):
            root_embed(3, 5)

    @pytest.mark.parametrize("e,p", [(2, 7), (3, 7), (6, 7), (5, 11), (3, 13), (4, 13)])
    def test_exact_order(self, e, p):
        r = root_embed(e, p)
        assert r ** e == 1
        for k in range(1, e):
            assert r ** k != 1

    def test_deterministic_smallest(self):
        # both 2 and 4 have order 3 mod 7; the smallest is chosen
        assert root_embed(3, 7).value == 2


class TestToPrimeField:
    def test_fraction(self):
        assert to_prime_field(Fraction(1, 2), 7) == FpElem(7, 4)

    def test_cyclotomic(self):
        assert to_prime_field(z3(), 7) == FpElem(7, 2)
        assert to_prime_field(1 + z3(), 7) == FpElem(7, 3)

    def test_bad_denominator(self):
        with pytest.raises(ZeroDivisionError):
            to_prime_field(Fraction(1, 7), 7)

    def test_rational_cyclotomic_needs_no_root(self):
        # F_7* has no element of order 5, and a rational element needs none
        assert to_prime_field(Cyclotomic.from_rational(5, Fraction(3)), 7) == FpElem(7, 3)
        assert to_prime_field(Cyclotomic.zeta(5) * Cyclotomic.zeta(5, 4), 7) == FpElem(7, 1)
        assert to_prime_field(Cyclotomic.from_rational(5, Fraction(1, 2)), 7) == FpElem(7, 4)
        with pytest.raises(ZeroDivisionError):
            to_prime_field(Cyclotomic.from_rational(5, Fraction(1, 7)), 7)
        with pytest.raises(ValueError, match="no element of order 5"):
            to_prime_field(Cyclotomic.zeta(5), 7)


def reduction_or_error(f, x, p):
    """The reduction of x into F_p, or the type of the exception raised."""
    try:
        return f(x, p)
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc)


# primes = 1 mod each order, so that zeta_e embeds in F_p
CYCLOTOMIC_PRIMES = {3: (7, 13, 31, 97), 4: (5, 13, 29, 101), 5: (11, 31, 41, 101),
                     6: (7, 13, 37, 103)}


@st.composite
def small_fraction(draw, p):
    # denominators run past p, so some vanish mod p
    return Fraction(draw(st.integers(-10 ** 30, 10 ** 30)),
                    draw(st.sampled_from((1, 2, 3, p - 1, p, 2 * p, p * p, 10 ** 20 + 1))))


@st.composite
def scalar_and_prime(draw):
    order = draw(st.sampled_from(sorted(CYCLOTOMIC_PRIMES)))
    p = draw(st.sampled_from(CYCLOTOMIC_PRIMES[order]))
    kind = draw(st.sampled_from(("int", "fraction", "fp", "cyclotomic")))
    if kind == "int":
        return draw(st.integers(-10 ** 30, 10 ** 30)), p
    if kind == "fraction":
        return draw(small_fraction(p)), p
    if kind == "fp":  # the same prime, or another one
        return FpElem(draw(st.sampled_from((p, 7, 13))), draw(st.integers(0, 200))), p
    coeffs = draw(st.lists(small_fraction(p) | st.just(Fraction(0)),
                           min_size=euler_phi(order), max_size=euler_phi(order)))
    return Cyclotomic(order, tuple(coeffs)), p


class TestToPrimeFieldAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(scalar_and_prime())
    def test_matches_step_by_step_reduction(self, case):
        assert reduction_or_error(to_prime_field, *case) == \
            reduction_or_error(reference_to_prime_field, *case)

    @pytest.mark.parametrize("order", sorted(CYCLOTOMIC_PRIMES))
    def test_every_power_of_zeta(self, order):
        for p in CYCLOTOMIC_PRIMES[order]:
            r = root_embed(order, p)
            for k in range(order):
                assert to_prime_field(Cyclotomic.zeta(order, k), p) == r ** k == \
                    reference_to_prime_field(Cyclotomic.zeta(order, k), p)

    @pytest.mark.parametrize("x, p, error", [
        (5, 9, ValueError),                              # p not prime
        (Fraction(1, 2), 9, ValueError),
        (Fraction(1, 18), 9, ZeroDivisionError),         # the denominator check comes first
        (Cyclotomic.zeta(3), 9, ValueError),
        (Fraction(3, 14), 7, ZeroDivisionError),         # denominator = 0 mod p
        (Cyclotomic(3, (Fraction(1), Fraction(1, 7))), 7, ZeroDivisionError),
        (Cyclotomic.zeta(5), 7, ValueError),             # no 5th root of unity in F_7
        (FpElem(7, 3), 13, ValueError),                  # prime mismatch
        (ParamCoeff.param(("t1",), "t1"), 7, ValueError),
        (Cyclotomic(3, (ParamCoeff.param(("t1",), "t1"), Fraction(0))), 7, ValueError),
        (1.5, 7, TypeError),                             # unknown types
        ("1", 7, TypeError),
    ])
    def test_refusals(self, x, p, error):
        with pytest.raises(error):
            to_prime_field(x, p)
        with pytest.raises(error):
            reference_to_prime_field(x, p)


SYMS = ("t1", "t2")


def t(name):
    return ParamCoeff.param(SYMS, name)


class TestParamCoeff:
    def test_specialize_product_plus_one(self):
        c = t("t1") * t("t2") + 1
        assert specialize(c, {"t1": 1, "t2": 1}) == Fraction(2)

    def test_specialize_identity(self):
        assert specialize(t("t1"), {"t1": z3()}) == z3()

    def test_specialize_mod_p(self):
        c = t("t1") ** 2 - t("t2")
        assert specialize(c, {"t1": FpElem(7, 2), "t2": FpElem(7, 4)}) == FpElem(7, 0)

    def test_missing_symbol(self):
        with pytest.raises(ValueError):
            specialize(t("t1") + t("t2"), {"t1": 1})

    def test_mixed_targets(self):
        with pytest.raises(ValueError):
            specialize(t("t1") * t("t2"), {"t1": FpElem(7, 1), "t2": Fraction(1, 2)})

    def test_no_division_by_parameters(self):
        with pytest.raises(ValueError):
            (t("t1") + 1) / t("t2")

    def test_ring_ops(self):
        a = (t("t1") + t("t2")) ** 2
        b = t("t1") ** 2 + 2 * t("t1") * t("t2") + t("t2") ** 2
        assert a == b

    def test_constant_hash_matches_value(self):
        assert hash(ParamCoeff.const(SYMS, 2)) == hash(Fraction(2))
        assert hash(ParamCoeff.const(SYMS, 0)) == hash(0)
        assert hash(ParamCoeff.const(SYMS, z3())) == hash(z3())
        a = LaurentPoly.monomial(("x", "y"), (1, 2), ParamCoeff.const(SYMS, 2))
        b = LaurentPoly.monomial(("x", "y"), (1, 2), Fraction(2))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


HOMOMORPHISM_ENVS = {
    "Q": {"t1": Fraction(2, 3), "t2": Fraction(-1, 2)},
    "Q(zeta3)": {"t1": z3() + Fraction(1, 2), "t2": Fraction(-1, 2) * z3(2)},
    "F_7": {"t1": FpElem(7, 3), "t2": FpElem(7, 5)},
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(HOMOMORPHISM_ENVS)), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3), st.integers(-3, 3))
def test_specialize_is_homomorphism(target, a, b, c, d):
    x = a * t("t1") + b
    y = c * t("t2") + d
    env = HOMOMORPHISM_ENVS[target]
    assert specialize(x * y, env) == specialize(x, env) * specialize(y, env)
    assert specialize(x + y, env) == specialize(x, env) + specialize(y, env)


PARAM_INNER = {"Q": small_fractions, "Q(zeta3)": st.one_of(small_fractions, cyclotomics(3))}


def multi_term(inner):
    """ParamCoeffs of two to four terms in t1, t2 with the given inner scalars."""
    return st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), inner.filter(bool),
                           min_size=2, max_size=4).map(lambda d: ParamCoeff(LaurentPoly(SYMS, d)))


def as_cyclotomic(x: ParamCoeff) -> ParamCoeff:
    """x with each rational coefficient written as an element of Q(zeta_3)."""
    return ParamCoeff(x.poly.map_coeffs(
        lambda c: c if isinstance(c, Cyclotomic) else Cyclotomic.from_rational(3, c)))


@pytest.mark.parametrize("inner", PARAM_INNER)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multi_term_param_arithmetic(inner, data):
    # products of two sums run on the packed kernel; they must match the
    # tuple-key product, and specialize must be a ring homomorphism on them
    x, y = data.draw(multi_term(PARAM_INNER[inner])), data.draw(multi_term(PARAM_INNER[inner]))
    assert x * y == reference_param_mul(x, y)
    n = data.draw(st.integers(0, 4))
    want = ParamCoeff.const(SYMS, 1)
    for _ in range(n):
        want = reference_param_mul(want, x)
    assert x ** n == want
    assert scalar_str(x * y) == scalar_str(reference_param_mul(x, y))
    values = PARAM_INNER[inner] if data.draw(st.booleans()) else \
        st.integers(0, 6).map(lambda v: FpElem(7, v))
    env = {"t1": data.draw(values), "t2": data.draw(values)}
    sx, sy = specialize(x, env), specialize(y, env)
    assert specialize(x * y, env) == sx * sy
    assert specialize(x + y, env) == sx + sy
    assert specialize(x - y, env) == sx - sy
    assert specialize(x ** n, env) == sx ** n
    # equal values hash alike, whatever the scalar types they are written in
    for a, b in ((x * y, y * x), (x, as_cyclotomic(x)), ((x + y) - y, x)):
        assert a == b and hash(a) == hash(b)
    assert x != x + ParamCoeff.param(SYMS, "t1") ** 5


def test_param_repr_is_typed_and_value_is_frozen():
    one_q = ParamCoeff.const(SYMS, 1)
    one_z = ParamCoeff.const(SYMS, Cyclotomic.from_rational(3, 1))
    assert one_q == one_z and repr(one_q) != repr(one_z)
    t1 = ParamCoeff.param(SYMS, "t1")
    assert repr(3 + t1) == "ParamCoeff(('t1', 't2'), (((1, 0), Fraction(1, 1)), " \
                           "((0, 0), Fraction(3, 1))))"
    with pytest.raises(AttributeError):
        t1.poly = one_q.poly


def test_param_arithmetic_stays_off_the_public_polynomial_api(monkeypatch):
    # bench/tracer.py wraps LaurentPoly's public methods as the poly layer
    # and ParamCoeff's operators and specialize as coefficient leaves; a
    # public polynomial call inside a leaf would record a poly span with no
    # parent and count as a polynomial product.
    x = ParamCoeff.param(SYMS, "t1") + 3 * ParamCoeff.param(SYMS, "t2") ** 2 - 1
    y = 2 - ParamCoeff.param(SYMS, "t1") * z3()

    def refuse(*args, **kwargs):
        raise AssertionError("public LaurentPoly method called")

    for name in ("__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__pow__", "zero", "one", "constant", "variable",
                 "sorted_terms", "map_coeffs", "evaluate"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    values = [x + y, x - y, 1 - x, -x, x * y, 3 * x, x ** 3, x ** 0, x / 2, x * y == y * x,
              hash(x * y), specialize(x * y, {"t1": Fraction(1, 2), "t2": 3}),
              specialize(x, {"t1": FpElem(7, 2), "t2": FpElem(7, 3)})]
    monkeypatch.undo()
    assert values[4] == reference_param_mul(x, y)
    assert values[-1] == FpElem(7, 2 + 27 - 1)


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265, 321197185,
              5394826801, 232250619601, 9746347772161)
# the least strong pseudoprimes to the first k prime bases, k = 1..12
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051, 318665857834031151167461)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1009)
    numbers = list(range(-3, 20_000))
    for n in CARMICHAEL + STRONG_PSEUDOPRIMES + (10 ** 18, 10 ** 24, PRIME_TEST_BOUND - 100):
        numbers += range(n - 60, n + 61)
    numbers += [rng.randrange(PRIME_TEST_BOUND) for _ in range(2_000)]
    numbers += [rng.randrange(10 ** 9) | 1 for _ in range(2_000)]
    assert [n for n in numbers if is_prime(n) != sympy.isprime(n)] == []
    assert all(not is_prime(n) for n in CARMICHAEL + STRONG_PSEUDOPRIMES)
    assert is_prime(1_000_000_000_000_000_003)


def test_is_prime_refuses_numbers_past_its_bound():
    # the bound is itself a strong pseudoprime to all thirteen bases
    assert PRIME_TEST_BOUND == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="bound"):
        is_prime(PRIME_TEST_BOUND)
    assert not is_prime(PRIME_TEST_BOUND - 1)
