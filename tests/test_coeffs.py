from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona.coeffs import (Cyclotomic, FpElem, ParamCoeff, _reduce_vector,
                            cyclotomic_polynomial, euler_phi, is_prime, root_embed,
                            specialize, to_prime_field)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_specialize_is_homomorphism(a, b, c, d):
    x = a * t("t1") + b
    y = c * t("t2") + d
    env = {"t1": Fraction(2, 3), "t2": Fraction(-1, 2)}
    assert specialize(x * y, env) == specialize(x, env) * specialize(y, env)
    assert specialize(x + y, env) == specialize(x, env) + specialize(y, env)


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
