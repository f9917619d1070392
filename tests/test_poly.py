import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona import poly
from cremona.coeffs import Cyclotomic, FpElem, ParamCoeff
from cremona.lang import parse_poly
from cremona.poly import LaurentPoly, divide_exact, poly_gcd, poly_str
from helpers_reference import reference_mul, reference_pow, reference_substitute

V2 = ("x1", "x2")
V3 = ("x1", "x2", "x3")
V5 = ("x1", "x2", "x3", "x4", "x5")


def P(text, variables=V5, params=(), zeta_order=None):
    return parse_poly(text, variables, params, zeta_order)


FERMAT = P("x1^3 + x2^3 + x3^3 + x4^3 + x5^3")


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P("x1 + x2", V2) * P("x1 - x2", V2) == P("x1^2 - x2^2", V2)

    def test_laurent_cancellation(self):
        x = LaurentPoly.variable(V2, "x1")
        assert x * x ** -1 == LaurentPoly.one(V2)

    def test_symbolic_coefficient_carried(self):
        got = P("t1*x1^3", V2, ("t1",)) * P("x2", V2, ("t1",))
        assert got == P("t1*x1^3*x2", V2, ("t1",))

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            P("x1", V2) + P("x1", V3)

    def test_zero_terms_dropped(self):
        assert not (P("x1", V2) - P("x1", V2)).terms

    def test_prime_field_power(self):
        f = P("x1 + 2*x2", V2)
        assert f.reduce_mod(7) ** 3 == (f ** 3).reduce_mod(7)


class TestCharts:
    def test_dehomogenize_fermat(self):
        assert FERMAT.dehomogenize(4) == P("x1^3 + x2^3 + x3^3 + x4^3 + 1")

    def test_dehomogenize_family(self):
        params = ("t1", "t2", "t3", "t4", "t5")
        F = P("t1*x1^3 + t2*x2^3 + (t3*x3 + t4*x4 + t5*x5)*x1*x2 + x3^3 + x4^3 + x5^3",
              V5, params)
        f = F.dehomogenize(4)
        want = P("t1*x1^3 + t2*x2^3 + (t3*x3 + t4*x4 + t5)*x1*x2 + x3^3 + x4^3 + 1",
                 V5, params)
        assert f == want

    def test_dehomogenize_requires_homogeneous(self):
        with pytest.raises(ValueError):
            P("x1^2 + x1", V2).dehomogenize(1)

    def test_dehomogenize_simple(self):
        assert P("x1^2*x2", V2).dehomogenize(1) == P("x1^2", V2)

    def test_homogenize_linear(self):
        Ph, d = P("x1 + 1", V2).homogenize(1)
        assert Ph == P("x1 + x2", V2) and d == 1

    def test_homogenize_minimal_clearing(self):
        Ph, d = P("x1^2 + x1^3", V2).homogenize(1)
        assert Ph == P("x1^2*x2 + x1^3", V2) and d == 3
        assert Ph.min_deg_in_var(1) == 0

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(40):
            terms = {}
            d = rng.randint(2, 5)
            for _ in range(rng.randint(2, 6)):
                a = rng.randint(0, d)
                b = rng.randint(0, d - a)
                terms[(a, b, d - a - b)] = Fraction(rng.randint(1, 9))
            F = LaurentPoly(V3, terms)
            if F.min_deg_in_var(2) > 0:
                continue
            f = F.dehomogenize(2)
            back, deg = f.homogenize(2)
            assert back == F and deg == F.homogeneous_degree()


class TestCalculus:
    def test_partials(self):
        assert P("x1^3", V3).partial_deriv(0) == P("3*x1^2", V3)
        assert P("t1*x1^2*x2", V3, ("t1",)).partial_deriv(1) == P("t1*x1^2", V3, ("t1",))
        assert not P("x1*x2", V3).partial_deriv(2)

    def test_euler_relation(self):
        rng = random.Random(11)
        for _ in range(30):
            d = rng.randint(2, 6)
            terms = {}
            for _ in range(rng.randint(1, 6)):
                a = rng.randint(0, d)
                b = rng.randint(0, d - a)
                terms[(a, b, d - a - b)] = Fraction(rng.randint(-9, 9))
            F = LaurentPoly(V3, terms)
            if not F:
                continue
            lhs = LaurentPoly.zero(V3)
            for i in range(3):
                lhs = lhs + LaurentPoly.variable(V3, V3[i]) * F.partial_deriv(i)
            assert lhs == d * F


class TestDegrees:
    def test_deg_in_var(self):
        assert FERMAT.deg_in_var(0) == 3
        assert P("x1*x2 + x3^2", V5).deg_in_var(3) == 0

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero(V2).deg_in_var(0)


class TestEvaluation:
    def test_fermat_rational_point(self):
        assert FERMAT.evaluate([1, -1, 0, 0, 0]) == 0

    def test_laurent_mod_p(self):
        f = P("x1*x2^-1", V2)
        got = f.reduce_mod(7).evaluate([FpElem(7, 2), FpElem(7, 4)])
        assert got == FpElem(7, 4)

    def test_cube_mod_p(self):
        f = P("x1^3", ("x1",))
        assert f.reduce_mod(7).evaluate([FpElem(7, 2)]) == FpElem(7, 1)

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            P("x1^-1", V2).evaluate([0, 1])


class TestMonomialContent:
    def test_plain(self):
        m, phat = P("x1^2*x2 + x1*x2^2", V2).monomial_content()
        assert m == (1, 1) and phat == P("x1 + x2", V2)

    def test_laurent(self):
        m, phat = P("x1^-1*x2 + x2", V2).monomial_content()
        assert m == (-1, 1) and phat == P("1 + x1", V2)

    def test_symbolic(self):
        U = ("u1", "u2")
        params = ("t1", "t2")
        m, phat = P("t1*u1^2*u2^-1 + t2*u1*u2", U, params).monomial_content()
        assert m == (1, -1)
        assert phat == P("t1*u1 + t2*u2^2", U, params)

    def test_every_variable_hits_zero(self):
        rng = random.Random(3)
        for _ in range(30):
            terms = {(rng.randint(-4, 4), rng.randint(-4, 4)): Fraction(rng.randint(1, 5))
                     for _ in range(rng.randint(1, 5))}
            _, phat = LaurentPoly(V2, terms).monomial_content()
            assert phat.min_deg_in_var(0) == 0
            assert phat.min_deg_in_var(1) == 0


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
RING_COEFFS = {
    "Q": small_fractions,
    "Q(zeta3)": st.one_of(small_fractions, st.tuples(small_fractions, small_fractions).map(
        lambda cs: Cyclotomic(3, cs))),
    "params": st.one_of(small_fractions, st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), small_fractions, max_size=3).map(
        lambda d: ParamCoeff._make(("t1", "t2"), d))),
    "F_7": st.integers(0, 6).map(lambda v: FpElem(7, v)),
}


@settings(max_examples=240, deadline=None)
@given(data=st.data())
def test_ring_axioms(data):
    # operands range over zero, monomials and Laurent polynomials of up to
    # five terms; products and powers must match the tuple-key references
    coeffs = RING_COEFFS[data.draw(st.sampled_from(sorted(RING_COEFFS)))]
    polys = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            coeffs, max_size=5).map(lambda d: LaurentPoly(V2, d))
    a, b = data.draw(polys), data.draw(polys)
    assert a + b == b + a
    assert a * b == b * a == reference_mul(a, b)
    assert poly_str(a * b) == poly_str(reference_mul(a, b))
    assert a * (a + b) == a * a + a * b
    n = data.draw(st.integers(-3 if len(a.terms) == 1 else -1, 6))
    try:
        want = reference_pow(a, n)
    except ValueError:  # negative powers of sums, or of parameter expressions
        with pytest.raises(ValueError):
            a ** n
        return
    assert a ** n == want
    assert poly_str(a ** n) == poly_str(want)


class TestPackedProduct:
    SUMS = {"Q": P("x1 + 1/2*x2^-1", V2), "Q(zeta3)": P("x1 + zeta*x2", V2, zeta_order=3),
            "params": P("t1*x1 - x2", V2, ("t1",)), "F_7": P("x1 + 2*x2", V2).reduce_mod(7)}

    @pytest.mark.parametrize("domain", SUMS)
    def test_multi_term_operands_reach_the_kernel(self, monkeypatch, domain):
        f = self.SUMS[domain]
        calls = []
        real = poly._pmul
        monkeypatch.setattr(poly, "_pmul", lambda a, b: calls.append(1) or real(a, b))
        m = LaurentPoly(V2, dict([next(iter(f.terms.items()))]))
        f * m, m * f, m ** 3
        assert not calls  # a one-term factor only shifts and scales
        f * (f + m)
        assert calls
        calls.clear()
        f ** 3
        assert calls

    def test_mixed_domains_rejected(self):
        f = P("x1 + x2", V2)
        for a, b in [(f.reduce_mod(7), f), (f, f.reduce_mod(7)),
                     (f.reduce_mod(7), f.reduce_mod(11)),
                     (P("x1 + zeta*x2", V2, zeta_order=3), P("x1 + zeta*x2", V2, zeta_order=5)),
                     (P("t1*x1 + x2", V2, ("t1",)), P("t2*x1 + x2", V2, ("t2",))),
                     (f.reduce_mod(7), P("x1", V2)),
                     (P("t1*x1", V2, ("t1",)), P("t2", V2, ("t2",)))]:
            with pytest.raises((ValueError, TypeError)):
                a * b

    def test_zero_and_unit_powers(self):
        f = P("x1 + x2", V2).reduce_mod(7)
        assert f ** 0 == LaurentPoly.one(V2) == LaurentPoly.zero(V2) ** 0
        assert LaurentPoly.zero(V2) ** 3 == LaurentPoly.zero(V2) == f * LaurentPoly.zero(V2)
        with pytest.raises(ValueError, match="negative powers only for monomials"):
            LaurentPoly.zero(V2) ** -1


class TestRendering:
    CASES = [
        ("x1^2 - x2", V2, (), None),
        ("1/2*x1 + 2/3", V2, (), None),
        ("x1^-2*x2 + 3", V2, (), None),
        ("zeta*x1 + zeta^2", V2, (), 3),
        ("(1 + zeta)*x1 - 2*x2", V2, (), 3),
        ("t1*x1^3 + (t1 + 2*t2)*x2", V2, ("t1", "t2"), None),
        ("-x1 - x2", V2, (), None),
        ("0", V2, (), None),
    ]

    @pytest.mark.parametrize("text,variables,params,order", CASES)
    def test_round_trip(self, text, variables, params, order):
        p = parse_poly(text, variables, params, order)
        assert parse_poly(poly_str(p), variables, params, order) == p


class TestGcd:
    def test_exact_division(self):
        a = P("x1^2 - x2^2", V2)
        b = P("x1 + x2", V2)
        assert divide_exact(a, b) == P("x1 - x2", V2)
        assert divide_exact(P("x1^2 + x2", V2), b) is None

    def test_common_factor(self):
        c = P("x1 + x2 + x3", V3)
        a = P("x1^2 + x2", V3) * c
        b = P("x1*x3 - x2^2", V3) * c
        g = poly_gcd(a, b)
        assert divide_exact(a, g) is not None
        assert divide_exact(b, g) is not None
        assert g.total_degree() == 1
        assert divide_exact(g, c) is not None

    def test_coprime(self):
        g = poly_gcd(P("x1 + x2", V2), P("x1 - x2", V2))
        assert g.total_degree() == 0

    def test_random_products(self):
        rng = random.Random(13)
        for _ in range(20):
            def rnd():
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    e = (rng.randint(0, 2), rng.randint(0, 2))
                    terms[e] = Fraction(rng.randint(1, 4))
                return LaurentPoly(V2, terms)
            c, a, b = rnd(), rnd(), rnd()
            g = poly_gcd(a * c, b * c)
            assert divide_exact(g, poly_gcd(a, b) * c) is not None or \
                divide_exact(poly_gcd(a, b) * c, g) is not None
            assert divide_exact(a * c, g) is not None
            assert divide_exact(b * c, g) is not None

    def test_random_products_three_vars(self):
        rng = random.Random(29)
        for _ in range(15):
            def rnd():
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    e = tuple(rng.randint(0, 2) for _ in range(3))
                    terms[e] = Fraction(rng.randint(-3, 3))
                return LaurentPoly(V3, terms)
            c, a, b = rnd(), rnd(), rnd()
            if not (a and b and c):
                continue
            g = poly_gcd(a * c, b * c)
            assert divide_exact(a * c, g) is not None
            assert divide_exact(b * c, g) is not None
            assert divide_exact(g, poly_gcd(a, b) * c) is not None or \
                divide_exact(poly_gcd(a, b) * c, g) is not None

    def test_prime_field_coefficients(self):
        a = P("x1^2 - x2^2", V2).reduce_mod(7)
        b = P("x1^2 + 2*x1*x2 + x2^2", V2).reduce_mod(7)
        g = poly_gcd(a, b)
        assert g == P("x1 + x2", V2).reduce_mod(7)

    def test_cyclotomic_coefficients(self):
        c = P("x1 + zeta*x2", V2, zeta_order=3)
        a = c * P("x1 - x2", V2, zeta_order=3)
        b = c * P("x1 + x2", V2, zeta_order=3)
        g = poly_gcd(a, b)
        assert divide_exact(g, c) is not None and g.total_degree() == 1


U2 = ("u1", "u2")

# (label, target over V3, images of x1, x2, x3 over U2, parameters, zeta order)
SUBSTITUTE_CASES = [
    ("Q", "x1^3 + 2/3*x1*x2 - x3^2 + 5",
     ("1/2*u1 + u2", "u1 - 3*u2^2", "u1*u2 + 1/3"), (), None),
    ("Q(zeta3)", "zeta*x1^2*x2 + x3^3 - x1*x2*x3",
     ("u1 + zeta*u2", "zeta^2*u1 - u2", "u1^2 + 1/2*zeta*u2"), (), 3),
    ("Q(zeta5)", "zeta^3*x1^3 + zeta*x2^2*x3 + x3^2",
     ("zeta*u1 + zeta^4*u2", "u1 - zeta^2*u2", "zeta^3*u1*u2 + 1"), (), 5),
    ("Q(zeta5), zeta in every coefficient", "zeta^2*x1^2 + zeta*x2*x3",
     ("zeta^3*u1 + zeta^3*u2", "zeta*u1 - zeta^4*u2", "zeta^2*u2 + zeta*u1"), (), 5),
    ("params over Q", "t1*x1^2 + (t1 + t2)*x2*x3 - x3^2",
     ("t2*u1 + u2", "u1 - 1/2*t1*u2", "t1*t2*u1 + u2"), ("t1", "t2"), None),
    ("params over Q(zeta3)", "t1*x1^2*x2 + zeta*x3^3",
     ("zeta*t1*u1 + u2", "u1 - t2*u2", "u1 + zeta^2*u2"), ("t1", "t2"), 3),
    ("Laurent monomial images", "x1^-2*x2 + 3*x1*x3^-1 + x2^2",
     ("1/2*u1^-1*u2", "u1 + u2^-1", "zeta*u2^3"), (), 3),
    ("zero image", "x1^2*x2 + x3 + x2*x3^2", ("u1 + u2", "0", "u1 - u2"), (), None),
    ("inhomogeneous, fractional images", "3*x1 - x3 + 9*x1^2 - x3^2 + 1",
     ("1/3*u1 + 1/5*u2", "u2", "1/2*u1 - u2"), (), None),
]


def substitute_case(target, image_texts, params, order):
    F = parse_poly(target, V3, params, order)
    images = {v: parse_poly(t, U2, params, order) for v, t in zip(V3, image_texts)}
    return F, images


class TestSubstitute:
    @pytest.mark.parametrize("label,target,image_texts,params,order", SUBSTITUTE_CASES,
                             ids=[c[0] for c in SUBSTITUTE_CASES])
    def test_matches_reference(self, label, target, image_texts, params, order):
        F, images = substitute_case(target, image_texts, params, order)
        got = F.substitute(images)
        want = reference_substitute(F, images)
        assert got == want
        assert poly_str(got) == poly_str(want)

    def test_prime_field(self):
        F, images = substitute_case(*SUBSTITUTE_CASES[0][1:])
        F = F.reduce_mod(7)
        images = {v: img.reduce_mod(7) for v, img in images.items()}
        got = F.substitute(images)
        assert got == reference_substitute(F, images)
        assert all(isinstance(c, FpElem) for c in got.terms.values())

    def test_cancellation_to_zero(self):
        # s^3 + (zeta*s)^3 - 2*s^3 vanishes only once zeta^3 is folded to 1
        F = P("x1^3 + x2^3 - 2*x3^3", V3)
        s = P("u1 + u2", U2, zeta_order=3)
        images = {"x1": s, "x2": P("zeta", U2, zeta_order=3) * s, "x3": s}
        assert not F.substitute(images)

    def test_errors(self):
        F = P("x1^2 + x2", V2)
        with pytest.raises(ValueError, match="different ambients"):
            F.substitute({"x1": P("u1", U2), "x2": P("x1", V3)})
        with pytest.raises(ValueError, match="empty substitution"):
            F.substitute({})
        with pytest.raises(ValueError, match="no image given for variable x2"):
            F.substitute({"x1": P("u1", U2)})
        with pytest.raises(ValueError, match="negative power of non-monomial"):
            P("x1^-1", V2).substitute({"x1": P("u1 + u2", U2)})
        with pytest.raises(ValueError, match="negative power of non-monomial"):
            P("x1^-1", V2).substitute({"x1": P("0", U2)})
        with pytest.raises(ValueError, match="cyclotomic order mismatch"):
            P("zeta*x1", V2, zeta_order=3).substitute(
                {"x1": P("u1 + zeta*u2", U2, zeta_order=5)})
        with pytest.raises(ValueError, match="prime field mismatch"):
            P("x1", V2).reduce_mod(7).substitute({"x1": P("u1 + u2", U2).reduce_mod(11)})
        with pytest.raises(ValueError, match="parameter symbol mismatch"):
            P("t1*x1", V2, ("t1",)).substitute({"x1": P("t2*u1 + u2", U2, ("t2",))})

    def test_leaves_no_reference_cycles(self):
        # a cycle would keep the packed powers alive until the cyclic
        # collector runs, so repeated expansions would pile up in memory
        F, images = substitute_case(*SUBSTITUTE_CASES[1][1:])
        gc.collect()
        gc.disable()
        try:
            F.substitute(images)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unused_variables_need_no_image(self):
        F = P("x1^2 + 1", V2)
        assert F.substitute({"x1": P("u1 - u2", U2)}) == P("u1^2 - 2*u1*u2 + u2^2 + 1", U2)
        assert LaurentPoly.zero(V2).substitute({"x1": P("u1", U2)}) == LaurentPoly.zero(U2)


RANDOM_COEFFS = {
    "Q": small_fractions,
    "Q(zeta5)": st.lists(small_fractions, min_size=4, max_size=4).map(
        lambda cs: Cyclotomic(5, tuple(cs))),
}


@pytest.mark.parametrize("domain", RANDOM_COEFFS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitute_matches_reference_random(domain, data):
    # images range over zero, monomials and general Laurent polynomials; a
    # negative power of a non-monomial image must be rejected by both
    polys = st.dictionaries(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                            RANDOM_COEFFS[domain], max_size=4)
    F = LaurentPoly(V2, data.draw(polys))
    images = {"x1": LaurentPoly(U2, data.draw(polys)), "x2": LaurentPoly(U2, data.draw(polys))}
    try:
        want = reference_substitute(F, images)
    except ValueError:
        with pytest.raises(ValueError):
            F.substitute(images)
        return
    assert F.substitute(images) == want


def to_sympy(p, symbols):
    import sympy  # callers skip first when sympy is absent
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[s ** k for s, k in zip(symbols, e)])
                       for e, c in p.terms.items()])


def random_poly(rng, n, lo, hi, n_terms):
    return {tuple(rng.randint(lo, hi) for _ in range(n)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n_terms)}


def test_gcd_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x1 x2 x3")

    def monic(p):
        return sympy.Poly(to_sympy(p, xs), *xs, domain="QQ").monic()

    rng = random.Random(77031)
    for _ in range(30):
        g, h1, h2 = (LaurentPoly(V3, random_poly(rng, 3, 0, 2, rng.randint(1, 3)))
                     for _ in range(3))
        a, b = g * h1, g * h2
        want = sympy.gcd(monic(a), monic(b))
        if not a and not b:
            assert not poly_gcd(a, b)
        else:
            assert monic(poly_gcd(a, b)) == want.monic()


def test_divide_exact_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x1 x2 x3")
    rng = random.Random(91127)
    for k in range(40):
        b = LaurentPoly(V3, random_poly(rng, 3, 0, 2, rng.randint(1, 3)))
        if not b:
            continue
        a = b * LaurentPoly(V3, random_poly(rng, 3, 0, 2, rng.randint(1, 3)))
        if k % 2:  # usually no longer divisible
            a = a + LaurentPoly(V3, random_poly(rng, 3, 0, 2, 1))
        q, r = sympy.div(to_sympy(a, xs), to_sympy(b, xs), *xs, domain="QQ")
        got = divide_exact(a, b)
        if r == 0:
            assert got is not None and sympy.expand(to_sympy(got, xs) - q) == 0
        else:
            assert got is None


def test_substitute_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    xs, us = sympy.symbols("x1 x2 x3"), sympy.symbols("u1 u2")
    rng = random.Random(20250806)
    for _ in range(25):
        F = LaurentPoly(V3, random_poly(rng, 3, 0, 3, rng.randint(1, 5)))
        images = {}
        for v in V3:
            if rng.random() < 0.3:  # a Laurent monomial
                images[v] = LaurentPoly(U2, random_poly(rng, 2, -2, 2, 1))
            else:
                images[v] = LaurentPoly(U2, random_poly(rng, 2, 0, 2, rng.randint(1, 3)))
        got = F.substitute(images)
        want = to_sympy(F, xs).subs({x: to_sympy(images[v], us) for x, v in zip(xs, V3)},
                                    simultaneous=True)
        assert sympy.expand(want - to_sympy(got, us)) == 0
