import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona import poly
from cremona.coeffs import Cyclotomic, FpElem, ParamCoeff, cyclotomic_polynomial, euler_phi
from cremona.lang import parse_poly
from cremona.pipeline import RationalMap, compose_maps, parametrize_linear
from cremona.scenarios import explicit_degree3_map
from cremona.poly import LaurentPoly, divide_exact, poly_gcd, poly_str
from cremona.verify import on_variety
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
        lambda d: ParamCoeff(LaurentPoly(("t1", "t2"), d)))),
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

    def test_prime_field_rungs_stay_residues(self, monkeypatch):
        # over F_p every rung and product is reduced mod p: without that the
        # ladder of f ** 40 multiplies values of up to 147 bits
        f = P("3*x1 + 5*x2 + 6", V2).reduce_mod(7)
        values = []
        real = poly._pmul
        monkeypatch.setattr(poly, "_pmul",
                            lambda a, b: values.extend([*a.values(), *b.values()]) or real(a, b))
        got = f ** 40
        assert values and all(0 <= v < 7 for v in values)
        assert got == reference_pow(f, 40)
        assert poly_str(got) == poly_str(reference_pow(f, 40))

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

    def test_int_operands_take_the_polynomial_domain(self):
        f = P("x1 + 3*x2", V2).reduce_mod(7)
        for g in (f + 1, 1 + f, f - 1, 1 - f, 2 * f, f * 2):
            assert all(isinstance(c, FpElem) and c.p == 7 for c in g.terms.values())
        assert (f + 1) * f == reference_mul(f + 1, f) == f * f + f
        assert f + 7 == f and (f - 1) + 1 == f
        assert P("x1", V2) + 1 == P("x1 + 1", V2)  # exact domains keep rationals
        assert next(iter((LaurentPoly.zero(V2) + 2).terms.values())) == Fraction(2)

    def test_zero_and_unit_powers(self):
        f = P("x1 + x2", V2).reduce_mod(7)
        assert f ** 0 == LaurentPoly.constant(V2, FpElem(7, 1))
        assert LaurentPoly.zero(V2) ** 0 == LaurentPoly.one(V2)
        assert LaurentPoly.zero(V2) ** 3 == LaurentPoly.zero(V2) == f * LaurentPoly.zero(V2)
        with pytest.raises(ValueError, match="negative powers only for monomials"):
            LaurentPoly.zero(V2) ** -1

    @pytest.mark.parametrize("domain", SUMS)
    def test_zeroth_power_is_the_unit_of_the_domain(self, domain):
        f = self.SUMS[domain]
        kinds = {type(c) for c in f.terms.values()}
        assert {type(c) for c in (f ** 0).terms.values()} <= kinds
        assert f * f ** 0 == f and f + f ** 0 == f + 1
        assert {type(c) for c in (f + f ** 0).terms.values()} == kinds

    def test_fp_and_exact_sums_rejected(self):
        f, g = P("x1 + 2*x2", V2).reduce_mod(7), P("x1", V2)
        for a, b in [(f, g), (g, f), (f, LaurentPoly.one(V2)), (f, Fraction(1)),
                     (Fraction(1), f), (f, P("x1 + 2*x2", V2) ** 0)]:
            with pytest.raises(TypeError, match="mixed with exact"):
                a + b
            with pytest.raises(TypeError, match="mixed with exact"):
                a - b


class TestSharedFactors:
    """Images equal up to a monomial share one hat: its powers are built
    once, and the terms of one factor signature share one product."""

    def count_pmul(self, monkeypatch):
        calls = []
        real = poly._pmul
        monkeypatch.setattr(poly, "_pmul", lambda a, b: calls.append(1) or real(a, b))
        return calls

    def test_linear_model_builds_one_ladder(self, monkeypatch):
        # F = x1*A + B over 6 variables, A an 8-term cubic; the model sends
        # x_j to y_j*A, so every image but -B has the hat of A
        rng = random.Random(5)
        V6 = tuple(f"x{i}" for i in range(1, 7))
        cubics = [e for e in itertools.product(range(4), repeat=5) if sum(e) == 3]
        quartics = [e for e in itertools.product(range(5), repeat=5) if sum(e) == 4]
        A = {(1,) + e: Fraction(rng.randint(1, 9)) for e in rng.sample(cubics, 8)}
        B = {(0,) + e: Fraction(rng.randint(-9, 9) or 1) for e in rng.sample(quartics, 30)}
        F = LaurentPoly(V6, {**A, **B})
        model = parametrize_linear(F, 0)
        calls = self.count_pmul(monkeypatch)
        assert on_variety(model, F)
        # A^2, A^3, A^4 once each; signatures (A, 4) and (A, 3)(-B, 1), of
        # which only the second multiplies two powers
        assert len(calls) <= 3 + 2

    def test_degree13_identity_folds_zeta_on_every_rung(self, monkeypatch):
        # zeta rides in the value mod Phi_3(2^b), reduced after every rung, so
        # a component packs into one entry per monomial: 198,456 pairs, where
        # a key slot for the zeta power formed 619,936.  The count is exact,
        # so putting zeta back into the key fails here
        emap = explicit_degree3_map()
        pairs = []
        real = poly._pmul
        monkeypatch.setattr(poly, "_pmul",
                            lambda a, b: pairs.append(len(a) * len(b)) or real(a, b))
        assert on_variety(emap, FERMAT) is True
        assert sum(pairs) <= 198_456

    def test_equal_images_share_one_power(self, monkeypatch):
        s = P("u1 + u2 + 1", U2)
        images = {"x1": s, "x2": P("u1^-1", U2) * s, "x3": 2 * s}
        F = P("x1^2 + x1*x2 + x2^2 + x3^2", V3)
        calls = self.count_pmul(monkeypatch)
        got = F.substitute(images)
        assert got == reference_substitute(F, images)
        assert len(calls) == 2  # s^2 once, (2*s)^2 once: x1 and x2 share s

    @pytest.mark.parametrize("scalars", [
        (Fraction(1), Fraction(2), Cyclotomic(3, (Fraction(1), Fraction(0))),
         Cyclotomic(3, (Fraction(2), Fraction(0)))),
        (ParamCoeff.const(("t1",), 1), ParamCoeff.const(("t1",), 2),
         ParamCoeff.const(("t1",), Cyclotomic(3, (Fraction(1), Fraction(0)))),
         ParamCoeff.const(("t1",), Cyclotomic(3, (Fraction(2), Fraction(0)))))],
        ids=["Fraction and Cyclotomic", "ParamCoeff over both"])
    def test_equal_values_of_other_types_keep_the_domain(self, scalars):
        # u -> y1 + 2*y2 over Q, v -> the same with rational Cyclotomic
        # coefficients: equal hats, but the result lies in Q(zeta_3)
        one, two, z_one, z_two = scalars
        u = LaurentPoly(U2, {(1, 0): one, (0, 1): two})
        v = LaurentPoly(U2, {(1, 0): z_one, (0, 1): z_two})
        assert u == v
        for text in ("x1*x2", "x1*x2 + x1^2", "x1*x2 + x2^2 + x3"):
            F = P(text, V3)
            got = F.substitute({"x1": u, "x2": v, "x3": u})
            assert got == reference_substitute(F, {"x1": u, "x2": v, "x3": u})
            assert got.terms and all(Cyclotomic in inner_kinds(c) for c in got.terms.values())
            assert {type(c) for c in got.terms.values()} == {type(z_one)}


def inner_kinds(c) -> set:
    return {type(a) for a in c.poly.terms.values()} if isinstance(c, ParamCoeff) else {type(c)}


def substitute_kinds(F: LaurentPoly, images: dict):
    """(type, inner types) of the coefficients of F.substitute(images): those
    of the common domain of F's live terms and the images they use."""
    kinds, param = set(), False
    for e, c in F.terms.items():
        used = [images[v] for v, k in zip(F.vars, e) if k]
        if all(used):
            for x in [c] + [a for img in used for a in img.terms.values()]:
                param = param or isinstance(x, ParamCoeff)
                kinds |= inner_kinds(x)
    inner = next((k for k in (Cyclotomic, FpElem) if k in kinds), Fraction)
    return (ParamCoeff if param else inner), {inner}


SHARED_COEFFS = dict(RING_COEFFS, **{
    "params over Q(zeta3)": st.one_of(RING_COEFFS["Q(zeta3)"], st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), RING_COEFFS["Q(zeta3)"],
        max_size=3).map(lambda d: ParamCoeff(LaurentPoly(("t1", "t2"), d))))})


@pytest.mark.parametrize("domain", SHARED_COEFFS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_substitute_shared_factors(domain, data):
    # images are scaled, Laurent-shifted copies of at most two polynomials,
    # monomials or zero; the result must match the reference in value and
    # lie in the inputs' domain
    coeffs = SHARED_COEFFS[domain]
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    shared = data.draw(st.lists(st.dictionaries(exps, coeffs, min_size=2, max_size=4).map(
        lambda d: LaurentPoly(U2, d)), min_size=1, max_size=2))
    units = [FpElem(7, 1), FpElem(7, 2)] if domain == "F_7" else [Fraction(1), Fraction(2)]
    monomial = st.builds(lambda e, c: LaurentPoly(U2, {e: c}), exps,
                         st.one_of(st.sampled_from(units), coeffs))
    image = st.one_of(st.just(LaurentPoly.zero(U2)), monomial,
                      st.builds(lambda m, s: m * s, monomial, st.sampled_from(shared)))
    images = {v: data.draw(image) for v in V3}
    F = LaurentPoly(V3, data.draw(st.dictionaries(
        st.tuples(st.integers(-1, 3), st.integers(0, 3), st.integers(0, 2)), coeffs,
        max_size=6)))
    try:
        want = reference_substitute(F, images)
    except ValueError:  # negative powers of sums, or of parameter expressions
        with pytest.raises(ValueError):
            F.substitute(images)
        return
    got = F.substitute(images)
    assert got == want
    assert poly_str(got) == poly_str(want)
    outer, inner = substitute_kinds(F, images)
    for c in got.terms.values():
        assert type(c) is outer and inner_kinds(c) == inner


def cyclotomics(e: int):
    return st.lists(small_fractions, min_size=euler_phi(e), max_size=euler_phi(e)).map(
        lambda cs: Cyclotomic(e, tuple(cs)))


@pytest.mark.parametrize("e", [3, 4, 5, 6, 9])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_substitute_folds_zeta_between_products(e, data):
    # x1 and x2 go to Laurent-shifted multiples of two hats over Q(zeta_e),
    # x3 to a monomial; F raises both hats to powers 2-4 in one term, so the
    # ladder's rungs and the two-hat product each reduce the values, which
    # carry the power of zeta, mod Phi_e(2^b)
    coeffs = cyclotomics(e)
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    hat = st.dictionaries(exps, coeffs, min_size=2, max_size=3).map(lambda d: LaurentPoly(U2, d))
    monomial = st.builds(lambda x, c: LaurentPoly(U2, {x: c}), exps, coeffs)
    images = {"x1": data.draw(monomial) * data.draw(hat),
              "x2": data.draw(monomial) * data.draw(hat), "x3": data.draw(monomial)}
    if not all(images.values()):
        return
    top = (data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4)), data.draw(st.integers(0, 2)))
    terms = data.draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                                st.integers(-1, 1)), coeffs, max_size=3))
    F = LaurentPoly(V3, {**terms, top: data.draw(coeffs.filter(bool))})
    got = F.substitute(images)
    want = reference_substitute(F, images)
    assert got == want
    assert poly_str(got) == poly_str(want)
    assert all(type(c) is Cyclotomic and c.order == e for c in got.terms.values())


BOUND_ORDERS = [3, 4, 5, 6, 7, 9, 10, 12]  # Phi_e(B) < B^phi for e = 6, 10, 12


def wide_cyclotomics(e: int):
    # numerators past 2^64 beside small fractions, so that one operand
    # mixes denominators
    wide = st.one_of(small_fractions, st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                                                st.integers(1, 12)))
    return st.lists(wide, min_size=euler_phi(e), max_size=euler_phi(e)).map(
        lambda cs: Cyclotomic(e, tuple(cs)))


@pytest.mark.parametrize("e", BOUND_ORDERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cyclotomic_expansion_matches_reference(e, data):
    # the expansion decodes its sums from residues mod Phi_e(2^b), b chosen
    # from an L1 bound on the sums; *, ** and substitute must match the
    # tuple-key references on Laurent operands, over Q(zeta_e) and over
    # parameters over it
    coeffs = wide_cyclotomics(e)
    if data.draw(st.booleans()):
        coeffs = st.one_of(coeffs, st.dictionaries(st.tuples(st.integers(0, 2)), coeffs,
                                                   min_size=1, max_size=2).map(
            lambda d: ParamCoeff(LaurentPoly(("t1",), d))))
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    sums = st.dictionaries(exps, coeffs, min_size=2, max_size=3).map(lambda d: LaurentPoly(U2, d))
    a, b = data.draw(sums), data.draw(sums)
    assert a * b == reference_mul(a, b)
    n = data.draw(st.integers(2, 4))
    assert a ** n == reference_pow(a, n)
    assert poly_str(a ** n) == poly_str(reference_pow(a, n))
    images = {"x1": a, "x2": b, "x3": data.draw(sums)}
    F = LaurentPoly(V3, data.draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1)), coeffs,
        min_size=1, max_size=4)))
    got, want = F.substitute(images), reference_substitute(F, images)
    assert got == want
    assert poly_str(got) == poly_str(want)


@pytest.mark.parametrize("e", BOUND_ORDERS)
def test_cyclotomic_power_without_cancellation(e):
    # every part of 1 + zeta + x1 is positive, so no two parts of a power
    # cancel: the L1 norm of the unreduced power is 3^k, the bound's own
    # product of norms
    f = LaurentPoly(U2, {(0, 0): Cyclotomic(e, (Fraction(1), Fraction(1)) + (Fraction(0),) * (
        euler_phi(e) - 2)), (1, 0): Fraction(1)})
    for k in range(1, 9):
        assert f ** k == reference_pow(f, k)


@pytest.mark.parametrize("e", BOUND_ORDERS)
@pytest.mark.parametrize("M", [1, 2, 3, 7, 100, 2 ** 64 + 3])
def test_radix_is_the_least_that_decodes(e, M):
    # at the chosen B = 2^b every vector with entries in {-M, 0, M} comes
    # back from its image mod N = Phi_e(B).  At 2^(b-1) one of the two
    # inequalities fails, and either way a vector is lost: if 2^(b-1) <=
    # 2M, M or -M is no balanced digit, so (M, 0, ..., 0) or (-M, 0, ...,
    # 0) decodes wrong; otherwise the image of (M, ..., M) is at least N/2,
    # so it or its negative is not its own balanced residue.  Here it is
    # always the first: B even and B > 2M give B >= 2M + 2, and that gives
    # the second whenever no coefficient of Phi_e is below -1
    phi = euler_phi(e)

    def round_trips(B, N):
        return all(poly._digits(sum(v * B ** j for j, v in enumerate(vec)) % N, B, N, phi)
                   == list(vec) for vec in itertools.product((-M, 0, M), repeat=phi))

    B, N = poly._radix(e, M)
    assert B > 2 * M and B & (B - 1) == 0
    assert round_trips(B, N)
    half = B // 2
    assert not round_trips(half, sum(c * half ** i for i, c in enumerate(cyclotomic_polynomial(e))))


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

    def test_divide_exact_refuses_other_ambients(self):
        a = P("x1^2 - x2^2", V2)
        with pytest.raises(ValueError, match="variable sets differ"):
            divide_exact(a, P("y1 - y2", ("y1", "y2")))
        with pytest.raises(ValueError, match="variable sets differ"):
            divide_exact(a, P("x1 - x2", V3))

    def test_divide_exact_refuses_laurent_operands(self):
        d = P("x1^-1*x2 + 1", V2)
        with pytest.raises(ValueError, match="requires polynomials"):
            divide_exact(d * d, d)
        with pytest.raises(ValueError, match="requires polynomials"):
            divide_exact(P("x1^2", V2), P("x1^-1", V2))

    @pytest.mark.parametrize("three", [FpElem(7, 3), Cyclotomic(3, (Fraction(3), Fraction(0)))],
                             ids=["F_7", "Q(zeta3)"])
    def test_constant_gcd_keeps_the_domain(self, three):
        c = LaurentPoly.constant(V2, three)
        x1, x2 = LaurentPoly.monomial(V2, (1, 0), three), LaurentPoly.monomial(V2, (0, 1), three)
        for a, b in ((c, c), (c, x1 + x2), (x1, x2), (x1 + x2, x1 - x2)):
            g = poly_gcd(a, b)
            assert g == LaurentPoly.constant(V2, three / three)
            assert {type(v) for v in g.terms.values()} == {type(three)}


def gcd_by_prs(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """poly_gcd without its shortcuts: the primitive PRS on the whole pair."""
    return poly._monic(poly._gcd_prs(a, b))


def typed_terms(p: LaurentPoly) -> str:
    return repr(p.sorted_terms())


GCD_SHAPES = [  # (label, a, b, zeta order, prime)
    ("x^m*G and x^n*G", "x1^2*x3*(x1*x2 + x2^2 - 3*x3^2)", "x2*x3^2*(x1*x2 + x2^2 - 3*x3^2)",
     None, None),
    ("x^m*G and x^n*G*H", "x1*(x1 + 2*x2 - x3)", "x2^3*(x1 + 2*x2 - x3)*(x1 - x3)", None, None),
    ("divisor with more terms", "x1^3 - 1", "x1^2 + x1 + 1", None, None),
    ("divisor with more terms, shifted", "x2*(x1^3 - x3^3)", "x1^2 + x1*x3 + x3^2", None, None),
    ("equal up to a scalar", "1/2*x1^2 - x2*x3 + 2*x3^2", "-3*x1^2 + 6*x2*x3 - 12*x3^2",
     None, None),
    ("coprime", "x1^2 + x2*x3 + 1", "x1*x2 - x3^2", None, None),
    ("coprime, shifted", "x1*x2*(x1 + x3)", "x2^2*(x1 - x3)", None, None),
    ("common factor, neither divides", "(x1 + x2)*(x1 - x3)", "(x1 + x2)*(x2 + x3)", None, None),
    ("one variable", "(x1 - 2)*(x1^2 + 1)", "(x1 - 2)*(x1 + 3)", None, None),
    ("x1 in one operand", "(x2 + x3)*(x1 + x2)", "(x2 + x3)*(x2 - x3)", None, None),
    ("content in x1", "(x2 + x3)*(x1 + x2)", "(x2 + x3)*(x1 - x3)", None, None),
    ("F_7 divisor", "x1^2 - x2^2", "3*x1 + 3*x2", None, 7),
    ("F_7 one variable", "(x1 + 3)*(x1^2 + 2)", "(x1 + 3)*(x1 - 1)", None, 7),
    ("F_7 shifted", "x3*(x1^2 + 2*x1*x2 + x2^2)", "x1*(x1^2 - x2^2)", None, 7),
    ("Q(zeta3) x^m*G and x^n*G", "x1*(x1 + zeta*x2)*(x2 - x3)", "x3*(x1 + zeta*x2)*(x2 - x3)",
     3, None),
    ("Q(zeta3) up to a scalar", "(1 + zeta)*(x1^2 - zeta^2*x2*x3)", "zeta*x1^2 - x2*x3", 3, None),
    ("Q(zeta3) common factor", "(x1 + zeta*x2)*(x1 - x2)", "(x1 + zeta*x2)*(x1 + x2)", 3, None),
]


@pytest.mark.parametrize("label,a,b,order,prime", GCD_SHAPES, ids=[s[0] for s in GCD_SHAPES])
def test_gcd_shortcuts_agree_with_the_prs(label, a, b, order, prime):
    a, b = P(a, V3, zeta_order=order), P(b, V3, zeta_order=order)
    if prime is not None:
        a, b = a.reduce_mod(prime), b.reduce_mod(prime)
    for x, y in ((a, b), (b, a)):
        got = poly_gcd(x, y)
        assert got == gcd_by_prs(x, y)
        assert typed_terms(got) == typed_terms(gcd_by_prs(x, y))
    if order is not None:
        return
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x1 x2 x3")
    domain = sympy.GF(prime) if prime else sympy.QQ

    def as_sympy(p):
        return sympy.Poly({e: int(c.value) if prime else c for e, c in p.terms.items()},
                          *xs, domain=domain)

    want = sympy.gcd(as_sympy(a), as_sympy(b)).monic()
    assert as_sympy(poly_gcd(a, b)) == want


@pytest.mark.parametrize("order", [None, 3], ids=["F_7", "Q(zeta3)"])
def test_prs_against_gf7_gcd(order):
    # g*h1 and g*h2 for random homogeneous g, h1, h2 over V3, kept when
    # neither operand divides the other after their monomial contents, so
    # that poly_gcd runs the PRS; homogeneous operands keep their degree mod 7,
    # so a gcd over Q(zeta3) is at most as large as the gcd of their reductions
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x1 x2 x3")
    rng = random.Random(47)
    z = Cyclotomic.zeta(3)

    def form(deg):
        monos = [e for e in itertools.product(range(deg + 1), repeat=3) if sum(e) == deg]
        terms = {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                 for e in rng.sample(monos, min(len(monos), rng.randint(2, 3)))}
        if order is not None:
            terms = {e: c + rng.randint(-2, 2) * z for e, c in terms.items()}
        f = LaurentPoly(V3, terms)
        return f if order is not None else f.reduce_mod(7)

    def gf7(p):
        return sympy.Poly({e: int(c.value) for e, c in p.reduce_mod(7).terms.items()},
                          *xs, domain=sympy.GF(7))

    kept = 0
    while kept < 25:
        g = form(rng.randint(1, 2))
        a, b = g * form(rng.randint(1, 2)), g * form(rng.randint(1, 2))
        ha, hb = a.monomial_content()[1], b.monomial_content()[1]
        if divide_exact(ha, hb) is not None or divide_exact(hb, ha) is not None:
            continue
        kept += 1
        got = poly_gcd(a, b)
        want = sympy.gcd(gf7(a), gf7(b))
        if order is None:
            assert gf7(got) == want.monic()
        else:
            assert divide_exact(a, got) is not None and divide_exact(b, got) is not None
            assert divide_exact(got, g) is not None
            assert got.total_degree() <= want.total_degree()


@pytest.mark.parametrize("order", [None, 3], ids=["Q", "Q(zeta3)"])
def test_projection_after_linear_model_runs_no_prs(order, monkeypatch):
    # F = x1*A + B, a cubic over 5 variables with a 4-term A; the composite's
    # components are y_j*A, so every gcd is a shifted copy of A
    rng = random.Random(31)
    z = Cyclotomic.zeta(3)

    def coeff():
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
        return c if order is None else c + rng.choice((-1, 1)) * z

    quadrics = [e for e in itertools.product(range(3), repeat=4) if sum(e) == 2]
    cubics = [e for e in itertools.product(range(4), repeat=4) if sum(e) == 3]
    F = LaurentPoly(V5, {**{(1,) + e: coeff() for e in rng.sample(quadrics, 4)},
                         **{(0,) + e: coeff() for e in rng.sample(cubics, 6)}})
    model = parametrize_linear(F, 0)
    calls = []
    real = poly._gcd_prs
    monkeypatch.setattr(poly, "_gcd_prs", lambda *a: calls.append(1) or real(*a))
    back = compose_maps(RationalMap.coordinate_projection(V5, 0), model)
    scale = next(iter(back.components[0].terms.values()))
    assert back.components == tuple(c * scale for c in RationalMap.identity(model.source_vars)
                                    .components)
    assert not calls


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
