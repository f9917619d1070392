import gc
import itertools
import random
from fractions import Fraction

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona import poly
from cremona.coeffs import Cyclotomic, FpElem, ParamCoeff, _reduce_vector, cyclotomic_polynomial, \
    euler_phi, specialize
from cremona.lang import parse_poly
from cremona.pipeline import RationalMap, compose_maps, parametrize_linear
from cremona.scenarios import explicit_degree3_map
from cremona.poly import LaurentPoly, divide_exact, poly_gcd, poly_str
from cremona.verify import compile_mod, eval_compiled, on_variety
from helpers_bounded import bounded_python
from helpers_reference import (reference_eval_mod, reference_evaluate, reference_mul,
                               reference_pow, reference_scalar_str, reference_substitute)

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

    # a chart past the end or negative is refused, not ignored: homogenize
    # at -1 would return x1 + 1 unchanged and inhomogeneous
    @pytest.mark.parametrize("chart", [-1, 2])
    def test_chart_out_of_range(self, chart):
        with pytest.raises(ValueError, match=f"chart index {chart} out of range"):
            P("x1^2*x2", V2).dehomogenize(chart)
        with pytest.raises(ValueError, match=f"chart index {chart} out of range"):
            P("x1 + 1", V2).homogenize(chart)

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

    def test_contract(self, monkeypatch):
        # a zero coordinate kills the terms it divides; a pole is raised
        # before the kernel runs, here before 3^30000000 could be refused;
        # a zero value over F_p stays in F_p
        assert P("x1^2*x2 + 3*x2^-1", V2).evaluate([0, 3]) == 1
        with pytest.raises(ValueError, match="point length mismatch"):
            P("x1", V2).evaluate([1])
        zero = P("x1 - x2", V2).reduce_mod(7).evaluate([FpElem(7, 3), FpElem(7, 3)])
        assert type(zero) is FpElem and zero == FpElem(7, 0)
        monkeypatch.setattr(poly, "_expand", None)
        with pytest.raises(ZeroDivisionError, match="pole at zero coordinate x1"):
            P("x2^30000000 + x1^-1*x2", V2).evaluate([0, 3])

    def test_evaluate_and_specialize_run_on_the_kernel(self, monkeypatch):
        calls = []
        expand = poly._expand

        def counted(*args):
            calls.append(args[2])
            return expand(*args)

        monkeypatch.setattr(poly, "_expand", counted)
        assert P("x1^2*x2^-1 + 3", V2).evaluate([2, 4]) == 4
        assert () in calls
        calls.clear()
        c = next(iter(P("(t1^2 - t1*t2)*x1", V2, ("t1", "t2")).terms.values()))
        assert specialize(c, {"t1": 3, "t2": Fraction(1, 2)}) == Fraction(15, 2)
        assert () in calls

    def test_evaluation_and_specialization_are_bounded(self):
        # each took about 14 s as a loop of coefficient products; the kernel
        # refuses both before any product, on the bits 3^30000000 would need
        code = ("import time\n"
                "from cremona.lang import parse_poly\n"
                "from cremona.poly import BudgetError\n"
                "f = parse_poly('x1^30000000 + x2', ('x1', 'x2'))\n"
                "g = parse_poly('t1^30000000*x1 + x2', ('x1', 'x2'), ('t1',))\n"
                "for run in (lambda: f.evaluate([3, 1]),\n"
                "            lambda: g.specialize_params({'t1': 3})):\n"
                "    t0 = time.perf_counter()\n"
                "    try:\n"
                "        run()\n"
                "        print('ran')\n"
                "    except BudgetError as exc:\n"
                "        print('bits' in str(exc), time.perf_counter() - t0 < 0.5)\n")
        done = bounded_python(["-c", code])
        assert done.stdout.splitlines() == ["True True"] * 2, done.stderr


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


def count_mac(monkeypatch):
    """One entry per product: _mac is the one loop over term pairs."""
    calls = []
    real = poly._mac
    monkeypatch.setattr(poly, "_mac", lambda out, a, b: calls.append(1) or real(out, a, b))
    return calls


class TestPackedProduct:
    SUMS = {"Q": P("x1 + 1/2*x2^-1", V2), "Q(zeta3)": P("x1 + zeta*x2", V2, zeta_order=3),
            "params": P("t1*x1 - x2", V2, ("t1",)), "F_7": P("x1 + 2*x2", V2).reduce_mod(7)}

    @pytest.mark.parametrize("domain", SUMS)
    def test_multi_term_operands_reach_the_kernel(self, monkeypatch, domain):
        f = self.SUMS[domain]
        calls = count_mac(monkeypatch)
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
        real = poly._mac
        monkeypatch.setattr(poly, "_mac", lambda out, a, b:
                            values.extend([*a.values(), *b.values()]) or real(out, a, b))
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

    V6 = tuple(f"x{i}" for i in range(1, 7))

    def linear_model(self):
        """(F, its linear model, a quartic in x2..x6 that F lacks) for F =
        x1*A + B over 6 variables, A an 8-term cubic; the model sends x_j to
        y_j*A, so every image but -B has the hat of A."""
        rng = random.Random(5)
        cubics = [e for e in itertools.product(range(4), repeat=5) if sum(e) == 3]
        quartics = [e for e in itertools.product(range(5), repeat=5) if sum(e) == 4]
        A = {(1,) + e: Fraction(rng.randint(1, 9)) for e in rng.sample(cubics, 8)}
        B = {(0,) + e: Fraction(rng.randint(-9, 9) or 1) for e in rng.sample(quartics, 30)}
        F = LaurentPoly(self.V6, {**A, **B})
        return F, parametrize_linear(F, 0), next((0,) + e for e in quartics if (0,) + e not in B)

    def test_linear_model_builds_one_ladder(self, monkeypatch):
        F, model, _ = self.linear_model()
        calls = count_mac(monkeypatch)
        assert on_variety(model, F)
        # signatures (A, 4) and (A, 3)(-B, 1) share A^3: two products form
        # the inner sum, which cancels, and no rung of A is built
        assert len(calls) == 2

    def test_twin_identity_stops_at_the_inner_sum(self, monkeypatch):
        # a twin of F adds one term, so the inner sum is nonzero: on_variety
        # answers after its two products, building no rung of the shared A^3
        # and no product with it, where the whole composite takes both
        F, model, extra = self.linear_model()
        twin = F + LaurentPoly(self.V6, {extra: Fraction(1)})
        calls = count_mac(monkeypatch)
        assert not on_variety(model, twin)
        assert len(calls) == 2
        calls.clear()
        assert twin.substitute(dict(zip(self.V6, model.components)))
        assert len(calls) == 2 + 2 + 1

    def count_pairs(self, monkeypatch):
        """len(a) * len(b) of every product: _mac is the one loop over term
        pairs, under the ladder's rungs, the products of hat powers and the
        cofactor products alike."""
        pairs = []
        real = poly._mac
        monkeypatch.setattr(poly, "_mac",
                            lambda out, a, b: pairs.append(len(a) * len(b)) or real(out, a, b))
        return pairs

    def test_linear_model_identity_forms_one_inner_sum(self, monkeypatch):
        # F = x1*A + B of degree 4 over 6 variables with |A| = 8, |B| = 14:
        # the signatures (A, 4) and (A, 3)(-B, 1) share A^3, so the check
        # forms the inner sum B*A - A*B, which cancels, and builds no rung:
        # 2*8*14 pairs, where a full product per signature formed 15,300
        rng = random.Random(20)
        V6 = tuple(f"x{i}" for i in range(1, 7))
        cubics = [e for e in itertools.product(range(4), repeat=5) if sum(e) == 3]
        quartics = [e for e in itertools.product(range(5), repeat=5) if sum(e) == 4]
        A = {(1,) + e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
             for e in rng.sample(cubics, 8)}
        B = {(0,) + e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
             for e in rng.sample(quartics, 14)}
        F = LaurentPoly(V6, {**A, **B})
        model = parametrize_linear(F, 0)
        pairs = self.count_pairs(monkeypatch)
        assert on_variety(model, F)
        assert sum(pairs) <= 2 * 8 * 14

    def test_one_signature_products_form_the_same_pairs(self, monkeypatch):
        # a * b and a ** 3 have one signature, all of it common: the ladder
        # and the product of hat powers, then one pair per result term for
        # the one-term cofactor, as before the common part was factored out
        a, b = P("x1 + 2*x2 - x3", V3), P("x1^2 - x2*x3 + 4", V3)
        pairs = self.count_pairs(monkeypatch)
        assert a * b == reference_mul(a, b)
        assert sum(pairs) == 3 * 3 + 9
        pairs.clear()
        assert a ** 3 == reference_pow(a, 3)
        assert sum(pairs) == 3 * 3 + 6 * 3 + 10

    def test_degree13_identity_folds_zeta_on_every_rung(self, monkeypatch):
        # zeta rides in the value mod Phi_3(2^b), reduced after every rung, so
        # a component packs into one entry per monomial: per component two
        # rungs and one cofactor product, 205,020 pairs in all (198,456 of
        # them on the rungs), where a key slot for the zeta power formed
        # 619,936 on the rungs alone.  The count is exact, so putting zeta
        # back into the key fails here
        emap = explicit_degree3_map()
        pairs = self.count_pairs(monkeypatch)
        assert on_variety(emap, FERMAT) is True
        assert (len(pairs), sum(pairs)) == (15, 205_020)

    def test_equal_images_share_one_power(self, monkeypatch):
        s = P("u1 + u2 + 1", U2)
        images = {"x1": s, "x2": P("u1^-1", U2) * s, "x3": 2 * s}
        F = P("x1^2 + x1*x2 + x2^2 + x3^2", V3)
        calls = count_mac(monkeypatch)
        got = F.substitute(images)
        assert got == reference_substitute(F, images)
        # s^2 once and (2*s)^2 once, each times its one cofactor: x1 and x2
        # share s, so x1^2, x1*x2 and x2^2 have one signature
        assert len(calls) == 2 + 2

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


@pytest.mark.parametrize("domain", SHARED_COEFFS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluate_matches_the_term_loop(domain, data):
    # Laurent polynomials at nonzero points: the kernel's value is the term
    # loop's, of its type when nonzero; less a new term of that value, F
    # evaluates to a zero of its domain, FpElem(7, 0) over F_7
    F = LaurentPoly(V2, data.draw(st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), SHARED_COEFFS[domain], max_size=5)))
    if domain == "F_7":
        values = st.integers(1, 6).map(lambda v: FpElem(7, v))
    else:
        values = st.one_of(st.integers(-3, 3), small_fractions,
                           *([cyclotomics(3)] if "zeta3" in domain else [])).filter(bool)
    pt = [data.draw(values), data.draw(values)]
    want = reference_evaluate(F, pt)
    got = F.evaluate(pt)
    assert got == want
    if want:
        assert type(got) is type(want)
        zero = (F - LaurentPoly.monomial(V2, (4, 0), want / pt[0] ** 4)).evaluate(pt)
        assert zero == 0
        if domain == "F_7":
            assert type(zero) is FpElem and zero == FpElem(7, 0)


@pytest.mark.parametrize("domain", ["Q", "Q(zeta3)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluate_mod_p_matches_the_compiled_evaluator(domain, data):
    # the kernel over F_p, the generated straight-line program and the
    # per-term pow loop agree at torus points, Laurent exponents included
    p = data.draw(st.sampled_from([7, 13]))
    F = LaurentPoly(V3, data.draw(st.dictionaries(
        st.tuples(st.integers(-2, 3), st.integers(-2, 3), st.integers(-2, 3)),
        RING_COEFFS[domain], max_size=6)))
    pt = tuple(data.draw(st.integers(1, p - 1)) for _ in V3)
    Fp = F.reduce_mod(p)
    got = Fp.evaluate([FpElem(p, x) for x in pt])
    want = eval_compiled(compile_mod(F, p), pt, p)
    assert want == reference_eval_mod(F, pt, p)
    if Fp.terms:
        assert type(got) is FpElem and got == FpElem(p, want)
    else:
        assert got == want == 0


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


@pytest.mark.parametrize("e", range(1, 13))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scalar_str_matches_reference(e, data):
    # a Cyclotomic renders as a polynomial in zeta, lowest power first; the
    # reference builds the same string by hand, zero and +-1 parts included
    c = data.draw(st.one_of(st.just(Cyclotomic.from_rational(e, 0)), cyclotomics(e)))
    assert poly.scalar_str(c) == reference_scalar_str(c)
    inner = st.one_of(small_fractions, cyclotomics(e))
    x = ParamCoeff(LaurentPoly(("t1", "t2"), data.draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), inner, max_size=4))))
    assert poly.scalar_str(x) == reference_scalar_str(x)


@pytest.mark.parametrize("domain", ["Q", "Q(zeta3)", "params over Q(zeta3)", "F_7"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_of_shifted_operands_match_reference(domain, data):
    # each operand is x^m * hat, m a Laurent monomial content the expansion
    # splits off every multi-term factor; a * a shares one hat
    coeffs = SHARED_COEFFS[domain]
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))

    def shifted():
        hat = data.draw(st.dictionaries(exps, coeffs.filter(bool), min_size=2, max_size=4))
        m = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        return LaurentPoly(V2, {(e[0] + m[0], e[1] + m[1]): c for e, c in hat.items()})

    a, b = shifted(), shifted()
    k = data.draw(st.integers(0, 4))
    for got, want in ((a * b, reference_mul(a, b)), (a * a, reference_mul(a, a)),
                      (b ** k, reference_pow(b, k)),
                      ((a * b) ** 2, reference_pow(reference_mul(a, b), 2))):
        assert got == want
        assert poly_str(got) == poly_str(want)
    assert a * a == a ** 2


def mac_charge(a: dict, b: dict) -> int:
    """The charge of _mac(out, a, b): 3 a term pair if a table's L1 norm
    fits one 64-bit word, else once per 64-bit word of the two norms."""
    ba, bb = (sum(map(abs, t.values())).bit_length() for t in (a, b))
    return len(a) * len(b) * (3 if min(ba, bb) <= 64 else -(-(ba + bb) // 64))


@pytest.mark.parametrize("domain", ["Q", "Q(zeta3)", "params over Q(zeta3)", "F_7"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_expansion_refused_exactly_past_the_work_budget(domain, data):
    # under a small budget, an expansion is refused exactly when the pairs
    # its _mac calls form in an unpatched run, counted by words, exceed it;
    # the calls within the budget run, and the one that would cross it
    # forms no pair
    coeffs = SHARED_COEFFS[domain]
    sums = st.dictionaries(st.tuples(st.integers(-2, 3), st.integers(0, 3)), coeffs.filter(bool),
                           min_size=2, max_size=5).map(lambda d: LaurentPoly(V2, d))
    a, b, n = data.draw(sums), data.draw(sums), data.draw(st.integers(2, 5))
    F = P("x1^3*x2 - 2*x1*x2^2 + x2^3", V2)
    F = F.reduce_mod(7) if domain == "F_7" else F
    expansion = {"product": lambda: a * b, "power": lambda: a ** n,
                 "substitute": lambda: F.substitute({"x1": a, "x2": b})}[
        data.draw(st.sampled_from(["product", "power", "substitute"]))]
    real, charges, ran = poly._mac, [], []
    with patch.object(poly, "_mac", lambda out, x, y: charges.append(mac_charge(x, y))
                      or real(out, x, y)):
        want = expansion()
    budget = data.draw(st.integers(0, sum(charges)))

    def mac(out, x, y):
        before = dict(out)
        try:
            real(out, x, y)
        except poly.BudgetError:
            assert out == before
            raise
        ran.append(1)
        return out

    crossing = next((i for i, c in enumerate(itertools.accumulate(charges)) if c > budget),
                    None)
    with patch.object(poly, "_mac", mac), patch.object(poly, "POWER_WORK_BUDGET", budget):
        if crossing is None:
            assert expansion() == want
        else:
            with pytest.raises(poly.BudgetError, match=f"budget of {budget}$"):
                expansion()
    assert len(ran) == (len(charges) if crossing is None else crossing)


class TestBudget:
    # an identity whose parses are all within the budgets, but whose
    # signature products A^i * B^(10 - i) reach about 10^8 term pairs
    F = P("(x1 + 2*x2 + 3*x3 + 5*x4 + 7*x5)^10")
    A, B = P("(x1 + x2 + x3 + x4 + x5)^4 + x1^4"), P("(x1 - x2 + x3 - x4 + x5)^4")

    def test_substitute_over_work_budget(self):
        images = dict(zip(V5, (self.A, self.B, self.A, self.B, self.A)))
        with pytest.raises(poly.BudgetError, match="budget of 3000000"):
            self.F.substitute(images)

    def test_compose_maps_over_work_budget(self):
        f = RationalMap((self.A, self.B, self.A, self.B, self.A))
        with pytest.raises(poly.BudgetError, match="budget of 3000000"):
            compose_maps(RationalMap((self.F, self.F)), f)

    def test_counter_starts_from_zero_after_a_refusal(self):
        a = P("x1 + 2*x2 - x3 + 1", V3)
        real, charges = poly._mac, []
        with patch.object(poly, "_mac", lambda out, x, y: charges.append(mac_charge(x, y))
                          or real(out, x, y)):
            want = a ** 6
        with patch.object(poly, "POWER_WORK_BUDGET", sum(charges)):
            for _ in range(2):
                with pytest.raises(poly.BudgetError):
                    a ** 7
                assert a ** 6 == want

    def test_result_over_term_budget(self):
        # 100 x 101 term pairs whose products are all distinct: 10,100 terms
        a = LaurentPoly(V2, {(i, 0): 1 for i in range(100)})
        b = LaurentPoly(V2, {(0, j): 1 for j in range(101)})
        with pytest.raises(poly.BudgetError, match="10100 terms, over the budget of 10000"):
            a * b
        with patch.object(poly, "POWER_TERM_BUDGET", 10_100):
            assert len((a * b).terms) == 10_100

    def test_results_no_larger_than_an_input_pass(self):
        # a 10,100-term polynomial scaled, shifted or given monomial images
        # grows no term, so the term budget does not refuse it; a parameter
        # factor of two monomials doubles it and is refused
        big = LaurentPoly(V2, {(i, j): Fraction(i + j + 1) for i in range(100) for j in range(101)})
        x1 = LaurentPoly.variable(V2, "x1")
        assert (big * Fraction(2)).terms == {e: 2 * c for e, c in big.terms.items()}
        assert (big * x1 ** 2).terms == {(i + 2, j): c for (i, j), c in big.terms.items()}
        swapped = big.substitute({"x1": LaurentPoly.variable(V2, "x2"), "x2": x1 * 3})
        assert swapped.terms == {(j, i): c * 3 ** j for (i, j), c in big.terms.items()}
        t = ("t1",)
        big_t = big.map_coeffs(lambda c: ParamCoeff.const(t, c))
        t1 = LaurentPoly.constant(V2, ParamCoeff.param(t, "t1"))
        assert big_t * t1 == big.map_coeffs(lambda c: ParamCoeff.param(t, "t1") * c)
        with pytest.raises(poly.BudgetError, match="20200 terms, over the budget of 10000"):
            big_t * (t1 + 1)
        with pytest.raises(poly.BudgetError, match="20200 terms, over the budget of 10000"):
            big * LaurentPoly.constant(V2, ParamCoeff(LaurentPoly(t, {(0,): 1, (1,): 1})))



def held_bits(c) -> int:
    """The bits of the largest numerator or denominator a coefficient is
    written with: its rationals, a Cyclotomic's coordinates and a
    ParamCoeff's coefficients' own."""
    if isinstance(c, ParamCoeff):
        return max(map(held_bits, c.poly.terms.values()))
    rationals = c.coeffs if isinstance(c, Cyclotomic) else (c,)
    return max(max(abs(r.numerator), r.denominator).bit_length() for r in rationals)


class TestBitBudget:
    params = ("t1", "t2")

    def test_one_term_factor_shifts_from_either_side(self):
        # t2*x1 shifts and scales (t1 + zeta), a one-term factor with a
        # two-term parameter coefficient, whichever operand it is: the
        # t1*t2 entry stays the Fraction it was in t1 + zeta
        a, b = P("t2*x1", V2, self.params, 3), P("t1 + zeta", V2, self.params, 3)
        for got in (a * b, b * a, P("t2*(t1 + zeta)*x1", V2, self.params, 3),
                    P("(t1 + zeta)*t2*x1", V2, self.params, 3)):
            (e, c), = got.terms.items()
            assert e == (1, 0)
            assert c.poly.terms == {(1, 1): 1, (0, 1): Cyclotomic.zeta(3)}
            assert {k: type(v) for k, v in c.poly.terms.items()} == \
                {(1, 1): Fraction, (0, 1): Cyclotomic}

    def test_only_growth_is_refused(self):
        # a coefficient of 10,298 bits, past the budget: shifting it,
        # scaling it by a size-1 scalar, its first power and a monomial
        # image of size 1 grow nothing and pass; any growth is refused
        big = LaurentPoly(V2, {(1, 0): Fraction(10 ** 3100 - 1), (0, 1): Fraction(1)})
        x1, x2 = LaurentPoly.variable(V2, "x1"), LaurentPoly.variable(V2, "x2")
        zeta = LaurentPoly.constant(V2, Cyclotomic.zeta(3))
        for unchanged in (big * x1 ** 2, x1 * big, big * -1, big ** 1, big * zeta,
                          big.substitute({"x1": x2, "x2": -x1})):
            assert max(held_bits(c) for c in unchanged.terms.values()) == 10_298
        for grown in (lambda: big * 3, lambda: 3 * big, lambda: big * (x1 + x2),
                      lambda: big ** 2, lambda: big.substitute({"x1": 3 * x1, "x2": x2})):
            with pytest.raises(poly.BudgetError, match="bits, over the budget of 10000"):
                grown()

    def test_unbounded_coefficients_are_refused_before_any_work(self):
        # (x1 + zeta)^(10^6) took 27 s to be refused while the radix bound
        # was formed from a 10^6-bit integer, and 3^(10^8) in a monomial
        # image's fold ran for minutes: each is refused within 0.1 s, in a
        # bounded interpreter
        code = ("import time\n"
                "from fractions import Fraction\n"
                "from cremona.coeffs import Cyclotomic\n"
                "from cremona.poly import BudgetError, LaurentPoly\n"
                "V = ('x1', 'x2')\n"
                "x1, x2 = LaurentPoly.variable(V, 'x1'), LaurentPoly.variable(V, 'x2')\n"
                "zeta = LaurentPoly.constant(V, Cyclotomic.zeta(3))\n"
                "F = x1 ** 10 ** 8 - x2 ** 10 ** 8\n"
                "for expand in (lambda: (x1 + zeta) ** 10 ** 6,\n"
                "               lambda: (x1 * Fraction(1, 3) + 1) ** 10 ** 8,\n"
                "               lambda: F.substitute({'x1': 3 * x1, 'x2': x2}),\n"
                "               lambda: F.substitute({'x1': x1 + zeta * x2, 'x2': x2},\n"
                "                                    zero_test=True)):\n"
                "    t0 = time.perf_counter()\n"
                "    try:\n"
                "        expand()\n"
                "        print('expanded')\n"
                "    except BudgetError as exc:\n"
                "        print('bits' in str(exc), time.perf_counter() - t0 < 0.1)\n")
        done = bounded_python(["-c", code])
        assert done.stdout.splitlines() == ["True True"] * 4, done.stderr


def bit_coeffs(max_numerator):
    fractions = st.builds(Fraction, st.integers(-max_numerator, max_numerator), st.integers(1, 40))
    return {
        "Q": fractions,
        "Q(zeta3)": st.lists(fractions, min_size=2, max_size=2).map(
            lambda cs: Cyclotomic(3, tuple(cs))),
        "Q(zeta5)": st.lists(fractions, min_size=4, max_size=4).map(
            lambda cs: Cyclotomic(5, tuple(cs))),
        "params": st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), fractions,
                                  min_size=1, max_size=3).map(
            lambda d: ParamCoeff(LaurentPoly(("t1", "t2"), d)))}


@pytest.mark.parametrize("domain", ["Q", "Q(zeta3)", "Q(zeta5)", "params"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitute_coefficients_fit_the_checked_bound(domain, data):
    # F = c * x1^a * x2^b * x3^c, b >= 1, with x1 -> a monomial (a may be
    # negative outside parameters) and x2, x3 -> multi-term images: one
    # signature with a hat power, whose check, the last bound the expansion
    # takes, covers every coefficient of the result; over Q(zeta_e) a
    # product's coordinates may take a factor R_e, the largest L1 norm of a
    # reduced zeta^z
    coeffs = bit_coeffs(2 ** 12)[domain].filter(bool)
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    images = {"x1": LaurentPoly(U2, {data.draw(exps): data.draw(coeffs)}),
              "x2": LaurentPoly(U2, data.draw(st.dictionaries(exps, coeffs, min_size=2,
                                                              max_size=3))),
              "x3": LaurentPoly(U2, data.draw(st.dictionaries(exps, coeffs, min_size=2,
                                                              max_size=3)))}
    e = (data.draw(st.integers(0 if domain == "params" else -3, 3)),  # parameter sums have no inverse
         data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)))
    F = LaurentPoly(V3, {e: data.draw(coeffs)})
    checked, real = [], poly._bits
    with patch.object(poly, "_bits", lambda factors: checked.append(real(factors)) or checked[-1]):
        got = F.substitute(images)
    assert got == reference_substitute(F, images)
    order = {"Q(zeta3)": 3, "Q(zeta5)": 5}.get(domain)
    slack = 0 if order is None else max(
        sum(map(abs, _reduce_vector(order, [0] * z + [1]))) for z in range(order)).bit_length()
    assert checked
    assert all(held_bits(c) <= checked[-1] + slack for c in got.terms.values())


U3 = ("u1", "u2", "u3")
# one coefficient type per domain, so that the reference's types are the
# result's: it keeps a Fraction where the expansion lifts it into Q(zeta_e)
MULTI_COEFFS = {"Q": small_fractions, "Q(zeta3)": cyclotomics(3), "Q(zeta5)": cyclotomics(5),
                "params over Q(zeta3)": st.dictionaries(
                    st.tuples(st.integers(0, 2), st.integers(0, 2)), cyclotomics(3).filter(bool),
                    min_size=1, max_size=2).map(lambda d: ParamCoeff(LaurentPoly(("t1", "t2"), d))),
                "F_7": st.integers(1, 6).map(lambda v: FpElem(7, v))}


@pytest.mark.parametrize("case", ["cancellation", "one-term twin", "no common part"])
@pytest.mark.parametrize("domain", MULTI_COEFFS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_multi_signature_substitute_matches_reference(domain, case, data):
    # the linear model of F = x1*A + B scaled by c*u^m, a Laurent monomial:
    # x1 -> -c*u^m*B and x_j -> c*u^m*u_(j-1)*A, so the images have two hats
    # and every signature shares A^a; x5 -> a monomial.  Its terms vanish
    # as one inner sum, a twin's extra term survives it, and targets that
    # keep the hats apart have signatures with no common part
    coeffs = MULTI_COEFFS[domain].filter(bool)
    a = data.draw(st.integers(1, 2))

    def form(degree):  # 2-4 terms of one degree in three variables
        monos = [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) == degree]
        return data.draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=2,
                                         max_size=4))

    A, B = form(a), form(a + 1)
    c = data.draw(coeffs)
    m = data.draw(st.tuples(*[st.integers(-2, 2)] * 3))
    scaled = [LaurentPoly(U3, {tuple(x + (i == j) for i, x in enumerate(m)): c})
              for j in range(-1, 3)]
    images = {"x1": -scaled[0] * LaurentPoly(U3, B),
              **{f"x{j + 2}": scaled[j + 1] * LaurentPoly(U3, A) for j in range(3)},
              "x5": LaurentPoly(U3, {data.draw(st.tuples(*[st.integers(-2, 2)] * 3)):
                                     data.draw(coeffs)})}
    shifts = data.draw(st.sets(st.integers(0, 2), min_size=1))
    if case == "no common part":  # a term in x1 alone and one in x2..x4 alone, at least
        in_b = st.tuples(st.integers(1, 2), st.just((0, 0, 0)))
        in_a = st.tuples(st.just(0), st.tuples(*[st.integers(0, 2)] * 3).filter(any))
        keys = [data.draw(in_b), data.draw(in_a)] + data.draw(
            st.lists(st.one_of(in_b, in_a, st.just((0, (0, 0, 0)))), max_size=4))
        F = LaurentPoly(V5, {(i, *f, data.draw(st.sampled_from(sorted(shifts)))): data.draw(coeffs)
                             for i, f in keys})
    else:
        F = LaurentPoly(V5, {**{(1, *f, k): v for f, v in A.items() for k in shifts},
                             **{(0, *f, k): v for f, v in B.items() for k in shifts}})
        if case == "one-term twin":
            f = data.draw(st.sampled_from(list(A) + list(B)))
            k = data.draw(st.integers(0, 2))
            F = F + LaurentPoly(V5, {(int(sum(f) == a), *f, k): data.draw(coeffs)})
    got = F.substitute(images)
    want = reference_substitute(F, images)
    assert got == want
    assert poly_str(got) == poly_str(want)
    assert typed_terms(got) == typed_terms(want)
    if case == "cancellation":
        assert not got
    elif case == "one-term twin":
        assert got


# every domain's coefficients; parameter ones of two or three terms, so that
# monomial images fold by products of parameter polynomials, which run
# expansions nested in the caller's
VARIETY_COEFFS = dict(RING_COEFFS, params=st.one_of(small_fractions, st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_fractions.filter(bool),
    min_size=2, max_size=3).map(lambda d: ParamCoeff(LaurentPoly(("t1", "t2"), d)))))


@pytest.mark.parametrize("case", ["monomials", "model", "twin"])
@pytest.mark.parametrize("domain", VARIETY_COEFFS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_on_variety_is_the_zero_test_of_the_full_expansion(domain, case, data):
    # on_variety stops at the expansion's inner sum; its verdict must be
    # that of the whole composite.  The components are Laurent monomials of
    # degree a + 1, or the linear model of x1*A + B scaled by c*u^m (two
    # hats, every signature sharing A^a) beside a scaled monomial, under
    # targets that vanish on it or add one term
    coeffs = VARIETY_COEFFS[domain].filter(bool)
    a = data.draw(st.integers(1, 2))

    def monomial():
        e = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        return LaurentPoly(U3, {(*e, a + 1 - sum(e)): data.draw(coeffs)})

    def form(degree):  # 2-4 terms of one degree in three variables
        monos = [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) == degree]
        return data.draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=2,
                                         max_size=4))

    if case == "monomials":
        comps = [monomial() for _ in V5]
        F = LaurentPoly(V5, data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * 5), coeffs, min_size=1, max_size=4)))
    else:
        A, B = form(a), form(a + 1)
        c = data.draw(coeffs)
        m = data.draw(st.tuples(*[st.integers(-2, 2)] * 3))
        scaled = [LaurentPoly(U3, {tuple(x + (i == j) for i, x in enumerate(m)): c})
                  for j in range(-1, 3)]
        comps = [-scaled[0] * LaurentPoly(U3, B),
                 *(scaled[j + 1] * LaurentPoly(U3, A) for j in range(3)),
                 scaled[0] * monomial()]
        shifts = data.draw(st.sets(st.integers(0, 2), min_size=1))
        F = LaurentPoly(V5, {**{(1, *f, k): v for f, v in A.items() for k in shifts},
                             **{(0, *f, k): v for f, v in B.items() for k in shifts}})
        if case == "twin":
            f = data.draw(st.sampled_from(list(A) + list(B)))
            F = F + LaurentPoly(V5, {(int(sum(f) == a), *f, data.draw(st.integers(0, 2))):
                                     data.draw(coeffs)})
    rmap = RationalMap(comps)
    composite = F.substitute(dict(zip(V5, rmap.components)))
    assert on_variety(rmap, F) is (not composite)
    if case == "model":
        assert not composite


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
