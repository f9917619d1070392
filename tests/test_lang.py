from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona.coeffs import Cyclotomic, ParamCoeff
from cremona.lang import (ParseError, ProblemSpec, _power_term_bound,
                          _product_term_bound, parse_input, parse_poly, render_spec)
from cremona.poly import LaurentPoly

LONG = "9" * 5000  # past the default_digit_limit fixture's 4,300 digits

EX1_TEXT = """\
vars x1 x2 x3 x4 x5
params t1 t2
group e=3 gen [1,2,0,0,0]
poly F = t1*x1^3 + t2*x2^3 + x1*x2*x3
chart x5
"""


class TestParseInput:
    def test_basic_shape(self):
        spec = parse_input(EX1_TEXT)
        assert spec.variables == ("x1", "x2", "x3", "x4", "x5")
        assert spec.params == ("t1", "t2")
        assert spec.generators == ((3, (1, 2, 0, 0, 0)),)
        assert spec.chart == "x5" and spec.chart_index() == 4
        F = spec.polys["F"]
        assert F == parse_poly("t1*x1^3 + t2*x2^3 + x1*x2*x3",
                               spec.variables, spec.params)

    def test_zeta_from_group_order(self):
        spec = parse_input("vars x1 x2\ngroup e=3 gen [1,2]\npoly F = zeta*x1\n")
        coeff = next(iter(spec.polys["F"].terms.values()))
        assert coeff == Cyclotomic.zeta(3)

    def test_zeta_without_order_rejected(self):
        with pytest.raises(ParseError):
            parse_input("vars x1\npoly F = zeta*x1\n")

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError) as exc:
            parse_input("vars x1 x2 x3 x4 x5\ngroup e=3 gen [1,2,0]\n")
        assert "3 entries" in str(exc.value)

    def test_non_prime_modulus(self):
        with pytest.raises(ParseError) as exc:
            parse_input("vars x1\nprime 9\n")
        assert "non-prime" in str(exc.value)

    def test_unknown_identifier_diagnostic(self):
        with pytest.raises(ParseError) as exc:
            parse_input("vars x1 x2\npoly F = x1 + y9\n")
        err = exc.value
        assert err.line == 2 and err.col > 0
        assert err.expected  # expected-token set is populated

    def test_lexical_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_input("vars x1\npoly F = x1 @ 2\n")
        assert exc.value.line == 2

    def test_comments_and_blanks(self):
        spec = parse_input("# heading\n\nvars x1 x2  # trailing\npoly F = x1*x2\n")
        assert "F" in spec.polys

    def test_basis_and_primes(self):
        spec = parse_input(
            "vars x1 x2 x3\nbasis [1,0; 0,1]\nprime 7\nprime 11\n")
        assert spec.basis == ((1, 0), (0, 1))
        assert spec.primes == (7, 11)

    def test_map_declaration(self):
        spec = parse_input(
            "vars x1 x2\npoly A = x1^2\npoly B = x1*x2\nmap M = A, B\n")
        assert spec.maps["M"] == ("A", "B")

    def test_map_unknown_component(self):
        with pytest.raises(ParseError):
            parse_input("vars x1 x2\npoly A = x1\nmap M = A, C\n")


class TestExpressions:
    def test_rationals_and_signs(self):
        p = parse_poly("-1/2*x1^2 + 3 - x2^-1", ("x1", "x2"))
        # graded lex: the Laurent term has total degree -1 and sorts last
        assert str(p) == "-1/2*x1^2 + 3 - x2^-1"

    def test_parenthesized_products(self):
        p = parse_poly("(x1 + x2)*(x1 - x2)", ("x1", "x2"))
        assert p == parse_poly("x1^2 - x2^2", ("x1", "x2"))

    def test_power_of_sum(self):
        p = parse_poly("(x1 + x2)^2", ("x1", "x2"))
        assert p == parse_poly("x1^2 + 2*x1*x2 + x2^2", ("x1", "x2"))

    def test_negative_power_of_sum_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("(x1 + x2)^-1", ("x1", "x2"))

    def test_negative_power_of_sum_is_positioned(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("(x1 + x2)^-1", ("x1", "x2"))
        assert (exc.value.line, exc.value.col) == (1, 10)  # the "^"

    def test_power_over_term_budget_is_positioned(self):
        # 70,058,751 terms: refused before any expansion starts
        with pytest.raises(ParseError, match="budget") as exc:
            parse_input("vars x1 x2 x3 x4 x5\npoly F = x1 + (x1+x2+x3+x4+x5)^200\n")
        assert (exc.value.line, exc.value.col) == (2, 31)  # the "^"
        with pytest.raises(ParseError, match="budget"):
            parse_poly("(t1 + t2 + t3 + t4 + t5)^200*x1", ("x1",), ("t1", "t2", "t3", "t4", "t5"))

    def test_power_within_term_budget(self):
        # a binary sum to a high power has few terms, whatever its box
        assert len(parse_poly("(x1 + x2)^120", ("x1", "x2")).terms) == 121

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 1)),
                    min_size=1, max_size=4),
           st.integers(0, 5))
    @example([(0, 0, 0), (0, 0, 1), (0, 1, 0)], 2)  # x2 + (t1 + 1): mixed coefficients
    def test_power_term_bound_is_an_upper_bound(self, monomials, exp):
        text = " + ".join(f"x1^{a}*x2^{b}*t1^{c}" for a, b, c in monomials)
        atom = parse_poly(text, ("x1", "x2"), ("t1",))
        power = atom ** exp
        n_terms = sum(len(c.terms) if isinstance(c, ParamCoeff) else 1
                      for c in power.terms.values())
        assert _power_term_bound(atom, exp) >= n_terms

    def test_product_over_term_budget_is_positioned(self):
        # two 1,001-term factors: 1,002,001 term pairs, refused before multiplying
        with pytest.raises(ParseError, match="budget") as exc:
            parse_poly("(x1+x2+x3+x4+x5)^10*(x1+x2+x3+x4+x5)^10",
                       ("x1", "x2", "x3", "x4", "x5"))
        assert (exc.value.line, exc.value.col) == (1, 20)  # the "*"
        with pytest.raises(ParseError, match="budget") as exc:
            parse_poly("x1*(t1+t2+t3+t4)^8*(t1-t2+t3-t4)^8", ("x1",), ("t1", "t2", "t3", "t4"))
        assert (exc.value.line, exc.value.col) == (1, 19)

    def test_product_within_term_budget(self):
        # 151 * 151 term pairs, but the summed box holds only 301 monomials
        p = parse_poly("(x1 + 1)^150*(x1 - 1)^150", ("x1",))
        assert p == parse_poly("(x1^2 - 1)^150", ("x1",))

    @settings(max_examples=150, deadline=None)
    @given(*[st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 1)),
                      min_size=0, max_size=4)] * 2)
    @example([(0, 0, 0), (0, 0, 1)], [(0, 1, 0)])  # (t1 + 1) * x2: mixed coefficients
    def test_product_term_bound_is_an_upper_bound(self, left, right):
        a, b = (parse_poly(" + ".join(f"x1^{i}*x2^{j}*t1^{k}" for i, j, k in side) or "0",
                           ("x1", "x2"), ("t1",)) for side in (left, right))
        product = a * b
        n_terms = sum(len(c.terms) if isinstance(c, ParamCoeff) else 1
                      for c in product.terms.values())
        assert _product_term_bound(a, b) >= n_terms
        with patch("cremona.lang.POWER_TERM_BUDGET", 0):  # measure the boxes too
            assert _product_term_bound(a, b) >= n_terms

    def test_zero_denominator_is_positioned(self):
        with pytest.raises(ParseError) as exc:
            parse_input("vars x1\npoly F = x1 + 1/0*x1\n")
        assert (exc.value.line, exc.value.col) == (2, 15)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("x1 + ", ("x1",))


@pytest.mark.parametrize("text,line,col", [
    ("vars x1 x2\npoly F = x1^" + LONG + " + x2\n", 2, 13),
    ("vars x1 x2\npoly F = x1^-" + LONG + " + x2\n", 2, 14),
    ("vars x1 x2\npoly F = " + LONG + "*x1 + x2\n", 2, 10),
    ("vars x1 x2\npoly F = " + LONG + "/3*x1 + x2\n", 2, 10),
    ("vars x1 x2\npoly F = 1/" + LONG + "*x1 + x2\n", 2, 10),
    ("vars x1 x2\nzeta e=" + LONG + "\n", 2, 8),
    ("vars x1 x2\ngroup e=" + LONG + " gen [1,0]\n", 2, 9),
    ("vars x1 x2\ngroup e=3 gen [" + LONG + ",0]\n", 2, 16),
    ("vars x1 x2 x3\nbasis [1,-" + LONG + "; 0,1]\n", 2, 11),
    ("vars x1\nprime " + LONG + "\n", 2, 7),
], ids=["exponent", "negative-exponent", "integer", "numerator", "denominator",
        "zeta", "group-order", "generator-row", "basis-row", "prime"])
def test_long_integer_literal_is_positioned(default_digit_limit, text, line, col):
    with pytest.raises(ParseError, match="5000 digits") as exc:
        parse_input(text)
    assert (exc.value.line, exc.value.col) == (line, col)


ROUND_TRIP_SPECS = [
    parse_input(EX1_TEXT),
    parse_input("vars y1 y2 y3\nzeta e=3\npoly G = zeta*y1^2*y2 - y3^3\n"
                "poly H = y1*y2*y3\nmap M = G, H\nbasis [1,0; 1,1]\nprime 7\n"),
    parse_input("vars x1 x2 x3 x4 x5\ngroup e=3 gen [1,0,2,0,0]\n"
                "group e=3 gen [0,1,2,2,0]\nchart x5\n"
                "basis [1,0,1,-1; 0,1,0,1; 0,0,3,0; 0,0,0,3]\n"),
    ProblemSpec(variables=("a", "b"), params=("s",)),
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
def test_render_parse_round_trip(spec):
    assert parse_input(render_spec(spec)) == spec


PRIMES = (2, 3, 5, 7, 11, 13, 10007)


@st.composite
def problem_specs(draw):
    """Specs over Q, Q(zeta_e) and parameters over either, with generators,
    polys, maps, a chart, a basis and primes."""
    n = draw(st.integers(1, 4))
    variables = tuple(f"x{i + 1}" for i in range(n))
    params = tuple(f"t{i + 1}" for i in range(draw(st.integers(0, 2))))
    spec = ProblemSpec(variables=variables, params=params,
                       zeta_order=draw(st.none() | st.integers(1, 12)))
    row = st.tuples(*[st.integers(-7, 7)] * n)
    spec.generators = tuple(draw(st.lists(st.tuples(st.integers(1, 6), row), max_size=2)))
    e = spec.effective_zeta_order()
    for name in draw(st.lists(st.sampled_from("FGH"), unique=True)):
        p = LaurentPoly.zero(variables)
        for _ in range(draw(st.integers(0, 4))):
            exps = draw(st.tuples(*[st.integers(-2, 3)] * n))
            term = LaurentPoly.monomial(
                variables, exps, Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))))
            if e:
                term = term * LaurentPoly.constant(variables, Cyclotomic.zeta(e)) ** \
                    draw(st.integers(0, e - 1))
            for t in params:
                term = term * LaurentPoly.constant(
                    variables, ParamCoeff.param(params, t)) ** draw(st.integers(0, 2))
            p = p + term
        spec.polys[name] = p
    if spec.polys:
        for name in draw(st.lists(st.sampled_from("MN"), unique=True)):
            spec.maps[name] = tuple(draw(st.lists(st.sampled_from(sorted(spec.polys)),
                                                  min_size=1, max_size=3)))
    spec.chart = draw(st.none() | st.sampled_from(variables))
    if n > 1 and draw(st.booleans()):
        spec.basis = tuple(draw(st.tuples(*[st.integers(-5, 5)] * (n - 1)))
                           for _ in range(n - 1))
    spec.primes = tuple(draw(st.lists(st.sampled_from(PRIMES), max_size=2)))
    return spec


@settings(max_examples=200, deadline=None)
@given(problem_specs())
def test_render_parse_round_trip_property(spec):
    assert parse_input(render_spec(spec)) == spec
