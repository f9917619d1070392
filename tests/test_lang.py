import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona.coeffs import Cyclotomic, ParamCoeff
from cremona.coeffs import PRIME_TEST_BOUND
from cremona.lang import (POWER_BIT_BUDGET, POWER_WORK_BUDGET, ParseError, ProblemSpec,
                          _coeff_size, _power_bit_bound, _power_term_bound,
                          _product_term_bound, parse_input, parse_poly, render_spec)
from cremona.poly import LaurentPoly, poly_str
from helpers_reference import reference_mul, reference_parse_poly, reference_pow

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

    def test_large_prime_parses_quickly(self):
        t0 = time.perf_counter()
        spec = parse_input("vars x1\nprime 1000000000000000003\n")
        assert time.perf_counter() - t0 < 1
        assert spec.primes == (1000000000000000003,)

    def test_prime_past_the_test_bound_is_positioned(self):
        with pytest.raises(ParseError, match="bound") as exc:
            parse_input(f"vars x1\nprime  {PRIME_TEST_BOUND}\n")
        assert (exc.value.line, exc.value.col) == (2, 8)

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

    @pytest.mark.parametrize("text,line,col,message", [
        ("vars x1 x1 x2\n", 1, 9, "variable 'x1' declared twice"),
        ("params t1 t2 t1\n", 1, 14, "parameter 't1' declared twice"),
        ("vars x1 t\nparams t\n", 2, 8, "parameter 't' is already declared as a variable"),
        ("params t\nvars x1 t\n", 2, 9, "variable 't' is already declared as a parameter"),
        ("vars x1\npoly F = x1\npoly F = x1^2\n", 3, 6, "poly 'F' declared twice"),
        ("vars x1\npoly F = x1\nmap M = F\nmap M = F, F\n", 4, 5, "map 'M' declared twice"),
    ], ids=["vars", "params", "param-after-vars", "var-after-params", "poly", "map"])
    def test_duplicate_name_is_positioned(self, text, line, col, message):
        with pytest.raises(ParseError) as exc:
            parse_input(text)
        assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)

    def test_zero_cyclotomic_order_is_refused_at_its_line(self):
        with pytest.raises(ParseError) as exc:
            parse_input("vars x1\nzeta e=0\npoly F = zeta*x1\n")
        assert (exc.value.line, exc.value.col) == (2, 8)
        assert exc.value.message == "cyclotomic order must be positive"

    def test_only_ascii_digits(self):
        # U+0663 is a decimal digit to str.isdigit and to the re module's \d
        with pytest.raises(ParseError) as exc:
            parse_input("vars x1\npoly F = \u0663*x1\n")
        assert (exc.value.line, exc.value.col) == (2, 10)
        assert exc.value.message == "unexpected character '\u0663'"


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
        assert _power_term_bound(atom.terms, exp) >= n_terms

    def test_power_within_bit_budget(self):
        # 2^5000 sits exactly at the budget; 2^5001 is refused
        assert _power_bit_bound(parse_poly("2", ("x1",)).terms, 5000) == POWER_BIT_BUDGET
        assert parse_poly("2^5000*x1", ("x1",)) == \
            LaurentPoly(("x1",), {(1,): Fraction(2 ** 5000)})
        assert parse_poly("(-1/2)^-4999*x1^-3", ("x1",)) == \
            LaurentPoly(("x1",), {(-3,): Fraction(-2 ** 4999)})
        # powers of +/-1 and of zeta stay small whatever the exponent
        assert parse_poly("(-1)^999999999*x1^999999999", ("x1",)) == \
            LaurentPoly(("x1",), {(999999999,): Fraction(-1)})
        assert parse_poly("zeta^999999999*x1", ("x1",), zeta_order=5) == \
            parse_poly("zeta^4*x1", ("x1",), zeta_order=5)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2),
                              st.fractions(max_denominator=12).filter(bool)),
                    min_size=1, max_size=3),
           st.booleans(), st.integers(0, 6))
    def test_power_bit_bound_is_an_upper_bound(self, terms, with_param, exp):
        params = ("t1",) if with_param else ()
        text = " + ".join(f"({c})*x1^{a}*{'t1' if with_param else 'x2'}^{b}"
                          for a, b, c in terms)
        atom = parse_poly(text, ("x1", "x2"), params)
        rationals = []
        for c in (atom ** exp).terms.values():
            rationals += [v for _, v in c.terms] if isinstance(c, ParamCoeff) else [c]
        bits = max((max(abs(r.numerator), r.denominator).bit_length() for r in rationals),
                   default=0)
        assert _power_bit_bound(atom.terms, exp) >= bits

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
        assert _product_term_bound(a.terms, b.terms) >= n_terms
        with patch("cremona.lang.POWER_TERM_BUDGET", 0):  # measure the boxes too
            assert _product_term_bound(a.terms, b.terms) >= n_terms

    @settings(max_examples=150, deadline=None)
    @given(*[st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2),
                                st.fractions(max_denominator=12).filter(bool)),
                      min_size=0, max_size=3)] * 2, st.booleans())
    def test_product_bit_bound_is_an_upper_bound(self, left, right, with_param):
        # the product refuses a * b when m_a * m_b, with m the _coeff_size,
        # needs more bits than the budget
        params = ("t1",) if with_param else ()
        a, b = (parse_poly(" + ".join(f"({c})*x1^{i}*{'t1' if with_param else 'x2'}^{j}"
                                      for i, j, c in side) or "0", ("x1", "x2"), params)
                for side in (left, right))
        rationals = []
        for c in reference_mul(a, b).terms.values():
            rationals += [v for _, v in c.terms] if isinstance(c, ParamCoeff) else [c]
        bound = _coeff_size(a.terms) * _coeff_size(b.terms)
        assert all(max(abs(r.numerator), r.denominator) <= bound for r in rationals)

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


SRC = str(Path(__file__).resolve().parents[1] / "src")


def bounded_python(args, seconds=30, memory=1 << 30):
    """Run ``python args`` on this tree in a fresh interpreter, with a time
    limit and an address-space limit, so that an unbounded parse cannot
    stall or exhaust the test process."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=seconds, preexec_fn=limit, env=env)


def test_power_over_bit_budget_is_positioned():
    # without the budget some of these run for minutes or exhaust memory, so
    # they are parsed in a bounded interpreter, never in this one
    cases = [("x1 + 2^999999999", 7), ("2^5001*x1", 2), ("(2*x1)^-99999", 7),
             ("(1 + zeta)^999999999", 11), ("(x1 + 3*x1^2)^9000", 14),
             ("3^" + "9" * 400, 2)]
    code = ("import sys\n"
            "from cremona.lang import ParseError, parse_poly\n"
            "for text in sys.argv[1:]:\n"
            "    try:\n"
            "        parse_poly(text, ('x1',), zeta_order=5)\n"
            "        print('parsed')\n"
            "    except ParseError as exc:\n"
            "        print(exc.line, exc.col, 'bit' in exc.message)\n")
    done = bounded_python(["-c", code, *(text for text, _ in cases)])
    assert done.stdout.splitlines() == [f"1 {col} True" for _, col in cases], done.stderr


def test_power_over_work_budget_is_positioned():
    # inside the term and bit budgets, but (x1+x2)^5000 expands for about
    # 24 s, so these are parsed in a bounded interpreter and must fail fast
    cases = [("(x1 + x2)^5000", 10), ("x1*(x1 + x2)^1225", 13),
             ("(x1 + x2^-1 + 3)^130", 17)]
    code = ("import sys, time\n"
            "from cremona.lang import ParseError, parse_poly\n"
            "for text in sys.argv[1:]:\n"
            "    t0 = time.perf_counter()\n"
            "    try:\n"
            "        parse_poly(text, ('x1', 'x2'))\n"
            "        print('parsed')\n"
            "    except ParseError as exc:\n"
            "        print(exc.line, exc.col, '3000000' in exc.message,\n"
            "              time.perf_counter() - t0 < 1)\n")
    done = bounded_python(["-c", code, *(text for text, _ in cases)])
    assert done.stdout.splitlines() == [f"1 {col} True True" for _, col in cases], done.stderr


def test_power_within_work_budget():
    # 100 * 5,151 * 3 term products: parsed in well under a second
    assert len(parse_poly("(x1 + x2 + x3)^100", ("x1", "x2", "x3")).terms) == 5151
    assert _power_term_bound(parse_poly("x1 + x2", ("x1", "x2")).terms, 1224) * 1224 * 2 \
        <= POWER_WORK_BUDGET


def test_product_over_work_or_bit_budget_is_positioned():
    # inside the term budget (their summed boxes are small), but the first
    # case parsed for about 30 s before the product budgets: its last product
    # takes 2,401 x 2,401 term pairs of 2,400-bit coefficients.  Parsed in a
    # bounded interpreter, never in this one.
    cases = [("((x1+1)^1200*(x1+1)^1200)*((x1+1)^1200*(x1+1)^1200)", 13, "3000000"),
             ("(x1 + 1)^600*(x1 - 1)^600", 13, "3000000"),
             ("x1*(2^5000*x1 + 1)*(2^5000*x2 + 1)", 19, "bit")]
    code = ("import sys\n"
            "from cremona.lang import ParseError, parse_poly\n"
            "for text, word in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    try:\n"
            "        parse_poly(text, ('x1', 'x2'))\n"
            "        print('parsed')\n"
            "    except ParseError as exc:\n"
            "        print(exc.line, exc.col, word in exc.message)\n")
    done = bounded_python(["-c", code, *(arg for text, _, word in cases for arg in (text, word))])
    assert done.stdout.splitlines() == [f"1 {col} True" for _, col, _ in cases], done.stderr


def test_product_within_work_budget():
    # 441 x 441 term pairs of 441-bit coefficients, 14 words a pair: 2,722,734
    assert parse_poly("(x1 + 1)^440*(x1 + 1)^440", ("x1",)) == parse_poly("(x1 + 1)^880", ("x1",))
    with pytest.raises(ParseError, match="3000000"):  # 451 x 451 pairs, 15 words a pair
        parse_poly("(x1 + 1)^450*(x1 + 1)^450", ("x1",))


def test_huge_constant_power_cli_exit_code(tmp_path):
    f = tmp_path / "huge.crm"
    f.write_text("vars x1 x2\npoly F = x1^3 + 2^999999999*x2^3\n")
    done = bounded_python(["-m", "cremona", "transform", str(f)])
    assert done.returncode == 2
    assert "parse error: line 2, column 18" in done.stderr


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


# ---------------------------------------------------------------------------
# the parser against an evaluation of expression trees
# ---------------------------------------------------------------------------

TREE_VARS = ("x1", "x2")


def _leaves(params, zeta_order, nonzero=False):
    """Atoms: integers, rationals, variables, parameters and zeta; for the
    base of a negative power only nonzero scalars, variables and zeta."""
    low = 1 if nonzero else 0
    options = [st.integers(low, 9).map(lambda n: ("int", n)),
               st.tuples(st.integers(low, 9), st.integers(1, 9)).map(lambda t: ("rat",) + t),
               st.sampled_from(TREE_VARS).map(lambda v: ("var", v))]
    if params and not nonzero:
        options.append(st.sampled_from(params).map(lambda t: ("param", t)))
    if zeta_order:
        options.append(st.just(("zeta",)))
    return st.one_of(options)


@st.composite
def expression_trees(draw):
    """(tree, params, zeta order): sums, differences, unary minus,
    parentheses, products and powers over the atoms, with negative powers
    of monomials."""
    params = ("t1", "t2")[:draw(st.integers(0, 2))]
    zeta_order = draw(st.sampled_from([None, 3, 4, 5]))
    monomials = st.lists(_leaves(params, zeta_order, nonzero=True), min_size=1, max_size=3).map(
        lambda fs: fs[0] if len(fs) == 1 else ("paren", _product_tree(fs)))
    negative_powers = st.tuples(monomials, st.integers(-3, -1)).map(lambda t: ("pow",) + t)
    tree = draw(st.recursive(
        _leaves(params, zeta_order) | negative_powers,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul"]), kids, kids),
            kids.map(lambda k: ("neg", k)),
            kids.map(lambda k: ("paren", k)),
            st.tuples(kids, st.integers(0, 3)).map(lambda t: ("pow",) + t)),
        max_leaves=8))
    return tree, params, zeta_order


def _product_tree(factors):
    tree = factors[0]
    for f in factors[1:]:
        tree = ("mul", tree, f)
    return tree


# binding strength of each node as written: a sum, a product, a signed or
# raised factor, an atom
_LEVEL = {"add": 0, "sub": 0, "mul": 1, "neg": 2, "pow": 2}


def _render(tree, level=0) -> str:
    """The tree as input text, parenthesized only where the grammar needs
    it (and at ``paren`` nodes)."""
    kind = tree[0]
    if kind == "int":
        text = str(tree[1])
    elif kind == "rat":
        text = f"{tree[1]}/{tree[2]}"
    elif kind in ("var", "param"):
        text = tree[1]
    elif kind == "zeta":
        text = "zeta"
    elif kind == "paren":
        text = f"({_render(tree[1])})"
    elif kind in ("add", "sub"):
        text = f"{_render(tree[1], 0)} {'+' if kind == 'add' else '-'} {_render(tree[2], 1)}"
    elif kind == "mul":
        text = f"{_render(tree[1], 1)}*{_render(tree[2], 2)}"
    elif kind == "neg":
        text = "-" + _render(tree[1], 2)
    else:
        text = f"{_render(tree[1], 3)}^{tree[2]}"
    return f"({text})" if _LEVEL.get(kind, 3) < level else text


def _evaluate(tree, params, zeta_order) -> LaurentPoly:
    """The tree's value by LaurentPoly's sum and negation and the reference
    product and power."""
    def ev(t):
        kind = t[0]
        if kind in ("int", "rat"):
            return LaurentPoly.constant(TREE_VARS, Fraction(*t[1:]))
        if kind == "var":
            return LaurentPoly.variable(TREE_VARS, t[1])
        if kind == "param":
            return LaurentPoly.constant(TREE_VARS, ParamCoeff.param(params, t[1]))
        if kind == "zeta":
            return LaurentPoly.constant(TREE_VARS, Cyclotomic.zeta(zeta_order))
        if kind == "paren":
            return ev(t[1])
        if kind == "add":
            return ev(t[1]) + ev(t[2])
        if kind == "sub":
            return ev(t[1]) - ev(t[2])
        if kind == "mul":
            return reference_mul(ev(t[1]), ev(t[2]))
        if kind == "neg":
            return -ev(t[1])
        return reference_pow(ev(t[1]), t[2])
    return ev(tree)


@settings(max_examples=300, deadline=None)
@given(expression_trees())
@example((("sub", ("pow", ("neg", ("var", "x1")), 2), ("neg", ("pow", ("rat", 2, 3), -2))),
          (), None))  # (-x1)^2 - -2/3^-2: signs, powers and a rational token
def test_parse_matches_tree_evaluation(case):
    tree, params, zeta_order = case
    text = _render(tree)
    expected = _evaluate(tree, params, zeta_order)
    parsed = parse_poly(text, TREE_VARS, params, zeta_order)
    assert parsed == expected, text
    assert poly_str(parsed) == poly_str(expected), text


# ---------------------------------------------------------------------------
# the parser against the recursive-descent parser it replaced
# ---------------------------------------------------------------------------

def _parse_outcome(parse, text, params, zeta_order):
    """What a parser makes of the text: the polynomial (with its rendering
    and typed coefficients) or the diagnostic."""
    try:
        p = parse(text, TREE_VARS, params, zeta_order)
    except ParseError as exc:
        return "error", exc.message, exc.line, exc.col, exc.expected
    return "poly", p, poly_str(p), sorted((e, repr(c)) for e, c in p.terms.items())


@st.composite
def parser_inputs(draw):
    """Rendered expression trees, as they are or with one mutation: a
    dropped ")", a doubled operator, a stray "@", a negative power of a
    sum, a power or a product over a budget."""
    tree, params, zeta_order = draw(expression_trees())
    text = _render(tree)
    kind = draw(st.sampled_from(["none", "paren", "operator", "stray", "inverse",
                                 "power", "product-bits", "product-terms"]))
    if kind == "paren":
        closing = [i for i, ch in enumerate(text) if ch == ")"]
        if closing:
            i = draw(st.sampled_from(closing))
            text = text[:i] + text[i + 1:]
        else:
            text = f"({text}"
    elif kind == "operator":
        ops = [i for i, ch in enumerate(text) if ch in "+-*^"]
        if ops:
            i = draw(st.sampled_from(ops))
            text = text[:i + 1] + text[i:]
    elif kind == "stray":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + "@" + text[i:]
    elif kind == "inverse":
        text = f"({text} + x2)^-1"
    elif kind == "power":
        text = f"({text} + x1 + x2 + 1)^3000"
    elif kind == "product-bits":
        text = f"({text})*2^5000*2^5000"
    elif kind == "product-terms":
        params = ("t1", "t2")
        text = f"({text})*(x1 + x2 + t1 + t2)^8*(x1 - x2 + t1 - t2)^8"
    return text, params, zeta_order


@settings(max_examples=300, deadline=None)
@given(parser_inputs())
@example(("(5 + 2*zeta)*x1^7*x2^3 - zeta*x1^4 + 3*x2^-2", (), 3))
@example(("x1*(2^5000*x1 + 1)*(2^5000*x2 + 1)", (), None))  # bit budget, dict by dict
@example(("2^5000*x1*2^5000", (), None))  # bit budget, monomial by monomial
@example(("0*2^5000*2^5000 + 2^5000*0*2^5000", (), None))  # a zero factor is no term
@example(("x1^0*2 - (x1 + x2 - x2)*t1 + -(-x2)^2*t2^2", ("t1", "t2"), None))
@example(("x1*(t1 + t2)^8*(t1 - t2)^150", ("t1", "t2"), None))  # term budget
@example(("(x1 + 2)^-1 + 1/0", (), None))
@example(("(0 + x2)^-1 - 0^0*(x1 - x1 + x2)^-1", (), None))  # zero atoms hold no term
@example(("9" * 3100 + "*(x1)*(x2^2)", (), None))  # a factor of coefficient 1 only shifts
@example(("9" * 3100 + "*(x1)*(2*x2)", (), None))  # any other is measured
def test_parse_matches_reference_parser(case):
    text, params, zeta_order = case
    assert _parse_outcome(parse_poly, text, params, zeta_order) == \
        _parse_outcome(reference_parse_poly, text, params, zeta_order), text
