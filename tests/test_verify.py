import dataclasses
import io
import itertools
import keyword
import random
import re
import tokenize
from fractions import Fraction

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona import verify as verify_module
from cremona.action import DiagonalAction, InvariantHypersurface
from cremona.lang import parse_poly
from cremona.pipeline import (MonomialBasis, RationalMap, cremona_step,
                              parametrize_linear)
from cremona.scenarios import (C3C3_ACTION, C3C3_BASIS, C7_PARAMS, EX1_ACTION, EX1_BASIS,
                               EX3_BASIS, PAIR_ACTION, c3c3_family, ex1_family, ex3_family)
from cremona.poly import LaurentPoly
from cremona.verify import (Refusal, compile_enumeration, compile_mod, default_prime,
                            diagonal_form_smooth, eval_compiled, fiber_histogram,
                            map_fiber_orbit_check, normalize_point, on_variety,
                            proj_point_count, proj_points, quotient_fiber_check, smooth_scan)
from helpers_reference import (reference_default_prime, reference_enumeration,
                               reference_eval_mod, reference_fibers,
                               reference_fiber_histogram, reference_map_fiber_orbit_check,
                               reference_smooth_scan, reference_substitute)

V3 = ("x1", "x2", "x3")
V5 = ("x1", "x2", "x3", "x4", "x5")


def P(text, variables=V5, params=(), zeta_order=None):
    return parse_poly(text, variables, params, zeta_order)


FERMAT = P("x1^3 + x2^3 + x3^3 + x4^3 + x5^3")


class TestEnumeration:
    @pytest.mark.parametrize("n,p", [(2, 5), (3, 7), (5, 7)])
    def test_point_counts(self, n, p):
        pts = list(proj_points(n, p))
        assert len(pts) == proj_point_count(n, p)
        assert len(set(pts)) == len(pts)

    def test_projective_accounting(self):
        assert proj_point_count(5, 7) == 2801


def outcome(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def eval_new(F, pt, p):
    return eval_compiled(compile_mod(F, p), pt, p)


PRIMES_5_37 = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def coefficient(p):
    # some coefficients vanish mod p
    return st.integers(-2 * p, 2 * p) | st.integers(-3, 3).map(lambda k: k * p)


@st.composite
def laurent_case(draw):
    # a Laurent polynomial in 1-6 variables, a prime 5-37 and a point; some
    # coefficients vanish mod p, and constants and the zero polynomial occur
    p = draw(st.sampled_from(PRIMES_5_37))
    n = draw(st.integers(1, 6))
    exps = st.tuples(*[st.integers(-3, 4)] * n) | st.just((0,) * n)
    terms = draw(st.lists(st.tuples(exps, coefficient(p)), max_size=8))
    F = LaurentPoly(tuple(f"x{i}" for i in range(n)), {e: Fraction(c) for e, c in terms})
    pt = draw(st.tuples(*[st.integers(-p, 2 * p)] * n))
    return F, pt, p


class TestCompiledEvaluator:
    @settings(max_examples=300, deadline=None)
    @given(laurent_case())
    def test_matches_reference(self, case):
        F, pt, p = case
        assert outcome(eval_new, F, pt, p) == outcome(reference_eval_mod, F, pt, p)

    def test_empty_and_constant(self):
        assert eval_new(LaurentPoly.zero(V3), (1, 2, 3), 7) == 0
        assert eval_new(LaurentPoly.constant(V3, Fraction(-3, 2)), (0, 0, 0), 7) == 2
        assert len(compile_mod(P("14*x1 + 7", V3), 7)) == 0

    def test_pole_exactly_at_zero_coordinate(self):
        F = P("x1^-2*x2 + x2^3 + 11*x3^-1", V3)
        for pt in itertools.product(range(-5, 6), repeat=3):
            pole = pt[0] % 5 == 0 or pt[2] % 5 == 0
            want = ZeroDivisionError if pole else reference_eval_mod(F, pt, 5)
            assert outcome(eval_new, F, pt, 5) == want
        # the x3^-1 term vanishes mod 11, so x3 = 0 is no pole there
        assert eval_new(F, (1, 2, 0), 11) == 2 + 8
        with pytest.raises(ZeroDivisionError):
            eval_new(F, (11, 2, 0), 11)

    def test_five_thousand_terms(self):
        rng = random.Random(4099)
        p = 31
        exps = rng.sample(list(itertools.product(range(-1, 9), repeat=4)), 5000)
        F = LaurentPoly(V3 + ("x4",), {e: Fraction(rng.randrange(1, p)) for e in exps})
        compiled = compile_mod(F, p)
        assert len(compiled) == 5000
        for _ in range(20):
            pt = tuple(rng.randrange(1, p) for _ in range(4))
            assert eval_compiled(compiled, pt, p) == reference_eval_mod(F, pt, p)
        with pytest.raises(ZeroDivisionError):
            eval_compiled(compiled, (1, 0, 1, 1), p)

    def test_exponents_beyond_p(self):
        # exponents past p - 1 reduce by Fermat, so the generated code holds
        # at most 2 * (p - 1) powers per variable whatever the degree
        F = P("3*x1^5003*x2^-4999 + x2^7 - x3^-6", V3)
        for p in (5, 7, 13):
            compiled = compile_mod(F, p)
            assert len(compiled.fn.__code__.co_varnames) <= 2 + 3 * 2 * (p - 1)
            for pt in itertools.product(range(p), repeat=3):
                assert outcome(eval_compiled, compiled, pt, p) == \
                    outcome(reference_eval_mod, F, pt, p)

    def test_prime_mismatch_rejected(self):
        compiled = compile_mod(FERMAT, 7)
        with pytest.raises(ValueError, match="F_7"):
            eval_compiled(compiled, (1, 2, 3, 4, 5), 11)


# ---------------------------------------------------------------------------
# generated enumerations against the per-point loops they replaced
# ---------------------------------------------------------------------------

POINT_LIMIT = 1000  # keeps the reference loops fast


def report_or_error(f, *args):
    """The report without its timing, or the type of the exception raised."""
    try:
        return dataclasses.replace(f(*args), elapsed_s=0)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def names(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(n))


@st.composite
def homogeneous(draw, variables, p, degree, polynomial=False, used=None):
    """A homogeneous polynomial of the given degree in the first ``used``
    variables (a cone when fewer than all), with exponents past p; Laurent
    unless ``polynomial``.  Up to six terms, so the zero polynomial occurs."""
    n = len(variables)
    used = n if used is None else used
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        if polynomial:
            cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=used - 1,
                                        max_size=used - 1)))
            head = [b - a for a, b in zip([0] + cuts, cuts)]
        else:
            head = draw(st.lists(st.integers(-3, p + 3), min_size=used - 1, max_size=used - 1))
        e = tuple(head) + (degree - sum(head),) + (0,) * (n - used)
        terms[e] = Fraction(draw(coefficient(p)))
    return LaurentPoly(variables, terms)


@st.composite
def prime_and_dimension(draw, count=proj_point_count):
    p = draw(st.sampled_from(PRIMES_5_37))
    n = draw(st.sampled_from([n for n in range(1, 6) if count(n, p) <= POINT_LIMIT]))
    return p, n


@st.composite
def scan_case(draw):
    p, n = draw(prime_and_dimension())
    degree = draw(st.integers(0, p + 3))  # some degrees are divisible by p
    used = draw(st.integers(1, n))
    return draw(homogeneous(names("x", n), p, degree, polynomial=True, used=used)), p


@st.composite
def rational_map(draw, variables, p):
    # components of one degree, constants (degree 0) included; some are zero
    degree = draw(st.just(0) | st.integers(-2, p + 3))
    comps = [LaurentPoly.zero(variables) if draw(st.integers(0, 4)) == 0
             else draw(homogeneous(variables, p, degree))
             for _ in range(draw(st.integers(1, 4)))]
    try:
        return RationalMap(comps)
    except ValueError:  # every component zero
        hypothesis.reject()


@st.composite
def histogram_case(draw):
    p, n = draw(prime_and_dimension())
    return draw(rational_map(names("x", n), p)), p


@st.composite
def orbit_case(draw):
    p, n = draw(prime_and_dimension(lambda n, p: (p - 1) ** (n - 1)))
    variables = names("x", n)
    orders = [e for e in range(2, 7) if (p - 1) % e == 0]
    gens = tuple((e, tuple(draw(st.lists(st.integers(0, e - 1), min_size=n, max_size=n))))
                 for e in draw(st.lists(st.sampled_from(orders), max_size=2)))
    action = DiagonalAction(n, gens)
    F = draw(homogeneous(variables, p, draw(st.integers(-2, p + 3))))
    forward = draw(rational_map(variables, p))
    k = len(forward.components)
    target = draw(homogeneous(names("y", k), p, draw(st.integers(-2, 4))))
    return F, action, forward, target, p


class TestGeneratedEnumerations:
    @settings(max_examples=80, deadline=None)
    @given(scan_case())
    def test_scan_matches_reference(self, case):
        # singular points compare as lists, so their order is checked too
        assert report_or_error(smooth_scan, *case) == \
            report_or_error(reference_smooth_scan, *case)

    @settings(max_examples=80, deadline=None)
    @given(histogram_case())
    def test_histogram_matches_reference(self, case):
        assert report_or_error(fiber_histogram, *case) == \
            report_or_error(reference_fiber_histogram, *case)

    @settings(max_examples=80, deadline=None)
    @given(orbit_case())
    def test_orbit_check_matches_reference(self, case):
        # a target with a negative exponent raises ZeroDivisionError at an
        # image point with that coordinate zero, on both sides
        assert report_or_error(map_fiber_orbit_check, *case) == \
            report_or_error(reference_map_fiber_orbit_check, *case)

    def test_cone_scan_matches_reference(self):
        cone = P("x1^3 + 2*x2^3 + x1*x2*x3 + 11*x3^3 + 6*x1^2*x2")  # x4, x5 unused
        scan = smooth_scan(cone, 11)
        assert scan.singular_points
        assert report_or_error(smooth_scan, cone, 11) == \
            report_or_error(reference_smooth_scan, cone, 11)

    def test_sums_past_one_statement(self):
        # 80 distinct exponents of x1: the innermost sums span two statements
        rng = random.Random(101)
        F = LaurentPoly(("x0", "x1"), {(100 - k, k): Fraction(rng.randrange(1, 101))
                                       for k in rng.sample(range(101), 80)})
        G = LaurentPoly(("x0", "x1"), {(100 - k, k): Fraction(rng.randrange(1, 101))
                                       for k in rng.sample(range(101), 80)})
        assert report_or_error(smooth_scan, F, 101) == \
            report_or_error(reference_smooth_scan, F, 101)
        assert report_or_error(fiber_histogram, RationalMap([F, G]), 101) == \
            report_or_error(reference_fiber_histogram, RationalMap([F, G]), 101)

    def test_images_follow_proj_points(self):
        comps = [P("x1^2 - x2*x3", V3), P("0", V3), P("x3^13 + 3*x1^12*x2", V3)]
        images = list(compile_enumeration(3, 7, images=comps)())
        assert len(images) == proj_point_count(3, 7)
        for pt, img in zip(proj_points(3, 7), images):
            value = tuple(reference_eval_mod(c, pt, 7) for c in comps)
            assert img == (normalize_point(value, 7) if any(value) else None)

    def test_negative_exponent_at_a_zero_coordinate(self):
        # projective points with two or more coordinates include x1 = 0
        laurent = [P("x1^-1*x2 + x2^2", V3)]
        with pytest.raises(ZeroDivisionError):
            compile_enumeration(3, 7, zeros=laurent)
        with pytest.raises(ZeroDivisionError):
            compile_enumeration(3, 7, images=laurent)
        # terms that vanish mod p carry no pole
        assert list(compile_enumeration(2, 7, zeros=[P("7*x1^-1 + x2", ("x1", "x2"))])()) \
            == [(1, 0)]
        # P^0 is the point (1), and the torus has no zero coordinate
        assert list(compile_enumeration(1, 7, zeros=[P("x1^-1 - 1", ("x1",))])()) == [(1,)]
        on_torus = list(compile_enumeration(3, 7, zeros=laurent, torus=True)())
        assert on_torus == [(1, 6, x3) for x3 in range(1, 7)]  # x2 + x2^2 = 0

    CHECKS = {
        "smooth_scan": lambda p: smooth_scan(FERMAT, p),
        "fiber_histogram": lambda p: fiber_histogram(RationalMap.identity(V5), p),
        "map_fiber_orbit_check": lambda p: map_fiber_orbit_check(
            FERMAT, DiagonalAction.trivial(5), RationalMap.identity(V5), FERMAT, p),
    }

    @staticmethod
    def no_generated_code(monkeypatch):
        # every generated program, enumeration or straight-line, is compiled
        # by _define; compile_enumeration itself makes both refusals first
        def generated(*args, **kwargs):
            raise AssertionError("code was generated")

        monkeypatch.setattr("cremona.verify._define", generated)

    @pytest.mark.parametrize("run", CHECKS.values(), ids=CHECKS)
    def test_guard_comes_before_any_generated_code(self, monkeypatch, run):
        monkeypatch.setattr("cremona.verify.ENUMERATION_GUARD", 100)
        self.no_generated_code(monkeypatch)
        with pytest.raises(ValueError, match="enumeration guard"):
            run(7)

    @pytest.mark.parametrize("p", [0, 1, 4, 9, -7])
    @pytest.mark.parametrize("run", CHECKS.values(), ids=CHECKS)
    def test_a_composite_p_is_refused_first(self, monkeypatch, run, p):
        # before the guard, which divides by p - 1, and before any code
        monkeypatch.setattr("cremona.verify.ENUMERATION_GUARD", 0)
        self.no_generated_code(monkeypatch)
        with pytest.raises(Refusal, match=rf"^p = {p} is not a prime"):
            run(p)

    @pytest.mark.parametrize("zeros", [[], [P("x1^2 - x2*x3", V3)]], ids=["points", "zeros"])
    def test_enumeration_refuses_a_composite_p_itself(self, monkeypatch, zeros):
        # 9 is refused as composite before any point is enumerated or any
        # coefficient is reduced mod it
        self.no_generated_code(monkeypatch)
        with pytest.raises(Refusal, match=r"^p = 9 is not a prime below "):
            compile_enumeration(3, 9, zeros=zeros)

    def test_enumeration_checks_the_guard_itself(self, monkeypatch):
        monkeypatch.setattr("cremona.verify.ENUMERATION_GUARD", 56)
        self.no_generated_code(monkeypatch)
        with pytest.raises(Refusal, match=r"enumeration guard exceeded: \|P\^2\(F_7\)\| = 57"):
            compile_enumeration(3, 7, images=[P("x1", V3)] * 3)
        monkeypatch.setattr("cremona.verify.ENUMERATION_GUARD", 57)
        with pytest.raises(AssertionError, match="code was generated"):
            compile_enumeration(3, 7, images=[P("x1", V3)] * 3)


# ---------------------------------------------------------------------------
# root tables: the innermost zero test read from a per-prime table
# ---------------------------------------------------------------------------

@pytest.fixture
def generated(monkeypatch):
    """The ``(source, namespace)`` of every program generated while the test
    runs, with the namespace as it is handed to ``exec``."""
    seen = []
    define = verify_module._define

    def record(lines, filename, namespace):
        seen.append(("\n".join(lines), dict(namespace)))
        return define(lines, filename, namespace)

    monkeypatch.setattr(verify_module, "_define", record)
    return seen


def innermost_loops(source):
    """The header and body lines of each loop with no loop inside it."""
    lines = source.splitlines()

    def indent(line):
        return len(line) - len(line.lstrip())

    loops = []
    for j, line in enumerate(lines):
        if line.lstrip().startswith("for "):
            body = list(itertools.takewhile(lambda b: indent(b) > indent(line), lines[j + 1:]))
            if not any(b.lstrip().startswith("for ") for b in body):
                loops.append((line.strip(), [b.strip() for b in body]))
    return loops


def from_root_table(header):
    return re.search(r" in R\d+\[", header) is not None


# (variables, prime, torus, zeros, images, innermost loops read from a root
# table, innermost loops that keep a per-x test)
ROOT_TABLE_SHAPES = {
    # x2^3 + 3*x2^2 + 5 at x0 = 1, and x2^3 at (0, 1, x2)
    "literal coefficients only": (3, 7, False, ["x2^3 + 3*x0*x2^2 + 5*x0^3"], None, 2, 0),
    "varying constant term": (3, 7, False, ["x2^3 + 2*x0*x1^2 + x0^3"], None, 2, 0),
    "varying x^k coefficient (ex1)": (
        5, 7, True, ["x1^3 + x2^3 + (x3 + x4 + x0)*x1*x2 + x3^3 + x4^3 + x0^3"],
        ["x1*x2", "x3^2", "x4 - x1"], 1, 0),
    "negative exponent on the torus": (5, 7, True, ["x4^-2 + x1*x4 + x2*x3"], None, 1, 0),
    "two zero tests fixed innermost": (4, 7, True, ["x3^2 + x1*x2", "x3 + x1 + 3"],
                                       ["x3", "x1^2"], 1, 1),
    # 7 buckets for x2^2 + x1, against 6 iterations of the loop over x1
    "over the size rule": (3, 7, True, ["x2^2 + x1"], None, 0, 1),
}


def sign_changes(n, p):
    """The elements (1, +-1, ..., +-1): a group whose orbits the fibers of
    ``compile_enumeration`` can be tested against."""
    return [(1,) + signs for signs in itertools.product((1, p - 1), repeat=n - 1)]


def fiber_summary(fibers):
    """A fiber program's result in the form of ``reference_fibers``."""
    return [(img, count, in_orbit) for img, (count, in_orbit, _) in fibers.items()]


@pytest.mark.parametrize("shape", ROOT_TABLE_SHAPES.values(), ids=ROOT_TABLE_SHAPES)
def test_root_tables_yield_the_reference_sequence(shape, generated):
    n, p, torus, zeros, images, tabled, tested = shape
    zeros = [P(z, names("x", n)) for z in zeros]
    images = images and [P(c, names("x", n)) for c in images]
    want = reference_enumeration(n, p, zeros, images, torus)
    if images:  # the fibers of the images on the torus, in order of first appearance
        elements = sign_changes(n, p)
        got = compile_enumeration(n, p, zeros=zeros, images=images, torus=torus,
                                  elements=elements)()
        assert fiber_summary(got) == reference_fibers(want, elements, p)
    else:
        assert list(compile_enumeration(n, p, zeros=zeros, torus=torus)()) == want
    (source, _), = generated
    loops = innermost_loops(source)
    assert sum(from_root_table(header) for header, _ in loops) == tabled
    assert sum("continue" in body for _, body in loops) == tested


def test_loop_bodies_assign_each_sum_once(generated):
    n, p, torus, zeros, images, _, _ = ROOT_TABLE_SHAPES["varying x^k coefficient (ex1)"]
    compile_enumeration(n, p, zeros=[P(z, names("x", n)) for z in zeros],
                        images=[P(c, names("x", n)) for c in images], torus=torus,
                        elements=sign_changes(n, p))
    (source, _), = generated
    lines = source.splitlines()
    for j, line in enumerate(lines):
        if line.lstrip().startswith("for "):
            pad = " " * (len(line) - len(line.lstrip()) + 4)
            body = itertools.takewhile(lambda b: b.startswith(pad), lines[j + 1:])
            assigned = [b.split(" = ", 1)[1] for b in body
                        if not b.startswith(pad + " ") and " = " in b]
            assert len(assigned) == len(set(assigned)), line


@st.composite
def enumeration_case(draw):
    # up to three zero tests and three images over small random polynomials,
    # with exponents past p and, on the torus, negative ones
    p = draw(st.sampled_from((5, 7, 11, 13)))
    torus = draw(st.booleans())
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-3 if torus else 0, p + 2)] * n)
    poly = st.lists(st.tuples(exps, coefficient(p)), max_size=6).map(
        lambda terms: LaurentPoly(names("x", n), {e: Fraction(c) for e, c in terms}))
    zeros = draw(st.lists(poly, max_size=3))
    images = draw(st.none() | st.lists(poly, min_size=1, max_size=3))
    return n, p, zeros, images, torus


@settings(max_examples=150, deadline=None)
@given(enumeration_case())
def test_enumerations_match_the_reference_filter(case):
    n, p, zeros, images, torus = case
    want = reference_enumeration(n, p, zeros, images, torus)
    got = list(compile_enumeration(n, p, zeros=zeros, images=images, torus=torus)())
    assert got == (want if images is None else [img for _, img in want])
    if torus and images is not None:
        elements = sign_changes(n, p)
        fibers = compile_enumeration(n, p, zeros=zeros, images=images, torus=True,
                                     elements=elements)()
        assert fiber_summary(fibers) == reference_fibers(want, elements, p)


QFANO_40057 = P("x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x1 + x5^3")
QUOTIENT_KERNELS = {
    "ex1": (ex1_family().specialize_params({t: 1 for t in C7_PARAMS}), EX1_ACTION,
            EX1_BASIS, 19),
    "c3c3": (c3c3_family().specialize_params({t: 1 for t in C7_PARAMS}), C3C3_ACTION,
             C3C3_BASIS, 19),
    "qfano_40057": (QFANO_40057, DiagonalAction(5, ((5, (1, 3, 4, 2, 0)),)),
                    MonomialBasis(((0, 1, 0, 1), (0, 1, 3, 0), (0, 0, 2, 1), (1, 0, 0, 2))),
                    11),
}


@pytest.mark.parametrize("case", QUOTIENT_KERNELS.values(), ids=QUOTIENT_KERNELS)
def test_quotient_kernels_test_nothing_innermost(case, generated):
    F, action, basis, p = case
    X = InvariantHypersurface(F, action)
    assert quotient_fiber_check(X, cremona_step(X, 4, basis), p).ok
    (source,) = [src for src, _ in generated if src.startswith("def f():")]
    ((header, body),) = innermost_loops(source)
    assert from_root_table(header) and "continue" not in body
    # the step's forward map is monomial: its leading entry is never tested
    assert "y = None" not in body and not any(line.startswith("elif") for line in body)


GENERATED_NAME = re.compile(r"x\d+(_m?\d+)?|[TR]\d+|INV|a\d+_\d+_\d+|v\d+|k\d+|s|w|y|e|D|get|f")


def int_tuples(value):
    return isinstance(value, tuple) and all(
        isinstance(v, int) or int_tuples(v) for v in value)


def test_generated_sources_hold_only_literals_and_positional_names(generated):
    rng = random.Random(101)
    long_sum = LaurentPoly(("x0", "x1"), {(100 - k, k): Fraction(rng.randrange(1, 101))
                                          for k in rng.sample(range(101), 80)})
    x5 = names("x", 5)
    ex1 = P("x1^3 + x2^3 + (x3 + x4 + x0)*x1*x2 + x3^3 + x4^3 + x0^3", x5)
    images = [P("x1^-1*x2", x5), ex1]
    fibers = compile_enumeration(5, 7, zeros=[ex1], images=images, torus=True,
                                 elements=sign_changes(5, 7))()
    assert fiber_summary(fibers) == reference_fibers(
        reference_enumeration(5, 7, [ex1], images, True), sign_changes(5, 7), 7)
    compile_enumeration(3, 7, zeros=[P("x2^2 + x1", names("x", 3))], torus=True)  # per-x test
    compile_enumeration(2, 101, images=[long_sum, long_sum])  # sums past one statement
    compile_enumeration(5, 7, zeros=[FERMAT.partial_deriv(i) for i in range(5)])
    compile_mod(P("x1^-2*x2 + 3*x3^4", V3), 7)
    sources = [src for src, _ in generated]
    assert any(from_root_table(h) for src in sources for h, _ in innermost_loops(src))
    assert any("continue" in b for src in sources for _, b in innermost_loops(src))
    assert any(src.startswith("def f(pt):") for src in sources)
    for source, namespace in generated:
        straight_line = source.startswith("def f(pt):")  # compile_mod's evaluator
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.STRING:
                # the pole message, fixed in the generator: no input text
                assert straight_line and tok.string == "'pole at zero coordinate'"
            elif tok.type == tokenize.NAME:
                assert keyword.iskeyword(tok.string) or tok.string in ("pow", "range") \
                    or GENERATED_NAME.fullmatch(tok.string) \
                    or straight_line and tok.string in ("pt", "ZeroDivisionError"), tok.string
        assert all(int_tuples(v) for v in namespace.values())


class TestSmoothScan:
    def test_fermat(self):
        scan = smooth_scan(FERMAT, 7)
        assert scan.ok
        assert scan.points_scanned == 2801

    def test_cone_is_singular(self):
        scan = smooth_scan(P("x1^3 + x2^3 + x3^3"), 7)
        found = set(scan.singular_points)
        assert (0, 0, 0, 1, 0) in found
        assert (0, 0, 0, 0, 1) in found
        assert (0, 0, 0, 1, 1) in found
        # singular locus is the line x1 = x2 = x3 = 0
        assert len(found) == 8

    def test_bad_characteristic(self):
        with pytest.raises(ValueError):
            smooth_scan(FERMAT, 3)
        with pytest.raises(ValueError):
            smooth_scan(P("x1^7 + x2^7 + x3^7"), 7)

    def test_guard(self, monkeypatch):
        # |P^4(F_101)| is about 1.05e8: refused before any point is evaluated
        def no_evaluation(*args):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr("cremona.verify.eval_compiled", no_evaluation)
        with pytest.raises(ValueError, match="enumeration guard"):
            smooth_scan(FERMAT, 101)

    def test_diagonal_closed_form(self):
        assert diagonal_form_smooth(FERMAT)
        assert not diagonal_form_smooth(P("x1^3 + x2^3 + x3^3"))
        with pytest.raises(ValueError):
            diagonal_form_smooth(P("x1^3 + x1*x2^2", V3))


class TestOnVariety:
    def test_parametrization_lands(self):
        F = P("x1*x2 + x3^2", V3)
        assert on_variety(parametrize_linear(F, 1), F)

    def test_identity_map_misses(self):
        assert not on_variety(RationalMap.identity(V5), FERMAT)

    def test_packed_and_generic_paths_agree(self):
        # the packed expansion against the naive ring-operator reference
        comps = [P("x1^2 + zeta*x2*x3", V3, zeta_order=3),
                 P("x2^2 - x1*x3", V3, zeta_order=3),
                 P("x3^2 + x1*x2", V3, zeta_order=3)]
        rmap = RationalMap(comps)
        target = P("x1^3 + zeta*x2^3 - x1*x2*x3", V3, zeta_order=3)
        images = {name: comps[i] for i, name in enumerate(V3)}
        assert on_variety(rmap, target) == (not reference_substitute(target, images))

    def test_symbolic_coefficients_use_generic_path(self):
        X = InvariantHypersurface(ex3_family(), PAIR_ACTION)
        step = cremona_step(X, 4, EX3_BASIS)
        model = parametrize_linear(step.image, 1)
        assert on_variety(model, step.image)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            on_variety(RationalMap.identity(V3), FERMAT)

    def test_fractional_component_coefficients(self):
        # components with different denominators: vanishing must be judged on
        # the original map, not on per-component rescalings
        comps = [P("1/2*x1", V3), P("x2", V3), P("x1", V3)]
        rmap = RationalMap(comps)
        vanishing = P("2*x1*x2 - x2*x3", V3)
        not_vanishing = P("x1*x2 - x2*x3", V3)
        assert on_variety(rmap, vanishing)
        assert not on_variety(rmap, not_vanishing)

    def test_fractional_target_coefficients(self):
        rmap = RationalMap([P("1/2*x1", V3), P("x2", V3), P("x1", V3)])
        assert on_variety(rmap, P("x1*x2 - 1/2*x2*x3", V3))

    def test_inhomogeneous_target_with_fractional_components(self):
        # denominators are cleared per image, so no homogeneity is needed
        rmap = RationalMap([P("1/3*x1", V3), P("x2", V3), P("x1", V3)])
        target = P("3*x1 - x3 + 9*x1^2 - x3^2", V3)
        images = {name: rmap.components[i] for i, name in enumerate(V3)}
        assert on_variety(rmap, target)
        assert on_variety(rmap, target) == (not reference_substitute(target, images))

    def test_agrees_with_pointwise_evaluation(self):
        from cremona.verify import compile_mod, eval_compiled
        F = P("x1*x2 + x3^2", V3)
        m = parametrize_linear(F, 1)
        assert on_variety(m, F)
        comps = [compile_mod(c, 7) for c in m.components]
        target = compile_mod(F, 7)
        for pt in proj_points(len(m.source_vars), 7):
            img = tuple(eval_compiled(c, pt, 7) for c in comps)
            if any(img):
                assert eval_compiled(target, img, 7) == 0


class TestFiberHistogram:
    def test_identity(self):
        hist = fiber_histogram(RationalMap.identity(V3), 5)
        assert hist.inferred_degree == 1
        assert hist.histogram == {1: 31}
        assert hist.mass_ok()

    def test_squaring(self):
        sq = RationalMap([parse_poly("x0^2", ("x0", "x1")),
                          parse_poly("x1^2", ("x0", "x1"))])
        hist = fiber_histogram(sq, 7)
        assert hist.inferred_degree == 2
        assert hist.histogram == {1: 2, 2: 3}
        assert hist.mass_ok()

    def test_guard(self):
        with pytest.raises(ValueError):
            fiber_histogram(RationalMap.identity(tuple(f"x{i}" for i in range(9))), 11)


class TestQuotientFibers:
    def test_trivial_group_fibers_are_singletons(self):
        F = P("x1*x2 + x3^2", V3)
        X = InvariantHypersurface(F, DiagonalAction.trivial(3))
        step = cremona_step(X, 2, MonomialBasis(((1, 0), (0, 1))))
        rep = quotient_fiber_check(X, step, 7)
        assert rep.ok
        assert rep.generic_fiber == 1
        assert set(rep.fiber_sizes) == {1}

    def test_root_must_embed(self):
        action = DiagonalAction(3, ((3, (1, 2, 0)),))
        F = P("x1^3 + x2^3 + x3^3", V3)
        X = InvariantHypersurface(F, action)
        step = cremona_step(X, 2)
        with pytest.raises(ValueError):
            quotient_fiber_check(X, step, 5)

    # the c3c3 family at unit parameters, as written and with the scalar
    # matrix (z, z, z, z, z) as a third generator, which makes 27 matrices
    # of the 9 projective elements; every chart steps, since 3 * w = 0 mod 3
    @pytest.mark.parametrize("scalar", [(), ((3, (1, 1, 1, 1, 1)),)], ids=["written", "scalar"])
    @pytest.mark.parametrize("chart", range(5))
    def test_c3c3_quotient_at_every_chart(self, chart, scalar):
        F = c3c3_family().specialize_params({t: 1 for t in C7_PARAMS})
        action = DiagonalAction(5, C3C3_ACTION.generators + scalar)
        X = InvariantHypersurface(F, action)
        rep = quotient_fiber_check(X, cremona_step(X, chart), 7)
        assert rep.ok and rep.generic_fiber == rep.group_order == 9

    def test_fiber_sizes_divide_group_order(self):
        action = DiagonalAction(3, ((3, (1, 2, 0)),))
        F = P("x1^3 + x2^3 + x3^3", V3)
        X = InvariantHypersurface(F, action)
        step = cremona_step(X, 2)
        rep = quotient_fiber_check(X, step, 7)
        assert rep.all_on_image and rep.orbits_ok
        assert all(rep.group_order % s == 0 for s in rep.fiber_sizes)


class TestOrbitCheckHandBuilt:
    """Cases the random draw rarely reaches, each against the reference."""

    X = ("x0", "x1", "x2")
    Y = ("y0", "y1", "y2", "y3", "y4")
    G = DiagonalAction(3, ((3, (0, 1, 2)),))  # (1, z, z^2)
    H = DiagonalAction(3, ((3, (0, 1, 1)),))  # (1, z, z): another group of order 3

    def h_quotient(self):
        """{x1^2 x2 + x2^3 = 2 x0^3} and the map by the H-invariant cubics:
        its torus fibers are H-orbits, three points each, and no G-orbit."""
        F = P("x1^2*x2 + x2^3 - 2*x0^3", self.X)
        forward = RationalMap([P(m, self.X) for m in
                               ("x0^3", "x1^3", "x1^2*x2", "x1*x2^2", "x2^3")])
        return F, forward

    def both(self, *case):
        rep = report_or_error(map_fiber_orbit_check, *case)
        assert rep == report_or_error(reference_map_fiber_orbit_check, *case)
        return rep

    def test_same_sizes_other_group(self):
        F, forward = self.h_quotient()
        target = P("y1*y3 - y2^2", self.Y)
        assert self.both(F, self.H, forward, target, 7).ok
        rep = self.both(F, self.G, forward, target, 7)
        assert rep.all_on_image and set(rep.fiber_sizes) == {3} and rep.generic_fiber == 3
        assert not rep.orbits_ok  # every fiber has |G| points, none is a G-orbit

    def test_images_off_the_target(self):
        F, forward = self.h_quotient()
        target = P("y1 - y4", self.Y)  # holds only where x1^3 = x2^3
        rep = self.both(F, self.H, forward, target, 13)
        on = sum(1 for x1, x2 in itertools.product(range(1, 13), repeat=2)
                 if (x1 ** 2 * x2 + x2 ** 3 - 2) % 13 == 0 and (x1 ** 3 - x2 ** 3) % 13 == 0)
        assert 0 < on < rep.torus_points
        assert not rep.all_on_image and rep.orbits_ok
        assert rep.fiber_sizes == {3: on // 3}  # the fibers off the target are left out
        rep = self.both(F, self.G, forward, target, 13)
        assert not rep.all_on_image and not rep.orbits_ok

    @pytest.mark.parametrize("second, error", [
        ("x2 - x0", ValueError),          # (1, 2, 1) has the zero image
        ("x1 - x2", ZeroDivisionError),   # (1, 2, 1) meets the pole, (1, 2, 2) the zero image
    ])
    def test_first_error_in_torus_order(self, second, error):
        # F vanishes on the whole torus; images (x1 - 2 x0 : second) with
        # x1 - 2 x0 = 0 sit on the target's pole y0 = 0
        F = P("x1^6 - x0^6", self.X)
        forward = RationalMap([P("x1 - 2*x0", self.X), P(second, self.X)])
        target = P("y1*y0^-1 - 3", ("y0", "y1"))
        assert self.both(F, DiagonalAction.trivial(3), forward, target, 7) is error

    @pytest.mark.parametrize("second, error", [
        ("x2 - x0", ValueError),          # (1, 3, 1) has the zero image, (1, 3, 2) the pole
        ("x2 - 4*x0", ZeroDivisionError),  # (1, 3, 1) meets the pole, (1, 3, 4) the zero image
    ])
    def test_zero_image_and_pole_after_other_fibers(self, second, error):
        # the rows x1 = 1, 2 first give fibers on and off the target
        F = P("x1^6 - x0^6", self.X)
        forward = RationalMap([P("x1 - 3*x0", self.X), P(second, self.X)])
        target = P("y1*y0^-1 - 3", ("y0", "y1"))
        assert self.both(F, self.G, forward, target, 7) is error

    def fiber_program(self, generated):
        (source,) = [src for src, _ in generated if src.startswith("def f():")]
        return source

    def test_monomial_forward_map_tests_no_entry(self, generated):
        # the leading entry x1^3 never vanishes on the torus: no test of it
        F, _ = self.h_quotient()
        forward = RationalMap([P(m, self.X) for m in
                               ("x1^3", "x0^3", "x1^2*x2", "x1*x2^2", "x2^3")])
        assert self.both(F, self.H, forward, P("y0*y3 - y2^2", self.Y), 7).ok
        source = self.fiber_program(generated)
        assert "w = INV[x1_3]" in source and "elif" not in source and "y = None" not in source

    def test_leading_sum_keeps_the_tests(self, generated):
        # x1^3 - x0^3 vanishes where x1^3 = 1; the next entry, x0^3, does not
        F, _ = self.h_quotient()
        forward = RationalMap([P(m, self.X) for m in
                               ("x1^3 - x0^3", "x0^3", "x1^2*x2", "x1*x2^2", "x2^3")])
        target = P("y3*y0 + y3*y1 - y2^2", self.Y)
        assert self.both(F, self.H, forward, target, 7).ok
        source = self.fiber_program(generated)
        assert "elif" not in source and "else:\n" in source and "y = None" not in source
        assert source.count("w = INV[") == 2
        assert self.both(F, self.H, forward, target, 13).ok

    def test_large_prime_two_coordinates(self):
        # 10,006 torus points in 5,003 orbits {x, -x}; no table grows with p
        x = ("x0", "x1")
        case = (LaurentPoly.zero(x), DiagonalAction(2, ((2, (0, 1)),)),
                RationalMap([P("x0^2", x), P("x1^2", x)]), P("0", ("y0", "y1")), 10007)
        rep = map_fiber_orbit_check(*case)
        assert rep.ok and rep.fiber_sizes == {2: 5003} and rep.elapsed_s < 1
        assert self.both(*case) == dataclasses.replace(rep, elapsed_s=0)


def test_randomized_quotient_fibers_are_orbits():
    # random small actions: every torus fiber of the forward map must be a
    # single group orbit, so its size is exactly the group order
    import random as _random

    from helpers_random import random_invariant_case

    rng = _random.Random(55221)
    checked = 0
    while checked < 15:
        X, chart = random_invariant_case(rng)
        if X.action.n_vars != 4:  # keep the torus enumeration small
            continue
        step = cremona_step(X, chart)
        rep = quotient_fiber_check(X, step, 7)
        assert rep.all_on_image and rep.orbits_ok
        if rep.fiber_sizes:
            assert set(rep.fiber_sizes) == {rep.group_order}
        checked += 1


def test_param_coefficients_need_specialization():
    F = P("t1*x1^3 + x2^3 + x3^3", V3, params=("t1",))
    with pytest.raises(ValueError, match="specialized"):
        smooth_scan(F, 7)


class TestDefaultPrime:
    def test_order_three(self):
        assert default_prime((3,)) == 7

    def test_order_five(self):
        assert default_prime((5,)) == 11

    def test_degree_avoided(self):
        assert default_prime((3,), degree=7) == 13

    def test_no_orders(self):
        assert default_prime(()) == 7

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 60), max_size=3), st.none() | st.integers(1, 6))
    def test_matches_the_walk_over_every_integer(self, orders, degree):
        assert default_prime(orders, degree) == reference_default_prime(orders, degree)
