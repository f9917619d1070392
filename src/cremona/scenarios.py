"""Scenario registry: each scenario builds a worked configuration, runs the
pipeline, and asserts the expected artifacts exactly.

Provenance tags on checks: "reference" for fixed expected artifacts,
"derived" for values recomputed through an independent route inside the
scenario, "consistency" for internal cross-checks.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .action import DiagonalAction, InvariantHypersurface, subgroup_index
from .coeffs import Cyclotomic
from .lang import parse_poly
from .pipeline import (CremonaChain, MonomialBasis, RationalMap, compose_maps,
                       cremona_step, hnf_basis_for, linear_witness,
                       parametrize_linear, search_basis)
from .poly import LaurentPoly, poly_str, term_key
from .verify import (compile_enumeration, diagonal_form_smooth, fiber_histogram,
                     map_fiber_orbit_check, normalize_point, on_variety, proj_points,
                     quotient_fiber_check, smooth_scan)


@dataclass
class Check:
    label: str
    passed: bool
    provenance: str
    detail: str = ""


@dataclass
class Report:
    name: str
    checks: list[Check] = field(default_factory=list)
    objects: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, label: str, ok: bool, provenance: str, detail: str = ""):
        self.checks.append(Check(label, bool(ok), provenance, detail))

    def expect_poly(self, label: str, got: LaurentPoly, want: LaurentPoly,
                    provenance: str = "reference"):
        if got == want:
            self.check(label, True, provenance)
            return
        keys = sorted(set(got.terms) | set(want.terms), key=term_key, reverse=True)
        detail = ""
        for k in keys:
            a, b = got.terms.get(k), want.terms.get(k)
            if a != b:
                mono = poly_str(LaurentPoly.monomial(got.vars, k, 1))
                detail = f"first mismatching term {mono}: got {a}, want {b}"
                break
        self.check(label, False, provenance, detail)


_REGISTRY: dict[str, tuple[str, object]] = {}


def scenario(name: str, summary: str):
    def wrap(fn):
        _REGISTRY[name] = (summary, fn)
        return fn
    return wrap


def list_scenarios() -> list[tuple[str, str]]:
    return [(name, summary) for name, (summary, _) in _REGISTRY.items()]


def run_scenario(name: str) -> Report:
    if name not in _REGISTRY:
        raise KeyError(f"unknown scenario {name!r}; see list_scenarios()")
    _, fn = _REGISTRY[name]
    rep = Report(name)
    t0 = time.perf_counter()
    fn(rep)
    rep.elapsed_s = time.perf_counter() - t0
    return rep


def run_all() -> list[Report]:
    return [run_scenario(name) for name, _ in list_scenarios()]


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

X5 = ("x1", "x2", "x3", "x4", "x5")
Y5 = ("y1", "y2", "y3", "y4", "y5")

EX1_PARAMS = ("t1", "t2", "t3", "t4", "t5")
EX1_ACTION = DiagonalAction(5, ((3, (1, 2, 0, 0, 0)),))
EX1_BASIS = MonomialBasis(((1, 1, 0, 0), (-1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

EX3_BASIS = MonomialBasis(((0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 2, 1)))
PAIR_ACTION = DiagonalAction(5, ((3, (1, 1, 2, 2, 0)),))

C7_PARAMS = ("t1", "t2", "t3", "t4", "t5", "t6", "t7")
C3C3_ACTION = DiagonalAction(5, ((3, (1, 0, 2, 0, 0)), (3, (0, 1, 2, 2, 0))))
C3C3_BASIS = MonomialBasis(((1, 0, 1, -1), (0, 1, 0, 1), (0, 0, 3, 0), (0, 0, 0, 3)))

FERMAT = parse_poly("x1^3 + x2^3 + x3^3 + x4^3 + x5^3", X5)
MAIN_CUBIC = parse_poly(
    "t1*x1^2*x3 + t2*x2^3 + t3*x1*x3^2 + t4*x4^2*x5 + t5*x4*x5^2 "
    "+ t6*x1*x2*x3 + t7*x2*x4*x5", X5, C7_PARAMS)


def ex1_family() -> LaurentPoly:
    return parse_poly(
        "t1*x1^3 + t2*x2^3 + (t3*x3 + t4*x4 + t5*x5)*x1*x2 + x3^3 + x4^3 + x5^3",
        X5, EX1_PARAMS)


def c3c3_family() -> LaurentPoly:
    return parse_poly(
        "t1*x1^3 + t2*x2^3 + t3*x3^3 + t4*x4^3 + t5*x5^3 + t6*x1*x2*x3 + t7*x2*x4*x5",
        X5, C7_PARAMS)


def mixed_pair_images(pair_slots: tuple[tuple[int, int, int, int], ...],
                      fixed: tuple[tuple[int, int], ...],
                      source=Y5, target=X5) -> dict[str, LaurentPoly]:
    """Images for the cube-splitting change of coordinates.

    Each entry of ``pair_slots`` is (a, b, i, j): target coordinates x_a, x_b
    receive the two linear forms in source coordinates y_i, y_j that turn
    x_a^3 + x_b^3 into -zeta*y_i^2*y_j - zeta^2*y_i*y_j^2.  ``fixed`` carries
    (target, source) pairs across unchanged.
    """
    z = Cyclotomic.zeta(3)
    third = Fraction(1, 3)
    ca = (1 - z) * third
    cb = (1 - z ** 2) * third
    cc = (z ** 2 - z) * third
    cd = (z - z ** 2) * third
    images: dict[str, LaurentPoly] = {}
    for a, b, i, j in pair_slots:
        yi = LaurentPoly.variable(source, source[i])
        yj = LaurentPoly.variable(source, source[j])
        images[target[a]] = ca * yi + cb * yj
        images[target[b]] = cc * yi + cd * yj
    for a, i in fixed:
        images[target[a]] = LaurentPoly.variable(source, source[i])
    return images


MIXED_FORM = parse_poly(
    "-zeta*y1^2*y2 - zeta^2*y1*y2^2 - zeta*y3^2*y4 - zeta^2*y3*y4^2 + y5^3",
    Y5, zeta_order=3)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@scenario("ex1_chain",
          "order-3 quotient of a cubic family: quartic model, then back to a cubic")
def _ex1_chain(rep: Report):
    F = ex1_family()
    X = InvariantHypersurface(F, EX1_ACTION)
    step1 = cremona_step(X, chart=4, basis=EX1_BASIS)
    expect1 = parse_poly(
        "t1*x1^2*x5^2 + t2*x1*x2^2*x5 + (t3*x3 + t4*x4 + t5*x5)*x1*x2*x5 "
        "+ x2*(x3^3 + x4^3 + x5^3)", X5, EX1_PARAMS)
    rep.expect_poly("quartic model matches the expected form", step1.image, expect1)
    rep.check("output degree is 4", step1.degree == 4, "reference")
    rep.check("group order is 3", step1.group_order == 3, "reference")
    rep.objects["quartic"] = poly_str(step1.image)

    Y = InvariantHypersurface(step1.image, step1.residual)
    step2 = cremona_step(
        Y, chart=1,
        basis=MonomialBasis(((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))))
    expect2 = parse_poly(
        "t1*x1^2*x2 + t2*x1*x2^2 + (t3*x3 + t4*x4 + t5*x5)*x1*x2 + x3^3 + x4^3 + x5^3",
        X5, EX1_PARAMS)
    rep.expect_poly("follow-up cubic matches the expected form", step2.image, expect2)
    rep.check("follow-up degree is 3", step2.degree == 3, "reference")
    chain = CremonaChain((step1, step2))
    rep.check("chain bookkeeping degree is 3", chain.accumulated_order() == 3,
              "consistency")
    rep.objects["cubic"] = poly_str(step2.image)

    ones = {t: 1 for t in EX1_PARAMS}
    F1 = F.specialize_params(ones)
    X1 = InvariantHypersurface(F1, EX1_ACTION)
    s1 = cremona_step(X1, chart=4, basis=EX1_BASIS)
    fib = quotient_fiber_check(X1, s1, 7)
    rep.check("all torus points land on the transformed hypersurface",
              fib.all_on_image, "derived")
    rep.check("fibers over F_7 are single group orbits", fib.orbits_ok, "derived")
    rep.check("generic fiber size is 3", fib.generic_fiber == 3, "derived",
              f"fiber sizes {fib.fiber_sizes}")
    rep.objects["fiber_sizes"] = fib.fiber_sizes


EX3_PARAMS = ("t1", "t2", "t3", "t4", "t15", "t25", "t35", "t45", "t9")


def ex3_family() -> LaurentPoly:
    return parse_poly(
        "t1*x1^2*x2 + t2*x1*x2^2 + t3*x3^2*x4 + t4*x3*x4^2 + t15*x1*x3*x5 "
        "+ t25*x1*x4*x5 + t35*x2*x3*x5 + t45*x2*x4*x5 + t9*x5^3", X5, EX3_PARAMS)


EX3_P1 = (
    "t1*x1*x2*x3^2 + t2*x1^2*x2*x3 + t3*x1*x4^2*x5 + t4*x2*x4^2*x5 "
    "+ t15*x1*x3*x4*x5 + t25*x2*x3*x4*x5 + t35*x1^2*x4*x5 + t45*x1*x2*x4*x5 "
    "+ t9*x1*x4*x5^2")


def _roundtrip_rate(model: RationalMap, drop: int, p: int) -> tuple[int, int]:
    n = len(model.source_vars)
    images = compile_enumeration(n, p, images=model.components)()
    total = match = 0
    for pt, img in zip(proj_points(n, p), images):
        if img is None:
            continue
        back = img[:drop] + img[drop + 1:]
        if not any(back):
            continue
        total += 1
        if normalize_point(back, p) == pt:
            match += 1
    return match, total


@scenario("ex3_rationality",
          "order-3 quotient of the paired cubic family is rational: a variable of degree 1")
def _ex3_rationality(rep: Report):
    F = ex3_family()
    X = InvariantHypersurface(F, PAIR_ACTION)
    step = cremona_step(X, chart=4, basis=EX3_BASIS)
    expect = parse_poly(EX3_P1, X5, EX3_PARAMS)
    rep.expect_poly("transformed quartic matches the expected form", step.image, expect)
    w = linear_witness(step.image)
    rep.check("linear witness is x2", w == 1, "reference",
              f"witness index {w}")
    model = parametrize_linear(step.image, 1)
    rep.check("parametrization lands on the hypersurface (symbolic, all parameters)",
              on_variety(model, step.image), "derived")

    ones = {t: 1 for t in EX3_PARAMS}
    p1 = step.image.specialize_params(ones)
    model1 = parametrize_linear(p1, 1)
    proj = RationalMap.coordinate_projection(X5, 1)
    comp = compose_maps(proj, model1)
    rep.check("projection composed with the parametrization is the identity",
              comp == RationalMap.identity(model1.source_vars), "derived")
    match, total = _roundtrip_rate(model1, 1, 7)
    rep.check("round trip matches at >= 95% of usable F_7 points",
              total > 0 and match >= 0.95 * total, "derived",
              f"{match}/{total} points match")
    rep.objects["roundtrip"] = {"match": match, "total": total}


@scenario("qfano_40245",
          "Fermat cubic threefold modulo the paired order-3 action: rational quotient")
def _qfano_40245(rep: Report):
    ok, _ = PAIR_ACTION.is_invariant(FERMAT)
    rep.check("Fermat cubic is invariant under the paired action", ok, "reference")
    rep.check("group order is 3", PAIR_ACTION.group_order() == 3, "reference")

    images = mixed_pair_images(((0, 1, 0, 1), (2, 3, 2, 3)), ((4, 4),))
    reduced = FERMAT.substitute(images)
    rep.expect_poly("cube-splitting change yields the mixed form", reduced, MIXED_FORM,
                    provenance="derived")

    Xy = InvariantHypersurface(reduced, DiagonalAction(5, ((3, (1, 1, 2, 2, 0)),)))
    step = cremona_step(Xy, chart=4, basis=EX3_BASIS)
    expect = parse_poly(
        "-zeta*y1*y2*y3^2 - zeta^2*y1^2*y2*y3 - zeta*y1*y4^2*y5 "
        "- zeta^2*y2*y4^2*y5 + y1*y4*y5^2", Y5, zeta_order=3)
    rep.expect_poly("transformed quartic matches the expected form", step.image, expect,
                    provenance="derived")
    w = linear_witness(step.image)
    rep.check("linear witness exists (y2)", w == 1, "reference", f"witness index {w}")
    model = parametrize_linear(step.image, 1)
    rep.check("parametrization lands on the hypersurface", on_variety(model, step.image),
              "derived")


@scenario("qfano_40057",
          "order-5 quotient of a cyclic cubic threefold: quintic model with a degree-1 variable")
def _qfano_40057(rep: Report):
    F = parse_poly("x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x1 + x5^3", X5)
    G = DiagonalAction(5, ((5, (1, 3, 4, 2, 0)),))
    rep.check("group order is 5", G.group_order() == 5, "reference")
    X = InvariantHypersurface(F, G)
    basis = MonomialBasis(((0, 1, 0, 1), (0, 1, 3, 0), (0, 0, 2, 1), (1, 0, 0, 2)))
    step = cremona_step(X, chart=4, basis=basis)
    expect = parse_poly(
        "x2^2*x4^2*x5 + x1^2*x2*x3^2 + x1*x3^4 + x1*x3^3*x4 + x1*x3^3*x5", X5)
    rep.expect_poly("quintic model matches the expected form", step.image, expect)
    rep.check("output degree is 5", step.degree == 5, "reference")
    w = linear_witness(step.image)
    rep.check("linear witness is x5", w == 4, "reference", f"witness index {w}")
    fib = quotient_fiber_check(X, step, 11)
    rep.check("fibers over F_11 are single orbits of size 5",
              fib.ok and fib.generic_fiber == 5, "derived",
              f"fiber sizes {fib.fiber_sizes}")


C3C3_STEP2_BASIS = MonomialBasis(((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1)))
C3C3_STEP3_BASIS = MonomialBasis(((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

C3C3_P1 = (
    "t1*x1^3*x4^2 + t2*x2^3*x3*x5 + t3*x3^2*x4*x5^2 + t4*x3*x4^2*x5^2 "
    "+ t5*x3*x4*x5^3 + t6*x1*x2*x3*x4*x5 + t7*x2*x3*x4*x5^2")
C3C3_P2 = (
    "t1*x1^2*x4^2 + t2*x2^3*x3 + t3*x1*x3^2*x4 + t4*x3*x4^2*x5 "
    "+ t5*x3*x4*x5^2 + t6*x1*x2*x3*x4 + t7*x2*x3*x4*x5")
C3C3_P3 = (
    "t1*x1^2*x3 + t2*x2^3 + t3*x1*x3^2 + t4*x4^2*x5 + t5*x4*x5^2 "
    "+ t6*x1*x2*x3 + t7*x2*x4*x5")


def c3c3_chain_steps(F: LaurentPoly):
    X = InvariantHypersurface(F, C3C3_ACTION)
    step1 = cremona_step(X, chart=4, basis=C3C3_BASIS)
    X2 = InvariantHypersurface(step1.image, step1.residual)
    step2 = cremona_step(X2, chart=0, basis=C3C3_STEP2_BASIS)
    X3 = InvariantHypersurface(step2.image, step2.residual)
    step3 = cremona_step(X3, chart=2, basis=C3C3_STEP3_BASIS)
    return CremonaChain((step1, step2, step3))


@scenario("c3c3_chain",
          "order-9 quotient of a two-parameter cubic family back to a cubic in three steps")
def _c3c3_chain(rep: Report):
    F = c3c3_family()
    rep.check("group order is 9", C3C3_ACTION.group_order() == 9, "reference")
    chain = c3c3_chain_steps(F)
    s1, s2, s3 = chain.steps
    rep.expect_poly("first step yields the expected quintic",
                    s1.image, parse_poly(C3C3_P1, X5, C7_PARAMS))
    rep.check("first step degree is 5", s1.degree == 5, "reference")
    rep.expect_poly("second step yields the expected quartic",
                    s2.image, parse_poly(C3C3_P2, X5, C7_PARAMS))
    rep.expect_poly("third step yields the expected cubic",
                    s3.image, parse_poly(C3C3_P3, X5, C7_PARAMS))
    rep.check("third step degree is 3", s3.degree == 3, "reference")
    rep.check("chain bookkeeping degree is 9", chain.accumulated_order() == 9,
              "consistency")
    rep.expect_poly("final cubic equals the announced model",
                    s3.image, MAIN_CUBIC, provenance="consistency")

    ones = {t: 1 for t in C7_PARAMS}
    spec1 = {**ones, "t6": 0, "t7": 0}
    rep.expect_poly(
        "specializing to the diagonal instance recovers the Fermat-shaped model",
        s3.image.specialize_params(spec1),
        parse_poly("x1^2*x3 + x2^3 + x1*x3^2 + x4^2*x5 + x4*x5^2", X5),
        provenance="consistency")

    F1 = F.specialize_params(ones)
    X1 = InvariantHypersurface(F1, C3C3_ACTION)
    s1c = cremona_step(X1, chart=4, basis=C3C3_BASIS)
    fib = quotient_fiber_check(X1, s1c, 7)
    rep.check("torus fibers over F_7 are single orbits of size 9",
              fib.ok and fib.generic_fiber == 9, "derived",
              f"fiber sizes {fib.fiber_sizes}")
    rep.objects["fiber_sizes"] = fib.fiber_sizes

    # independent route: a beam-searched basis reaches the same cubic in one step
    X = InvariantHypersurface(F, C3C3_ACTION)
    _, searched = search_basis(X, 4, width=6, depth=4)
    rep.check("one-step searched model equals the three-step chain output",
              searched.image == s3.image, "derived",
              f"searched degree {searched.degree}")


C9_PARAMS = ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9")


@scenario("c3cubic3_rationality",
          "normalized cubics preserved by the paired order-3 action are rational quotients")
def _c3cubic3(rep: Report):
    F = parse_poly(
        "t1*x1^2*x2 + t2*x1*x2^2 + t3*x3^2*x4 + t4*x3*x4^2 + t5*x1*x3*x5 "
        "+ t6*x2*x3*x5 + t7*x1*x4*x5 + t8*x2*x4*x5 + t9*x5^3", X5, C9_PARAMS)
    ok, _ = PAIR_ACTION.is_invariant(F)
    rep.check("normalized family is invariant under diag(z,z,z^2,z^2,1)", ok,
              "reference")
    X = InvariantHypersurface(F, PAIR_ACTION)
    step = cremona_step(X, chart=4, basis=EX3_BASIS)
    expect = parse_poly(
        "t1*x1*x2*x3^2 + t2*x1^2*x2*x3 + t3*x1*x4^2*x5 + t4*x2*x4^2*x5 "
        "+ t5*x1*x3*x4*x5 + t7*x2*x3*x4*x5 + t6*x1^2*x4*x5 + t8*x1*x2*x4*x5 "
        "+ t9*x1*x4*x5^2", X5, C9_PARAMS)
    rep.expect_poly("transformed quartic matches the expected form", step.image, expect,
                    provenance="derived")
    w = linear_witness(step.image)
    rep.check("pipeline yields a linear witness (x2)", w == 1, "reference",
              f"witness index {w}")
    model = parametrize_linear(step.image, 1)
    rep.check("parametrization lands on the hypersurface (symbolic)",
              on_variety(model, step.image), "derived")


def explicit_degree3_map() -> RationalMap:
    """The explicit degree-3 dominant map from P^3 to the Fermat cubic threefold."""
    V4 = ("x1", "x2", "x3", "x4")

    def q(text):
        return parse_poly(text, V4, zeta_order=3)

    z = Cyclotomic.zeta(3)
    l1 = q("x1 - zeta*x3")
    l2 = q("x2 + x4")
    l3 = q("x1 - zeta^2*x3")
    h1 = q("x1^2*x3 + x1*x3^2 + zeta^2*x2^2*x4 - zeta*x2*x4^2")
    h2 = q("x1^2*x2*x3 + x1*x2*x3^2 + x2^2*x4^2")
    h3 = q("x1^2*x3 + x1*x3^2 + zeta*x2^2*x4 - zeta^2*x2*x4^2")
    m1 = h1 * h2 * l1 * l2 ** 2 * l3 ** 3 + z * h1 * h3 ** 3 * l1
    m2 = 3 * h1 * h2 * h3 * l1 * l2 * l3
    m3 = -(z * h1 * h2 * l1 * l2 ** 2 * l3 ** 3) - h1 * h3 ** 3 * l1
    m4 = h1 ** 3 * h3 * l3 + z * h2 * h3 * l1 ** 3 * l2 ** 2 * l3
    m5 = -(z * h1 ** 3 * h3 * l3) - h2 * h3 * l1 ** 3 * l2 ** 2 * l3
    return RationalMap((m1, m2, m3, m4, m5))


MAIN_G1 = DiagonalAction(5, ((3, (1, 0, 2, 2, 1)),))
MAIN_G = DiagonalAction(5, ((3, (1, 0, 2, 0, 0)), (3, (1, 0, 2, 2, 1))))


@scenario("main_parametrization",
          "degree-3 parametrization of the announced cubic family, plus the explicit map")
def _main_parametrization(rep: Report):
    # subgroup bookkeeping: order-9 group, order-3 subgroup, index 3
    rep.check("full group has order 9", MAIN_G.group_order() == 9, "reference")
    rep.check("subgroup has order 3", MAIN_G1.group_order() == 3, "reference")
    rep.check("subgroup index is 3", subgroup_index(MAIN_G, MAIN_G1) == 3, "reference")
    # the subgroup generator is the standard one rescaled so x2 is fixed
    a2 = (0, 1, 2, 2, 0)
    a2p = MAIN_G1.generators[0][1]
    rep.check("subgroup generator is the rescaled square of diag(1,z,z^2,z^2,1)",
              all((2 * a + 1 - b) % 3 == 0 for a, b in zip(a2, a2p)), "consistency")

    X = InvariantHypersurface(FERMAT, MAIN_G1)
    b1 = hnf_basis_for(MAIN_G1, chart=1)
    step1 = cremona_step(X, chart=1, basis=b1, parent_action=MAIN_G)
    rep.check("residual action after the subgroup step has order 3",
              step1.residual.group_order() == 3, "derived")
    Y = step1.output_hypersurface()
    chart2 = step1.residual.default_chart()
    step2 = cremona_step(Y, chart2, basis=hnf_basis_for(step1.residual, chart2))
    chain = CremonaChain((step1, step2))
    rep.check("degree bookkeeping of the parametrization is 3",
              chain.accumulated_order(start=1) == 3, "reference")
    rep.check("full chain bookkeeping is 9", chain.accumulated_order() == 9,
              "consistency")
    # the composed forward map realizes the full quotient: its torus fibers
    # are single orbits of the whole order-9 group.  The Fermat torus is
    # empty over F_7 (unit cubes are +-1), so this runs at q = 13.
    composite = chain.forward_map()
    fib9 = map_fiber_orbit_check(FERMAT, MAIN_G, composite, step2.image, 13)
    rep.check("composite torus fibers over F_13 are full order-9 orbits",
              fib9.ok and fib9.generic_fiber == 9 and fib9.torus_points > 0,
              "derived", f"fiber sizes {fib9.fiber_sizes}")

    # rationality of the subgroup quotient via the cube-splitting reduction:
    # pairs (x1,x5) and (x3,x4) share eigenvalues, x2 is fixed
    images = mixed_pair_images(((0, 1, 0, 1), (2, 3, 2, 3)), ((4, 4),),
                               target=("x1", "x5", "x3", "x4", "x2"))
    reduced = FERMAT.substitute(images)
    rep.expect_poly("cube-splitting change yields the mixed form", reduced, MIXED_FORM,
                    provenance="derived")
    Xy = InvariantHypersurface(reduced, DiagonalAction(5, ((3, (1, 1, 2, 2, 0)),)))
    sz = cremona_step(Xy, chart=4, basis=EX3_BASIS)
    w = linear_witness(sz.image)
    rep.check("subgroup quotient model has a linear witness", w == 1, "derived",
              f"witness index {w}")
    model = parametrize_linear(sz.image, 1)
    rep.check("witness parametrization lands on the model",
              on_variety(model, sz.image), "derived")

    # the explicit degree-3 map to the Fermat cubic
    emap = explicit_degree3_map()
    rep.check("explicit map components have degree 13", emap.degree() == 13,
              "consistency")
    rep.check("sum of cubes of the five components vanishes identically",
              on_variety(emap, FERMAT), "reference")
    hist = fiber_histogram(emap, 7)
    rep.check("histogram mass accounts for all 400 source points",
              hist.mass_ok() and hist.source_points == 400, "consistency",
              f"indeterminacy {hist.indeterminacy}")
    rep.check("inferred degree over F_7 is 3", hist.inferred_degree == 3, "reference",
              f"histogram {hist.histogram}")
    rep.check("no fiber size beats size 3 in image-point count",
              hist.histogram.get(3, 0) == max(hist.histogram.values()), "reference",
              f"histogram {hist.histogram}")
    # at the next usable prime the mode is 3 by a wide margin (no tie)
    hist13 = fiber_histogram(emap, 13)
    rep.check("inferred degree over F_13 is 3, untied",
              hist13.inferred_degree == 3 and
              hist13.histogram[3] > 2 * hist13.histogram.get(2, 0), "derived",
              f"histogram {hist13.histogram}")
    rep.objects["histogram"] = hist.histogram
    rep.objects["indeterminacy"] = hist.indeterminacy


@scenario("fermat_smoothness",
          "smoothness evidence: Fermat and the announced family are smooth, a cone is not")
def _fermat_smoothness(rep: Report):
    scan = smooth_scan(FERMAT, 7)
    rep.check("Fermat cubic threefold: no singular F_7-points among 2801",
              scan.ok and scan.points_scanned == 2801, "derived",
              f"{len(scan.singular_points)} singular / {scan.points_scanned}")
    repeat = smooth_scan(FERMAT, 13)
    rep.check("scan repeated at a second prime (F_13) finds nothing either",
              repeat.ok, "derived",
              f"{len(repeat.singular_points)} singular / {repeat.points_scanned}")
    rep.check("closed-form diagonal criterion confirms smoothness",
              diagonal_form_smooth(FERMAT), "derived")

    ones = {t: 1 for t in C7_PARAMS}
    family = MAIN_CUBIC.specialize_params({**ones, "t6": 0, "t7": 0})
    scan2 = smooth_scan(family, 7)
    rep.check("announced family at unit parameters: no singular F_7-points",
              scan2.ok, "derived",
              f"{len(scan2.singular_points)} singular / {scan2.points_scanned}")

    cone = parse_poly("x1^3 + x2^3 + x3^3", X5)
    scan3 = smooth_scan(cone, 7)
    expected_pts = {(0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1)}
    rep.check("cone over a plane cubic shows a nonempty singular locus",
              not scan3.ok and expected_pts <= set(scan3.singular_points), "derived",
              f"{len(scan3.singular_points)} singular points")
    rep.objects["cone_singular"] = scan3.singular_points
