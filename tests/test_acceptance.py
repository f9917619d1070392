"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; every expected value is exact, timing bounds are generous upper limits.
"""
import json
import random
import time
from collections import Counter
from pathlib import Path

from cremona.action import DiagonalAction, InvariantHypersurface, subgroup_index
from cremona.cli import main
from cremona.lang import parse_poly
from cremona.lattice import det, hermite_normal_form, matmul, smith_normal_form
from cremona.pipeline import cremona_step, linear_witness, parametrize_linear
from cremona.scenarios import (C3C3_ACTION, C3C3_BASIS, C7_PARAMS, EX1_ACTION,
                               EX1_BASIS, EX1_PARAMS, EX3_BASIS, EX3_PARAMS,
                               FERMAT, MAIN_G, MAIN_G1, PAIR_ACTION, X5,
                               c3c3_chain_steps, c3c3_family, ex1_family,
                               ex3_family, explicit_degree3_map, run_scenario)
from cremona.verify import fiber_histogram, on_variety, quotient_fiber_check, \
    smooth_scan
from helpers_random import random_invariant_case


def _line(num, desc, ok, budget_s, elapsed):
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[{status}] criterion {num:>2}: {desc} ({elapsed:.2f}s / {budget_s}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.2f}s)"


def test_criterion_01_first_worked_chain():
    t0 = time.perf_counter()
    rep = run_scenario("ex1_chain")
    labels = {c.label: c.passed for c in rep.checks}
    ok = labels["quartic model matches the expected form"] and \
        labels["follow-up cubic matches the expected form"]
    _line(1, "first worked chain reproduces both models exactly", ok,
          1.0, time.perf_counter() - t0)


def test_criterion_02_three_step_chain():
    t0 = time.perf_counter()
    chain = c3c3_chain_steps(c3c3_family())
    s1, s2, s3 = chain.steps
    from cremona.scenarios import C3C3_P1, C3C3_P2, C3C3_P3
    ok = (s1.image == parse_poly(C3C3_P1, X5, C7_PARAMS)
          and s2.image == parse_poly(C3C3_P2, X5, C7_PARAMS)
          and s3.image == parse_poly(C3C3_P3, X5, C7_PARAMS))
    _line(2, "order-9 chain reproduces all three models exactly", ok,
          1.0, time.perf_counter() - t0)


def test_criterion_03_coefficient_preservation():
    t0 = time.perf_counter()
    rng = random.Random(20250808)
    failures = 0
    for _ in range(200):
        X, chart = random_invariant_case(rng)
        step = cremona_step(X, chart)
        if len(step.image.terms) != len(X.F.terms) or \
                Counter(step.image.terms.values()) != Counter(X.F.terms.values()):
            failures += 1
    _line(3, "coefficient multiset preserved on 200 random invariant inputs",
          failures == 0, 30.0, time.perf_counter() - t0)


def test_criterion_04_quotient_fibers():
    t0 = time.perf_counter()
    ones1 = {t: 1 for t in EX1_PARAMS}
    F1 = ex1_family().specialize_params(ones1)
    X1 = InvariantHypersurface(F1, EX1_ACTION)
    r1 = quotient_fiber_check(X1, cremona_step(X1, 4, EX1_BASIS), 7)
    ones2 = {t: 1 for t in C7_PARAMS}
    F2 = c3c3_family().specialize_params(ones2)
    X2 = InvariantHypersurface(F2, C3C3_ACTION)
    r2 = quotient_fiber_check(X2, cremona_step(X2, 4, C3C3_BASIS), 7)
    ok = (r1.ok and r1.generic_fiber == 3
          and r2.ok and r2.generic_fiber == 9)
    _line(4, "torus fibers over F_7 are single orbits of sizes 3 and 9", ok,
          10.0, time.perf_counter() - t0)


def test_criterion_05_explicit_degree3_map():
    t0 = time.perf_counter()
    emap = explicit_degree3_map()
    identity_ok = on_variety(emap, FERMAT)
    hist = fiber_histogram(emap, 7)
    ok = (identity_ok
          and hist.source_points == 400
          and hist.mass_ok()
          and hist.inferred_degree == 3
          and hist.histogram.get(3, 0) == max(hist.histogram.values()))
    _line(5, "explicit map: cubes sum to zero and F_7 histogram mode is 3", ok,
          10.0, time.perf_counter() - t0)


def test_criterion_06_rationality_witness():
    t0 = time.perf_counter()
    X = InvariantHypersurface(ex3_family(), PAIR_ACTION)
    step = cremona_step(X, 4, EX3_BASIS)
    ok = linear_witness(step.image) == 1
    model = parametrize_linear(step.image, 1)
    ok = ok and on_variety(model, step.image)
    ones = {t: 1 for t in EX3_PARAMS}
    model1 = parametrize_linear(step.image.specialize_params(ones), 1)
    from cremona.scenarios import _roundtrip_rate
    match, total = _roundtrip_rate(model1, 1, 7)
    ok = ok and total > 0 and match >= 0.95 * total
    _line(6, "degree-1 variable found, parametrization exact, round trip >= 95%",
          ok, 10.0, time.perf_counter() - t0)


def test_criterion_07_quotient_threefold_models():
    t0 = time.perf_counter()
    rep2 = run_scenario("qfano_40057")
    rep1 = run_scenario("qfano_40245")
    ok = rep1.passed and rep2.passed
    _line(7, "both quotient threefold scenarios reproduce their models and witnesses",
          ok, 5.0, time.perf_counter() - t0)


def test_criterion_08_smoothness_evidence():
    t0 = time.perf_counter()
    s1 = smooth_scan(FERMAT, 7)
    family = parse_poly("x1^2*x3 + x2^3 + x1*x3^2 + x4^2*x5 + x4*x5^2", X5)
    s2 = smooth_scan(family, 7)
    cone = smooth_scan(parse_poly("x1^3 + x2^3 + x3^3", X5), 7)
    ok = (s1.ok and s1.points_scanned == 2801 and s2.ok
          and not cone.ok and len(cone.singular_points) > 0)
    _line(8, "smoothness scans: two smooth cubics, one visibly singular cone", ok,
          5.0, time.perf_counter() - t0)


def test_criterion_09_lattice_and_group_suites():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    ok = True
    for _ in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = tuple(tuple(rng.randint(-100, 100) for _ in range(n)) for _ in range(m))
        H, U = hermite_normal_form(M)
        ok = ok and abs(det(U)) == 1 and matmul(U, M) == H
        ok = ok and hermite_normal_form(H)[0] == H
        S, P, Q = smith_normal_form(M)
        ok = ok and matmul(matmul(P, M), Q) == S
        diag = [S[i][i] for i in range(min(m, n))]
        ok = ok and all(b % a == 0 for a, b in zip(diag, diag[1:]) if a and b)
        if m == n:
            d = det(M)
            if d:
                prod = 1
                for x in diag:
                    prod *= x
                ok = ok and prod == abs(d)
    ok = ok and EX1_ACTION.group_order() == 3
    ok = ok and C3C3_ACTION.group_order() == 9
    ok = ok and DiagonalAction(5, ((5, (1, 3, 4, 2, 0)),)).group_order() == 5
    ok = ok and subgroup_index(MAIN_G, MAIN_G1) == 3
    _line(9, "normal-form invariants on 500 random matrices; group orders 3, 9, 5; index 3",
          ok, 20.0, time.perf_counter() - t0)


def _without_elapsed(doc):
    if isinstance(doc, dict):
        return {k: _without_elapsed(v) for k, v in doc.items() if k != "elapsed_s"}
    if isinstance(doc, list):
        return [_without_elapsed(v) for v in doc]
    return doc


def test_criterion_10_end_to_end(capsys):
    # tests/data/reproduce.json pins the whole --json document, timings
    # removed: every change must leave the scenario output byte-identical
    t0 = time.perf_counter()
    code = main(["--json", "reproduce"])
    elapsed = time.perf_counter() - t0
    got = json.dumps(_without_elapsed(json.loads(capsys.readouterr().out)), indent=2) + "\n"
    want = (Path(__file__).parent / "data" / "reproduce.json").read_text()
    with capsys.disabled():
        _line(10, "reproduce over all registered scenarios exits 0 with the pinned output",
              code == 0 and got == want, 120.0, elapsed)
