import pytest

from cremona.action import DiagonalAction, InvariantHypersurface
from cremona.lang import parse_poly
from cremona.pipeline import (MonomialBasis, RationalMap, cremona_step,
                              parametrize_linear)
from cremona.scenarios import EX3_BASIS, PAIR_ACTION, ex3_family
from cremona.verify import (default_prime, diagonal_form_smooth, fiber_histogram,
                            on_variety, proj_point_count, proj_points,
                            quotient_fiber_check, smooth_scan)
from helpers_reference import reference_substitute

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

    def test_fiber_sizes_divide_group_order(self):
        action = DiagonalAction(3, ((3, (1, 2, 0)),))
        F = P("x1^3 + x2^3 + x3^3", V3)
        X = InvariantHypersurface(F, action)
        step = cremona_step(X, 2)
        rep = quotient_fiber_check(X, step, 7)
        assert rep.all_on_image and rep.orbits_ok
        assert all(rep.group_order % s == 0 for s in rep.fiber_sizes)


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
