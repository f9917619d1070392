import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona.action import DiagonalAction, InvariantHypersurface
from cremona.lang import parse_poly
from cremona.pipeline import (CremonaChain, MonomialBasis, RationalMap,
                              chain_parametrization, compose_maps, cremona_step,
                              hnf_basis_for, linear_witness, parametrize_linear,
                              residual_action, rewrite_invariant, search_basis,
                              validate_basis)
from cremona.poly import LaurentPoly, poly_str
from cremona.scenarios import (C3C3_ACTION, C3C3_BASIS, EX1_ACTION, EX1_BASIS,
                               EX1_PARAMS, EX3_BASIS, FERMAT, PAIR_ACTION, X5,
                               c3c3_family, ex1_family, ex3_family)
from cremona.verify import on_variety

V5 = ("x1", "x2", "x3", "x4", "x5")
V3 = ("x1", "x2", "x3")


def P(text, variables=V5, params=(), zeta_order=None):
    return parse_poly(text, variables, params, zeta_order)


class TestValidateBasis:
    def test_worked_bases_ok(self):
        assert validate_basis(EX1_ACTION, 4, EX1_BASIS).ok
        assert validate_basis(C3C3_ACTION, 4, C3C3_BASIS).ok
        assert validate_basis(PAIR_ACTION, 4, EX3_BASIS).ok

    def test_proper_sublattice(self):
        bad = MonomialBasis(((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        diag = validate_basis(EX1_ACTION, 4, bad)
        assert not diag.ok and diag.sublattice_index == 3

    def test_noninvariant_row(self):
        bad = MonomialBasis(((1, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        diag = validate_basis(EX1_ACTION, 4, bad)
        assert not diag.ok and "not invariant" in diag.reason

    def test_rank_deficiency(self):
        bad = MonomialBasis(((1, 1, 0, 0), (2, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        diag = validate_basis(EX1_ACTION, 4, bad)
        assert not diag.ok and "rank" in diag.reason


class TestRewriteInvariant:
    def test_ex1(self):
        f = ex1_family().dehomogenize(4)
        p, q = rewrite_invariant(f, 4, EX1_BASIS)
        U = ("u1", "u2", "u3", "u4")
        want_p = parse_poly(
            "t1*u1^2 + t2*u1*u2^2 + (t3*u3 + t4*u4 + t5)*u1*u2 + u2*(u3^3 + u4^3 + 1)",
            U, EX1_PARAMS)
        assert p == want_p
        assert q == parse_poly("u2", U)

    def test_trivial_group_identity_basis(self):
        f = P("x1^2 + x2*x3", V3).dehomogenize(2)
        ident = MonomialBasis(((1, 0), (0, 1)))
        p, q = rewrite_invariant(f, 2, ident)
        U = ("u1", "u2")
        assert p == parse_poly("u1^2 + u2", U)
        assert q == parse_poly("1", U)

    def test_non_lattice_term_rejected(self):
        f = P("x1 + x2", V3).dehomogenize(2)
        with pytest.raises(ValueError):
            rewrite_invariant(f, 2, MonomialBasis(((2, 0), (0, 1))))

    def test_follow_up_rewrite_has_trivial_denominator(self):
        # second step of the first worked chain: everything is polynomial in
        # the basis monomials, so q = 1 and the degree drops to 3
        X = InvariantHypersurface(ex1_family(), EX1_ACTION)
        quartic = cremona_step(X, 4, EX1_BASIS).image
        f = quartic.dehomogenize(1)
        basis = MonomialBasis(((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        p, q = rewrite_invariant(f, 1, basis)
        U = ("u1", "u2", "u3", "u4")
        want_p = parse_poly(
            "t1*u1^2 + t2*u1 + (t3*u2 + t4*u3 + t5*u4)*u1 + u2^3 + u3^3 + u4^3",
            U, EX1_PARAMS)
        assert p == want_p
        assert q == parse_poly("1", U)


class TestCremonaStep:
    def test_chart_must_be_fixed(self):
        X = InvariantHypersurface(ex1_family(), EX1_ACTION)
        with pytest.raises(ValueError):
            cremona_step(X, 0, EX1_BASIS)

    def test_chart_must_not_divide(self):
        F = P("x1^3 + x2^3 + x5^3") * P("x5")
        X = InvariantHypersurface(F, DiagonalAction.trivial(5))
        basis = hnf_basis_for(X.action, 4)
        with pytest.raises(ValueError):
            cremona_step(X, 4, basis)

    def test_coefficient_preservation(self):
        X = InvariantHypersurface(ex1_family(), EX1_ACTION)
        step = cremona_step(X, 4, EX1_BASIS)
        assert len(step.image.terms) == len(X.F.terms)
        assert Counter(step.image.terms.values()) == Counter(X.F.terms.values())

    def test_forward_map_ex1(self):
        X = InvariantHypersurface(ex1_family(), EX1_ACTION)
        step = cremona_step(X, 4, EX1_BASIS)
        comps = [P(s) for s in
                 ("x1^2*x2", "x2^2*x5", "x1*x3*x5", "x1*x4*x5", "x1*x5^2")]
        assert list(step.forward.components) == comps

    def test_default_basis_is_hnf(self):
        X = InvariantHypersurface(ex1_family(), EX1_ACTION)
        step = cremona_step(X, 4)
        assert validate_basis(EX1_ACTION, 4, step.basis).ok


class TestResidualAction:
    def test_order_three_quotient(self):
        G1 = DiagonalAction(5, ((3, (0, 1, 2, 2, 0)),))
        basis = hnf_basis_for(G1, 4)
        res = residual_action(C3C3_ACTION, G1, basis, 4)
        assert res.group_order() == 3

    def test_full_group_gives_trivial(self):
        res = residual_action(C3C3_ACTION, C3C3_ACTION, C3C3_BASIS, 4)
        assert res.is_trivial()

    def test_trivial_subgroup_keeps_characters(self):
        ident = MonomialBasis(tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4)))
        res = residual_action(EX1_ACTION, DiagonalAction.trivial(5), ident, 4)
        assert res.generators == EX1_ACTION.generators

    def test_containment_checked(self):
        other = DiagonalAction(5, ((3, (0, 0, 1, 2, 0)),))
        basis = hnf_basis_for(other, 4)
        with pytest.raises(ValueError):
            residual_action(EX1_ACTION, other, basis, 4)

    def test_semi_invariant_output_rejected(self):
        # the clearing monomial here carries a nontrivial parent character, so
        # the output is only semi-invariant under the residual action
        V4 = ("x1", "x2", "x3", "x4")
        parent = DiagonalAction(4, ((3, (0, 1, 2, 0)),))
        F = P("x1^2*x2*x3 + x2^3*x4 + x3^3*x4", V4)
        X = InvariantHypersurface(F, DiagonalAction.trivial(4))
        basis = MonomialBasis(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(ValueError, match="semi-invariant"):
            cremona_step(X, 3, basis, parent_action=parent)


class TestLinearWitness:
    def test_fermat_has_none(self):
        assert linear_witness(P("x1^3 + x2^3 + x3^3 + x4^3 + x5^3")) is None

    def test_smallest_index_wins(self):
        assert linear_witness(P("x1*x2 + x3^2", V3)) == 0

    def test_quintic_witness(self):
        F = P("x2^2*x4^2*x5 + x1^2*x2*x3^2 + x1*x3^4 + x1*x3^3*x4 + x1*x3^3*x5")
        assert linear_witness(F) == 4


class TestParametrizeLinear:
    def test_conic(self):
        F = P("x1*x2 + x3^2", V3)
        m = parametrize_linear(F, 1)
        assert [str(c) for c in m.components] == ["x1^2", "-x3^2", "x1*x3"]
        assert on_variety(m, F)

    def test_no_constant_part(self):
        F = P("x1^2*x2", V3)
        m = parametrize_linear(F, 1)
        assert on_variety(m, F)

    def test_degree_requirement(self):
        with pytest.raises(ValueError):
            parametrize_linear(P("x1^2*x2^2", V3), 1)

    def test_symbolic_family(self):
        X = InvariantHypersurface(ex3_family(), PAIR_ACTION)
        step = cremona_step(X, 4, EX3_BASIS)
        model = parametrize_linear(step.image, 1)
        assert on_variety(model, step.image)


class TestComposeMaps:
    def test_identity_neutral(self):
        f = parametrize_linear(P("x1*x2 + x3^2", V3), 1)
        assert compose_maps(RationalMap.identity(V3), f) == f

    def test_monomial_exponents_multiply(self):
        sq = RationalMap([P("x1^2", V3), P("x2^2", V3), P("x3^2", V3)])
        comp = compose_maps(sq, sq)
        assert [str(c) for c in comp.components] == ["x1^4", "x2^4", "x3^4"]

    def test_projection_inverts_parametrization(self):
        F = P("x1*x2 + x3^2", V3)
        m = parametrize_linear(F, 1)
        proj = RationalMap.coordinate_projection(V3, 1)
        assert compose_maps(proj, m) == RationalMap.identity(m.source_vars)

    def test_dimension_mismatch(self):
        f = RationalMap([P("x1", V3), P("x2", V3)])
        with pytest.raises(ValueError):
            compose_maps(f, f)

    def test_symbolic_coefficients_get_monomial_cancellation_only(self):
        # with parameter coefficients the common polynomial factor A stays
        from cremona.poly import divide_exact
        X = InvariantHypersurface(ex3_family(), PAIR_ACTION)
        step = cremona_step(X, 4, EX3_BASIS)
        model = parametrize_linear(step.image, 1)
        proj = RationalMap.coordinate_projection(X5, 1)
        comp = compose_maps(proj, model)
        assert comp.degree() == step.image.homogeneous_degree()
        y1 = LaurentPoly.variable(model.source_vars, model.source_vars[0])
        A = divide_exact(model.components[0], y1)
        expected = tuple(LaurentPoly.variable(model.source_vars, v) * A
                         for v in model.source_vars)
        assert comp.components == expected

    def test_zero_composite_rejected(self):
        # the standard quadratic plane transformation, fed its base point
        W = ("y1", "y2", "y3")
        g = RationalMap([parse_poly("y2*y3", W), parse_poly("y1*y3", W),
                         parse_poly("y1*y2", W)])
        f = RationalMap([parse_poly("t", ("t",)),
                         LaurentPoly.zero(("t",)), LaurentPoly.zero(("t",))])
        with pytest.raises(ArithmeticError):
            compose_maps(g, f)


class TestChain:
    def _conic_chain(self):
        F = P("x1*x2 + x3^2", V3)
        X = InvariantHypersurface(F, DiagonalAction.trivial(3))
        step = cremona_step(X, 2, MonomialBasis(((1, 0), (0, 1))))
        return CremonaChain((step,)), F

    def test_trivial_chain_degree_one(self):
        chain, _ = self._conic_chain()
        assert chain.accumulated_order() == 1

    def test_parametrized_chain(self):
        chain, F = self._conic_chain()
        model = parametrize_linear(F, 1)
        comp, deg = chain_parametrization(chain, model)
        assert deg == 1
        assert on_variety(comp, chain.steps[-1].image)

    def test_single_quotient_step_degree(self):
        X = InvariantHypersurface(ex1_family(), EX1_ACTION)
        step = cremona_step(X, 4, EX1_BASIS)
        assert CremonaChain((step,)).accumulated_order() == 3

    def test_broken_chain_rejected(self):
        X = InvariantHypersurface(ex1_family(), EX1_ACTION)
        step = cremona_step(X, 4, EX1_BASIS)
        with pytest.raises(ValueError):
            CremonaChain((step, step))


class TestRoundTripIdentity:
    @pytest.mark.parametrize("family,action,basis,chart", [
        (ex1_family(), EX1_ACTION, EX1_BASIS, 4),
        (parse_poly("x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x1 + x5^3", V5),
         DiagonalAction(5, ((5, (1, 3, 4, 2, 0)),)),
         MonomialBasis(((0, 1, 0, 1), (0, 1, 3, 0), (0, 0, 2, 1), (1, 0, 0, 2))), 4),
    ])
    def test_substituting_basis_monomials_recovers_q_times_f(
            self, family, action, basis, chart):
        X = InvariantHypersurface(family, action)
        step = cremona_step(X, chart, basis)
        f = X.F.dehomogenize(chart)
        slots = [i for i in range(len(X.F.vars)) if i != chart]
        images = {}
        for j, row in enumerate(basis.rows):
            e = [0] * len(X.F.vars)
            for i, k in enumerate(row):
                e[slots[i]] = k
            images[f"u{j + 1}"] = LaurentPoly.monomial(X.F.vars, tuple(e))
        assert step.p.substitute(images) == f * step.q.substitute(images)


class TestSearchBasis:
    def test_beats_or_matches_hnf_basis(self):
        X = InvariantHypersurface(ex1_family(), EX1_ACTION)
        hnf_step = cremona_step(X, 4)
        basis, step = search_basis(X, 4, width=6, depth=4)
        assert validate_basis(EX1_ACTION, 4, basis).ok
        assert step.degree <= hnf_step.degree
        assert step.degree <= 4

    def test_deterministic(self):
        X = InvariantHypersurface(ex1_family(), EX1_ACTION)
        b1, s1 = search_basis(X, 4, width=4, depth=3)
        b2, s2 = search_basis(X, 4, width=4, depth=3)
        assert b1.rows == b2.rows and s1.image == s2.image

    # The bases and images the default search (width 8, depth 6) returns:
    # changes to how candidates are scored must keep every one of them.
    @pytest.mark.parametrize("family,action,rows,image", [
        (ex1_family, EX1_ACTION,
         ((-1, 2, 0, 0), (2, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
         "t2*x1^2*x2 + t1*x1*x2^2 + t3*x1*x2*x3 + t4*x1*x2*x4 + t5*x1*x2*x5 "
         "+ x3^3 + x4^3 + x5^3"),
        (ex3_family, PAIR_ACTION,
         ((-3, 0, 0, 0), (-1, 1, 0, 0), (-1, 0, 1, 1), (-2, 0, 0, 1)),
         "t35*x1*x2*x3 + t3*x1*x3^2 + t15*x1*x3*x5 + t9*x1*x4*x5 + t2*x2^2*x4 "
         "+ t45*x2*x4^2 + t1*x2*x4*x5 + t4*x3*x4^2 + t25*x4^2*x5"),
        (c3c3_family, C3C3_ACTION,
         ((-1, 0, 2, 1), (0, 1, 0, 1), (2, 0, -1, 1), (0, 0, 0, 3)),
         "t3*x1^2*x3 + t6*x1*x2*x3 + t1*x1*x3^2 + t2*x2^3 + t7*x2*x4*x5 "
         "+ t4*x4^2*x5 + t5*x4*x5^2"),
    ], ids=["ex1", "ex3", "c3c3"])
    def test_pinned_default_search(self, family, action, rows, image):
        F = family()
        basis, step = search_basis(InvariantHypersurface(F, action), 4)
        assert basis.rows == rows
        assert poly_str(step.image) == image
        assert step.degree == 3
        assert step == cremona_step(InvariantHypersurface(F, action), 4, basis)

    @staticmethod
    def _reference_cases():
        from helpers_random import random_invariant_case
        yield InvariantHypersurface(ex1_family(), EX1_ACTION), 4
        yield InvariantHypersurface(ex3_family(), PAIR_ACTION), 4
        yield InvariantHypersurface(c3c3_family(), C3C3_ACTION), 4
        yield InvariantHypersurface(FERMAT, PAIR_ACTION), 4
        yield InvariantHypersurface(FERMAT, C3C3_ACTION), 4
        rng = random.Random(20251)
        for _ in range(40):
            yield random_invariant_case(rng)

    @pytest.mark.parametrize("width,depth", [(8, 6), (4, 3)])
    def test_matches_reference_search(self, width, depth):
        from helpers_reference import reference_search_basis
        for X, chart in self._reference_cases():
            basis, step = search_basis(X, chart, width, depth)
            ref_basis, ref_step = reference_search_basis(X, chart, width, depth)
            assert basis.rows == ref_basis.rows
            assert (step.image, step.p, step.q, step.forward) == \
                (ref_step.image, ref_step.p, ref_step.q, ref_step.forward)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), width=st.integers(1, 3), depth=st.integers(0, 3))
    @example(seed=0, width=1, depth=0)
    @example(seed=0, width=1, depth=3)
    @example(seed=0, width=3, depth=0)
    def test_matches_reference_at_small_bounds(self, seed, width, depth):
        # narrow beams and shallow searches: depth 0 returns the start, and
        # width 1 follows one chain of moves
        from helpers_random import random_invariant_case
        from helpers_reference import reference_search_basis
        X, chart = random_invariant_case(random.Random(seed))
        basis, step = search_basis(X, chart, width, depth)
        ref_basis, ref_step = reference_search_basis(X, chart, width, depth)
        assert basis.rows == ref_basis.rows
        assert (step.image, step.p, step.q, step.forward) == \
            (ref_step.image, ref_step.p, ref_step.q, ref_step.forward)
        if depth == 0:
            assert basis == hnf_basis_for(X.action, chart)

    # depth 0 with width -1: a search that ignored the check would return at
    # once, where at depth 6 it would keep all but one candidate per level
    @pytest.mark.parametrize("width,depth", [(0, 6), (-1, 0), (8, -1)])
    def test_rejects_bad_bounds(self, width, depth):
        X = InvariantHypersurface(ex1_family(), EX1_ACTION)
        with pytest.raises(ValueError, match="width >= 1 and depth >= 0"):
            search_basis(X, 4, width, depth)

    def test_rewrites_only_start_and_winner(self, monkeypatch):
        import cremona.pipeline
        calls = []
        rewrite = cremona.pipeline.rewrite_invariant

        def counted(*args):
            calls.append(args)
            return rewrite(*args)

        monkeypatch.setattr(cremona.pipeline, "rewrite_invariant", counted)
        search_basis(InvariantHypersurface(c3c3_family(), C3C3_ACTION), 4)
        assert len(calls) <= 2


def test_coefficient_preservation_randomized():
    from helpers_random import random_invariant_case
    rng = random.Random(987123)
    for _ in range(60):
        X, chart = random_invariant_case(rng)
        step = cremona_step(X, chart)
        assert len(step.image.terms) == len(X.F.terms)
        assert Counter(step.image.terms.values()) == Counter(X.F.terms.values())
        assert step.image.min_deg_in_var(chart) == 0
        assert step.image.homogeneous_degree() == step.degree
