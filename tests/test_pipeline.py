import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona.action import DiagonalAction, InvariantHypersurface
from cremona.lang import parse_poly
from cremona.pipeline import (SEARCH_ENTRY_BOUND, BasisDiagnosis, CremonaChain,
                              MonomialBasis, RationalMap, _same_group,
                              chain_parametrization, compose_maps, cremona_step,
                              hnf_basis_for, linear_witness, parametrize_linear,
                              residual_action, rewrite_invariant, search_basis,
                              validate_basis)
from cremona.poly import LaurentPoly, poly_str
from cremona.scenarios import (C3C3_ACTION, C3C3_BASIS, EX1_ACTION, EX1_BASIS,
                               EX1_PARAMS, EX3_BASIS, FERMAT, MAIN_G, MAIN_G1, PAIR_ACTION,
                               X5, c3c3_family, ex1_family, ex3_family)
from cremona.verify import (compile_mod, eval_compiled, group_elements_mod_p, normalize_point,
                            on_variety)
from helpers_random import random_cyclic_case

V5 = ("x1", "x2", "x3", "x4", "x5")
V3 = ("x1", "x2", "x3")
# the invariant lattice at chart x2 is 3Z, so its bases are 1x1 and a
# search's only move is negation: its first level holds the negated start,
# (-3,), which wins, and its second finds only the start's key again
ONE_BY_ONE = InvariantHypersurface(parse_poly("x1^3 + x2^3", ("x1", "x2")),
                                   DiagonalAction(2, ((3, (1, 0)),)))


def P(text, variables=V5, params=(), zeta_order=None):
    return parse_poly(text, variables, params, zeta_order)


def _unchecked(F, action):
    """An InvariantHypersurface built without its invariance check."""
    X = object.__new__(InvariantHypersurface)
    object.__setattr__(X, "F", F)
    object.__setattr__(X, "action", action)
    return X


class TestValidateBasis:
    def test_worked_bases_ok(self):
        assert validate_basis(EX1_ACTION, 4, EX1_BASIS) == BasisDiagnosis(True, group_order=3)
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
        with pytest.raises(ValueError, match=r"term with exponents \(1, 0\) is not generated "
                                             r"by the basis \(non-invariant polynomial"):
            rewrite_invariant(f, 2, MonomialBasis(((2, 0), (0, 1))))

    def test_reduces_the_basis_once(self, monkeypatch):
        # every term is solved against one Hermite normal form of the basis
        import cremona.lattice
        calls = []
        hnf = cremona.lattice.hermite_normal_form

        def counted(M):
            calls.append(M)
            return hnf(M)

        monkeypatch.setattr(cremona.lattice, "hermite_normal_form", counted)
        f = ex1_family().dehomogenize(4)
        assert len(f.terms) >= 6
        p, _ = rewrite_invariant(f, 4, EX1_BASIS)
        assert calls == [EX1_BASIS.rows]
        assert len(p.terms) == len(f.terms)

    def test_terms_sharing_a_coordinate_are_refused(self, monkeypatch):
        # a solve that maps two terms to one vector would leave p with fewer
        # terms than f, and the search would score the wrong coordinates
        import cremona.lattice
        solve = cremona.lattice.solve_in_lattice
        first = []

        def collapsing(*args, **kwargs):
            first.append(solve(*args, **kwargs))
            return first[0]

        monkeypatch.setattr(cremona.lattice, "solve_in_lattice", collapsing)
        f = ex1_family().dehomogenize(4)
        with pytest.raises(ArithmeticError, match=f"{len(f.terms)} terms have 1 distinct"):
            rewrite_invariant(f, 4, EX1_BASIS)
        first.clear()
        with pytest.raises(ArithmeticError, match="distinct coordinates"):
            search_basis(InvariantHypersurface(ex1_family(), EX1_ACTION), 4)

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
        # x_c^d must be fixed, so that F / x_c^d is invariant: x1 and x2
        # have weights 1 and 2 under the group, and F has degree 4
        X = InvariantHypersurface(P("x1^2*x2^2 + x1^3*x3 + x2^3*x3 + x3^4", V3),
                                  DiagonalAction(3, ((3, (1, 2, 0)),)))
        for chart, chi in ((0, 1), (1, 2)):
            x = X.F.vars[chart]
            with pytest.raises(ValueError) as info:
                cremona_step(X, chart)
            assert str(info.value) == (f"F / {x}^4 is not invariant: {x}^4 has character "
                                       f"({chi},); choose a different chart")
        step = cremona_step(X, 2)
        assert step.group_order == 3 and step.image == P("x1^3 + x1^2*x2 + x2^2*x3 + x2*x3^2", V3)

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

    def test_group_order_computed_once(self, monkeypatch):
        # validate_basis computes the order, and the step record reuses it
        X = InvariantHypersurface(ex1_family(), EX1_ACTION)
        calls = []
        order = DiagonalAction.group_order

        def counted(self):
            calls.append(self)
            return order(self)

        monkeypatch.setattr(DiagonalAction, "group_order", counted)
        step = cremona_step(X, 4, EX1_BASIS)
        assert calls == [EX1_ACTION] and step.group_order == 3

    def test_parent_step_reduces_five_lattices(self, monkeypatch):
        # main_parametrization's step: one HNF rewrites the chart equation,
        # the parent's invariant lattice takes two and the residual action's
        # order two more; containment is a character test and the
        # subgroup's order was fixed when it was built
        import cremona.lattice
        calls = []
        hnf = cremona.lattice.hermite_normal_form

        def counted(M):
            calls.append(M)
            return hnf(M)

        X = InvariantHypersurface(FERMAT, MAIN_G1)
        basis = hnf_basis_for(MAIN_G1, chart=1)
        monkeypatch.setattr(cremona.lattice, "hermite_normal_form", counted)
        step = cremona_step(X, 1, basis, parent_action=MAIN_G)
        assert len(calls) <= 5 and step.residual.group_order() == 3

    def test_basis_chart_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            hnf_basis_for(EX1_ACTION, -1)

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

    @pytest.mark.parametrize("chart,weights", [(4, (1, 0, 2, 0, 0)), (2, (0, 0, 0, 1, 1))])
    def test_equivariant_over_f7(self, chart, weights):
        # forward(g * x) lies in the residual orbit of forward(x) for every
        # torus point x of X over F_7 and every g of the parent, also when
        # the parent moves the chart coordinate (chart 4; both fix chart 2)
        p = 7
        F = P("x1^3 + x2^3 + x1*x2*x3 + x3^3 + x4^3 + x5^3")
        parent = DiagonalAction(5, ((3, (0, 0, 0, 1, 1)), (3, (1, 2, 0, 0, 0))))
        sub = DiagonalAction(5, ((3, (1, 2, 0, 0, 0)),))
        step = cremona_step(InvariantHypersurface(F, sub), chart, hnf_basis_for(sub, chart),
                            parent_action=parent)
        assert step.residual.generators == ((3, weights),)
        on_X = compile_mod(F, p)
        comps = [compile_mod(c, p) for c in step.forward.components]

        def forward(x):
            return normalize_point(tuple(eval_compiled(c, x, p) for c in comps), p)

        def act(g, x):
            return tuple(a * b % p for a, b in zip(g, x))

        parent_elems = group_elements_mod_p(parent, p)
        residual_elems = group_elements_mod_p(step.residual, p)
        pairs = 0
        for rest in itertools.product(range(1, p), repeat=4):
            x = (1,) + rest
            if eval_compiled(on_X, x, p):
                continue
            y = forward(x)
            orbit = {normalize_point(act(h, y), p) for h in residual_elems}
            for g in parent_elems:
                assert forward(act(g, x)) in orbit
                pairs += 1
        assert pairs == 243 * 9  # torus points of X(F_7) times the parent's elements

    @pytest.mark.parametrize("chart", range(5))
    def test_main_subgroup_residual_at_every_chart(self, chart):
        # MAIN_G1 moves x1, x3, x4 and x5, MAIN_G every coordinate but x2
        res = residual_action(MAIN_G, MAIN_G1, hnf_basis_for(MAIN_G1, chart), chart)
        assert res.group_order() == 3 and res.generators[0][1][chart] == 0

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

    def test_link_compares_groups_not_generators(self):
        # main_parametrization's order-3 residual, presented by the square of
        # its generator, is the same group; an order-3 group that also fixes
        # the image but has other invariants is not
        X = InvariantHypersurface(FERMAT, MAIN_G1)
        step1 = cremona_step(X, 1, hnf_basis_for(MAIN_G1, chart=1), parent_action=MAIN_G)
        (order, row), = step1.residual.generators
        squared = DiagonalAction(5, ((order, tuple(2 * w for w in row)),))
        assert squared != step1.residual
        chart = squared.default_chart()
        step2 = cremona_step(InvariantHypersurface(step1.image, squared), chart,
                             hnf_basis_for(squared, chart))
        assert CremonaChain((step1, step2)).accumulated_order(start=1) == 3
        other = DiagonalAction(5, ((3, (0, 0, 1, 0, 0)),))
        assert InvariantHypersurface(step1.image, other)
        with pytest.raises(ValueError, match="step action differs"):
            CremonaChain.check_link(step1, step1.image, other)
        with pytest.raises(ValueError, match="step action differs"):
            CremonaChain.check_link(step1, step1.image, DiagonalAction.trivial(5))

    def test_link_accepts_a_shifted_presentation(self):
        # the residual is (1, 2, 0); (0, 1, 2) is that row plus (2, 2, 2),
        # so no coordinate has weight 0 under both, yet they are one group
        a = DiagonalAction(3, ((3, (1, 2, 0)),))
        X = InvariantHypersurface(P("x1^3 + x2^3 + x3^3", V3), DiagonalAction.trivial(3))
        step = cremona_step(X, 2, parent_action=a)
        assert step.residual == a
        CremonaChain.check_link(step, step.image, DiagonalAction(3, ((3, (0, 1, 2)),)))
        with pytest.raises(ValueError, match="step action differs"):
            CremonaChain.check_link(step, step.image, DiagonalAction(3, ((3, (0, 1, 1)),)))

    def test_one_coordinate_actions_compare_as_groups(self):
        # on one coordinate every action is the trivial projective group:
        # both invariant lattices are empty bases
        a = DiagonalAction(1, ((3, (0,)),))
        b = DiagonalAction(1, ((5, (0,)), (2, (0,))))
        assert a != b and a.invariant_lattice(0) == b.invariant_lattice(0) == ()
        assert _same_group(a, b)
        assert _same_group(a, DiagonalAction.trivial(1))
        assert not _same_group(a, DiagonalAction.trivial(2))

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
        yield ONE_BY_ONE, 1
        rng = random.Random(20251)
        for _ in range(40):
            yield random_invariant_case(rng)

    # (10_000, 2): a beam wider than any level's candidate set keeps them all
    @pytest.mark.parametrize("width,depth", [(8, 6), (4, 3), (10_000, 2)])
    def test_matches_reference_search(self, width, depth):
        from helpers_reference import reference_search_basis
        for X, chart in self._reference_cases():
            basis, step = search_basis(X, chart, width, depth)
            ref_basis, ref_step = reference_search_basis(X, chart, width, depth)
            assert basis.rows == ref_basis.rows
            assert (step.image, step.p, step.q, step.forward) == \
                (ref_step.image, ref_step.p, ref_step.q, ref_step.forward)

    @staticmethod
    def _large_order_cases():
        from helpers_random import random_cyclic_case
        F = P("x1^2*x2^5 + x3^7 + x3^2*x4^5 + x4^7", ("x1", "x2", "x3", "x4"))
        yield InvariantHypersurface(F, DiagonalAction(4, ((27, (1, 5, 0, 0)),))), 3
        # a start entry equal to the bound: in radix 32 instead of 33, the
        # rows (0, 16) and (1, -16) would share a key
        F = P("x1^8*x3^9 + 6*x1*x2^16", V3)
        yield InvariantHypersurface(F, DiagonalAction(3, ((16, (0, 3, 0)),))), 2
        for seed in range(36):
            yield random_cyclic_case(random.Random(seed))

    @pytest.mark.parametrize("width,depth", [(8, 6), (2, 3), (1, 1)])
    def test_matches_reference_on_large_orders(self, width, depth):
        # cyclic orders 17-32: most start bases have an entry above the
        # entry bound, which then sets the radix of the search's keys
        from helpers_reference import reference_search_basis
        cases = list(self._large_order_cases())
        starts = [hnf_basis_for(X.action, chart).rows for X, chart in cases]
        assert starts[:2] == [((1, 16, 0), (0, 27, 0), (0, 0, 1)), ((1, 0), (0, 16))]
        assert sum(max(map(abs, sum(rows, ()))) > SEARCH_ENTRY_BOUND for rows in starts) >= 20
        for X, chart in cases:
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

    # The number of candidates the default search scores on each level: a
    # rework that drops a move, or lets out-of-bound keys into seen, changes
    # them even where the winner survives.  In the cyclic case the start has
    # an entry 32, so a row sum past the bound can have entries past 32,
    # whose key is then that of another basis, scored on a later level.
    # Read through the selection call.
    @pytest.mark.parametrize("X,chart,levels", [
        (InvariantHypersurface(c3c3_family(), C3C3_ACTION), 4, [28, 195, 198, 197, 199, 201]),
        (InvariantHypersurface(ex1_family(), EX1_ACTION), 4, [28, 197, 199, 201, 197, 193]),
        (ONE_BY_ONE, 1, [1]),  # the second level selects nothing: the search stops
        (*random_cyclic_case(random.Random(29)), [14, 85, 100, 113, 117, 122]),
    ], ids=["c3c3", "ex1", "1x1", "cyclic-29"])
    def test_candidates_scored_per_level(self, monkeypatch, X, chart, levels):
        import heapq
        scored = []
        select = heapq.nsmallest

        def recording(n, candidates):
            scored.append(len(candidates))
            return select(n, candidates)

        monkeypatch.setattr(heapq, "nsmallest", recording)
        search_basis(X, chart)
        assert scored == levels

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

    def test_one_invariant_lattice_per_search(self, monkeypatch):
        # hnf_basis_for reduces the lattice for the start basis; the steps
        # read the order the action fixed when it was built
        calls = []
        lattice_of = DiagonalAction.invariant_lattice

        def counted(self, chart=None):
            calls.append((self, chart))
            return lattice_of(self, chart)

        X = InvariantHypersurface(c3c3_family(), C3C3_ACTION)
        monkeypatch.setattr(DiagonalAction, "invariant_lattice", counted)
        search_basis(X, 4)
        assert calls == [(C3C3_ACTION, 4)]

    @pytest.mark.parametrize("X", [InvariantHypersurface(c3c3_family(), C3C3_ACTION),
                                   InvariantHypersurface(ex1_family(), EX1_ACTION)],
                             ids=["c3c3", "ex1"])
    def test_builds_one_step(self, monkeypatch, X):
        # the start basis gets the chart checks and its chart equation only;
        # the winner's step goes through the module's cremona_step, which
        # the bench tracer wraps
        import cremona.pipeline
        steps, built = [], []
        step_of, step_class = cremona.pipeline.cremona_step, cremona.pipeline.CremonaStep

        def counted_step(*args):
            steps.append(args)
            return step_of(*args)

        def counted_build(**fields):
            built.append(fields["basis"])
            return step_class(**fields)

        monkeypatch.setattr(cremona.pipeline, "cremona_step", counted_step)
        monkeypatch.setattr(cremona.pipeline, "CremonaStep", counted_build)
        basis, step = search_basis(X, 4)
        assert steps == [(X, 4, basis)]
        assert built == [basis] and step.basis == basis

    # The message of each invalid input a search can reach.  A chart out of
    # range is refused while the start basis is computed; a chart whose
    # F / x_c^d has a nontrivial character, F divisible by the chart and a
    # monomial F by the chart checks, before any term is rewritten; a term
    # outside the lattice (an F that skipped InvariantHypersurface's
    # invariance check) by the rewrite of the start's chart equation.
    @pytest.mark.parametrize("X,chart,message,rewrites", [
        (InvariantHypersurface(ex1_family(), EX1_ACTION), 5,
         "chart 5 out of range for 5 coordinates", 0),
        (InvariantHypersurface(ex1_family(), EX1_ACTION), -1,
         "chart -1 out of range for 5 coordinates", 0),
        (InvariantHypersurface(P("x1^2*x2^2 + x1^3*x3 + x2^3*x3 + x3^4", V3),
                               DiagonalAction(3, ((3, (1, 2, 0)),))), 0,
         "F / x1^4 is not invariant: x1^4 has character (1,); choose a different chart", 0),
        (InvariantHypersurface(P("x1^2*x3 + x2^2*x3", V3), DiagonalAction(3, ((2, (1, 0, 0)),))),
         2, "defining polynomial is divisible by the chart variable x3; choose a different chart",
         0),
        (InvariantHypersurface(P("x1^3", V3), DiagonalAction.trivial(3)), 2,
         "defining polynomial is a monomial; the hypersurface is reducible", 0),
        (_unchecked(P("x1^3 + x1^2*x2 + x3^3", V3), DiagonalAction(3, ((3, (1, 2, 0)),))), 2,
         "term with exponents (2, 1) is not generated by the basis "
         "(non-invariant polynomial or invalid basis)", 1),
    ], ids=["chart-past-end", "chart-negative", "nontrivial-character", "divisible-by-chart",
            "monomial", "term-outside-lattice"])
    def test_invalid_inputs_keep_their_messages(self, monkeypatch, X, chart, message, rewrites):
        import cremona.pipeline
        calls = []
        rewrite = cremona.pipeline.rewrite_invariant

        def counted(*args):
            calls.append(args)
            return rewrite(*args)

        monkeypatch.setattr(cremona.pipeline, "rewrite_invariant", counted)
        with pytest.raises(ValueError) as info:
            search_basis(X, chart)
        assert type(info.value) is ValueError and str(info.value) == message
        assert len(calls) == rewrites


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


def test_step_refuses_a_changed_coefficient(monkeypatch):
    # the step's image must carry F's own coefficients; a chart equation
    # with one coefficient replaced is caught by the preservation check
    import cremona.pipeline
    rewrite = cremona.pipeline.rewrite_invariant

    def altered(*args):
        p, q = rewrite(*args)
        e, c = next(iter(p.terms.items()))
        return LaurentPoly._raw(p.vars, {**p.terms, e: c + 1}), q

    X = InvariantHypersurface(ex1_family(), EX1_ACTION)
    cremona_step(X, 4, EX1_BASIS)
    monkeypatch.setattr(cremona.pipeline, "rewrite_invariant", altered)
    with pytest.raises(ArithmeticError, match="coefficient preservation violated"):
        cremona_step(X, 4, EX1_BASIS)


@st.composite
def shifted_hypersurfaces(draw):
    """F of degree d, invariant under an action on 3 or 4 coordinates, and
    the action with generator i's row shifted by k_i * (1, ..., 1), where
    d * k_i = 0 mod e_i, so that F is invariant under both presentations."""
    n, d = draw(st.integers(3, 4)), draw(st.integers(2, 4))
    gens = tuple((e, tuple(draw(st.lists(st.integers(0, e - 1), min_size=n, max_size=n))))
                 for e in draw(st.lists(st.integers(2, 4), min_size=1, max_size=2)))
    a = DiagonalAction(n, gens)
    monomials = [tuple(c.count(j) for j in range(n))
                 for c in itertools.combinations_with_replacement(range(n), d)]
    invariant = [m for m in monomials if not any(a.character(m))]
    terms = draw(st.lists(st.sampled_from(invariant), min_size=2, max_size=6, unique=True)
                 if len(invariant) > 1 else st.nothing())
    F = LaurentPoly(V5[:n], {m: draw(st.integers(1, 5)) for m in terms})
    shifts = [draw(st.integers(0, 3)) * e // math.gcd(d, e) for e, _ in gens]
    b = DiagonalAction(n, tuple((e, tuple(w + k for w in row))
                                for (e, row), k in zip(gens, shifts)))
    return F, a, b


def _step_or_refusal(X, chart):
    try:
        step = cremona_step(X, chart)
    except ValueError as exc:
        return str(exc)
    return step.basis, step.image, step.group_order


@settings(max_examples=80, deadline=None)
@given(shifted_hypersurfaces())
def test_shift_keeps_every_step(case):
    # a shifted presentation is the same projective group: at every chart
    # the step refuses with the same message or builds the same image
    F, a, b = case
    Xa, Xb = InvariantHypersurface(F, a), InvariantHypersurface(F, b)
    for chart in range(a.n_vars):
        assert _step_or_refusal(Xa, chart) == _step_or_refusal(Xb, chart)
