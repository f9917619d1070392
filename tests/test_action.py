import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona.action import (DiagonalAction, InvariantHypersurface, common_chart,
                            subgroup_index)
from cremona.lang import parse_poly
from cremona.lattice import (lattice_contains, lattice_index, smith_normal_form,
                             spans_same_lattice)
from cremona.pipeline import _same_group
from cremona.scenarios import C3C3_ACTION, MAIN_G, MAIN_G1
from helpers_reference import reference_same_group, reference_subgroup_index

V5 = ("x1", "x2", "x3", "x4", "x5")
EX1 = DiagonalAction(5, ((3, (1, 2, 0, 0, 0)),))
C3C3 = DiagonalAction(5, ((3, (1, 0, 2, 0, 0)), (3, (0, 1, 2, 2, 0))))
QFANO2 = DiagonalAction(5, ((5, (1, 3, 4, 2, 0)),))


def P(text, params=()):
    return parse_poly(text, V5, params)


class TestConstruction:
    def test_weights_reduced(self):
        a = DiagonalAction(3, ((3, (4, -1, 0)),))
        assert a.generators == ((3, (1, 2, 0)),)

    def test_no_fixed_coordinate_required(self):
        # a scalar matrix is the identity of PGL: the presentation is
        # accepted, its projective group has order 1, and with no coordinate
        # of weight 0 the default chart is the last one
        a = DiagonalAction(3, ((3, (1, 1, 1)),))
        assert a.trivial_coordinates() == () and a.default_chart() == 2
        assert a.group_order() == 1 and a.is_trivial()
        assert not DiagonalAction(3, ((3, (1, 1, 0)),)).is_trivial()

    def test_trivial(self):
        t = DiagonalAction.trivial(4)
        assert t.group_order() == 1
        assert t.trivial_coordinates() == (0, 1, 2, 3)


class TestCharacter:
    def test_invariant_monomial(self):
        assert EX1.character((1, 1, 0, 0, 0)) == (0,)

    def test_single_variable(self):
        assert EX1.character((1, 0, 0, 0, 0)) == (1,)

    def test_laurent_monomial(self):
        # x1*x3/x4 under the two order-3 generators
        assert C3C3.character((1, 0, 1, -1, 0)) == (0, 0)

    def test_reduced_form(self):
        assert EX1.character((1, 1, 0, 0), chart=4) == (0,)

    def test_reduced_form_divides_by_the_chart(self):
        # (1, 0, 0, 0) at chart x2 is x1 / x2, of weight 1 - 2
        assert EX1.character((1, 0, 0, 0), chart=1) == (2,)
        assert EX1.character((0, 1, 1, 0), chart=0) == (1,)  # x3*x4 / x1^2

    def test_additive(self):
        rng = random.Random(2)
        for _ in range(40):
            m1 = tuple(rng.randint(-3, 3) for _ in range(5))
            m2 = tuple(rng.randint(-3, 3) for _ in range(5))
            s = tuple(a + b for a, b in zip(m1, m2))
            for chi1, chi2, chis, (e, _) in zip(
                    C3C3.character(m1), C3C3.character(m2), C3C3.character(s),
                    C3C3.generators):
                assert (chi1 + chi2) % e == chis


class TestInvariance:
    def test_family_invariant(self):
        F = P("t1*x1^3 + t2*x2^3 + (t3*x3 + t4*x4 + t5*x5)*x1*x2 + x3^3 + x4^3 + x5^3",
              params=("t1", "t2", "t3", "t4", "t5"))
        ok, offender = EX1.is_invariant(F)
        assert ok and offender is None

    def test_offender_reported(self):
        ok, offender = EX1.is_invariant(P("x1^3 + x1^2*x3"))
        assert not ok
        assert offender == (2, 0, 1, 0, 0)

    def test_trivial_action(self):
        ok, _ = DiagonalAction.trivial(5).is_invariant(P("x1^2 + x2*x3"))
        assert ok

    def test_product_of_invariants(self):
        f = P("x1*x2 + x3^2")
        g = P("x1^3 + x5^3")
        for poly in (f, g, f * g):
            ok, _ = EX1.is_invariant(poly)
            assert ok


class TestInvariantLattice:
    def test_ex1(self):
        L = EX1.invariant_lattice()
        assert spans_same_lattice(
            L, ((1, 1, 0, 0), (-1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

    def test_trivial(self):
        L = DiagonalAction.trivial(5).invariant_lattice()
        assert L == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def test_c3c3(self):
        L = C3C3.invariant_lattice()
        assert lattice_index(L) == 9
        for row in ((1, 0, 1, -1), (0, 1, 0, 1), (0, 0, 3, 0), (0, 0, 0, 3)):
            assert lattice_contains(L, row)

    def test_rows_are_invariant(self):
        for action in (EX1, C3C3, QFANO2):
            chart = action.default_chart()
            for row in action.invariant_lattice():
                assert not any(action.character(row, chart=chart))

    def test_invalid_chart(self):
        # x1 moves under EX1, yet it is a chart: the lattice of x^a / x1^|a|
        # is read through the weights less x1's, (1, -1, -1, -1) mod 3
        L = EX1.invariant_lattice(chart=0)
        assert spans_same_lattice(
            L, ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (3, 0, 0, 0)))
        assert lattice_index(L) == EX1.group_order() == 3
        assert not any(any(EX1.character(row, chart=0)) for row in L)

    @pytest.mark.parametrize("chart", [-1, 5, 6])
    def test_chart_out_of_range(self, chart):
        # -1 would otherwise read as the last coordinate
        with pytest.raises(ValueError, match="out of range"):
            EX1.invariant_lattice(chart=chart)


class TestGroupOrder:
    def test_orders(self):
        assert EX1.group_order() == 3
        assert C3C3.group_order() == 9
        assert QFANO2.group_order() == 5

    def test_order_fixed_at_construction(self, monkeypatch):
        # the constructor reduces the invariant lattice once; the order is
        # not part of the action's value
        calls = []
        lattice_of = DiagonalAction.invariant_lattice

        def counted(self, chart=None):
            calls.append(chart)
            return lattice_of(self, chart)

        monkeypatch.setattr(DiagonalAction, "invariant_lattice", counted)
        a = DiagonalAction(5, ((3, (0, 1, 2, 2, 0)),))
        assert calls == [None]
        assert a.group_order() == a.group_order() == 3 and calls == [None]
        assert DiagonalAction.trivial(5).group_order() == 1 and calls == [None]
        assert a == DiagonalAction(5, ((3, (3, 4, 5, 2, 0)),))
        assert repr(a) == "DiagonalAction(n_vars=5, generators=((3, (0, 1, 2, 2, 0)),))"

    def test_snf_cross_check(self):
        # |image of the character map| = prod(orders) / |coker of the stacked map|
        for action in (EX1, C3C3, QFANO2):
            chart = action.default_chart()
            W = tuple(tuple(w for j, w in enumerate(row) if j != chart)
                      for _, row in action.generators)
            orders = tuple(e for e, _ in action.generators)
            k = len(orders)
            cols = tuple(tuple(W[i][j] for i in range(k)) for j in range(len(W[0])))
            stacked = cols + tuple(
                tuple(orders[i] if i == j else 0 for i in range(k)) for j in range(k))
            S, _, _ = smith_normal_form(stacked)
            coker = 1
            for i in range(k):
                coker *= S[i][i]
            total = 1
            for e in orders:
                total *= e
            assert action.group_order() == total // coker


class TestSubgroups:
    def test_index_three(self):
        G = DiagonalAction(5, ((3, (1, 0, 2, 0, 0)), (3, (1, 0, 2, 2, 1))))
        G1 = DiagonalAction(5, ((3, (1, 0, 2, 2, 1)),))
        assert subgroup_index(G, G1) == 3

    def test_same_group(self):
        assert subgroup_index(EX1, EX1) == 1

    def test_whole_group_over_trivial(self):
        assert subgroup_index(EX1, DiagonalAction.trivial(5)) == 3

    def test_containment_violated(self):
        other = DiagonalAction(5, ((3, (0, 0, 1, 2, 0)),))
        with pytest.raises(ValueError):
            subgroup_index(other, EX1)

    def test_no_common_chart(self):
        # no coordinate has weight 0 under both, yet b's row is a's plus
        # (2, 2, 2): one projective group, compared at the last chart
        a = DiagonalAction(3, ((3, (1, 2, 0)),))
        b = DiagonalAction(3, ((3, (0, 1, 2)),))
        assert common_chart(a, b) == 2 and common_chart(a, DiagonalAction.trivial(3)) == 2
        assert common_chart(EX1, C3C3) == 4
        assert subgroup_index(a, b) == subgroup_index(b, a) == 1
        assert _same_group(a, b) and _same_group(b, a)

    def test_presentations_of_the_main_group(self):
        # MAIN_G's second generator is the square of C3C3_ACTION's second,
        # shifted by (1, 1, 1, 1, 1)
        assert subgroup_index(MAIN_G, C3C3_ACTION) == subgroup_index(C3C3_ACTION, MAIN_G) == 1
        assert subgroup_index(MAIN_G, MAIN_G1) == 3


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@st.composite
def _diagonal_actions(draw, n_vars):
    """One to three generators of order 2..5, which all fix one coordinate
    or, as often, need not."""
    fixed = draw(st.one_of(st.none(), st.integers(0, n_vars - 1)))
    gens = []
    for order in draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)):
        row = draw(st.lists(st.integers(0, order - 1), min_size=n_vars, max_size=n_vars))
        if fixed is not None:
            row[fixed] = 0
        gens.append((order, tuple(row)))
    return DiagonalAction(n_vars, tuple(gens))


def shifted(action, ks):
    """The action with generator i's row shifted by ks[i] * (1, ..., 1)."""
    return DiagonalAction(action.n_vars, tuple(
        (e, tuple(w + k for w in row)) for (e, row), k in zip(action.generators, ks)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(_diagonal_actions), st.lists(st.integers(0, 4), min_size=3))
@example(C3C3, [1, 1])
def test_shift_keeps_the_projective_group(a, ks):
    b = shifted(a, ks)
    assert a.group_order() == b.group_order()
    assert a.is_trivial() == b.is_trivial() == (a.group_order() == 1)
    for c in range(a.n_vars):
        assert a.invariant_lattice(c) == b.invariant_lattice(c)
    assert subgroup_index(a, b) == subgroup_index(b, a) == 1
    assert _same_group(a, b)


@st.composite
def _action_pairs(draw):
    """An action and a second one on the same coordinates: a subgroup made
    of powers of its generators, the same group presented otherwise, an
    unrelated action, or an action on other coordinates."""
    n = draw(st.integers(2, 5))
    a = draw(_diagonal_actions(n))
    kind = draw(st.sampled_from(("powers", "presentation", "unrelated", "other ambient")))
    if kind == "powers":
        ks = draw(st.lists(st.integers(0, 5), min_size=len(a.generators),
                           max_size=len(a.generators)))
        b = DiagonalAction(n, tuple((e, tuple(k * w for w in row))
                                    for (e, row), k in zip(a.generators, ks)))
    elif kind == "presentation":
        # g0 -> g0^k * g1 with k a unit mod e0, and the generators reversed
        gens = list(a.generators)
        if gens:
            (e0, w0) = gens[0]
            k = draw(st.sampled_from([k for k in range(1, e0) if math.gcd(k, e0) == 1]))
            gens[0] = (e0, tuple(k * w for w in w0))
        if len(gens) > 1:
            (e0, w0), (e1, w1) = gens[:2]
            lcm = e0 * e1 // math.gcd(e0, e1)
            gens[0] = (lcm, tuple(lcm // e0 * x + lcm // e1 * y for x, y in zip(w0, w1)))
        b = DiagonalAction(n, tuple(reversed(gens)))
    elif kind == "unrelated":
        b = draw(_diagonal_actions(n))
    else:
        b = draw(_diagonal_actions(n % 5 + 1))
    return a, b


@settings(max_examples=300, deadline=None)
@given(_action_pairs())
@example((C3C3, EX1))  # EX1 is not in C3C3: the containment check refuses
@example((EX1, DiagonalAction(5, ((3, (2, 1, 0, 0, 0)),))))  # one group, two presentations
def test_group_facts_match_lattice_reference(pair):
    # subgroup_index reads containment off characters and the order fixed at
    # construction; the reference solves in both lattices and compares HNFs
    for a, b in (pair, pair[::-1]):
        assert _outcome(subgroup_index, a, b) == _outcome(reference_subgroup_index, a, b)
        assert _same_group(a, b) == reference_same_group(a, b)


class TestInvariantHypersurface:
    def test_accepts_invariant(self):
        X = InvariantHypersurface(P("x1^3 + x2^3 + x3^3 + x4^3 + x5^3"), EX1)
        assert X.degree == 3

    def test_rejects_noninvariant(self):
        with pytest.raises(ValueError):
            InvariantHypersurface(P("x1^3 + x1^2*x3"), EX1)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            InvariantHypersurface(P("x1*x2 + x3"), EX1)

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            InvariantHypersurface(P("x3 + x4"), EX1)
