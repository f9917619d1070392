import random
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cremona.lattice
from cremona.lattice import (congruence_kernel, det, elementary_divisors,
                             hermite_normal_form, hnf_basis, identity,
                             lattice_contains, lattice_index, matmul,
                             smith_normal_form, solve_in_lattice,
                             spans_same_lattice, transpose)
from helpers_reference import reference_solve


class TestHNF:
    def test_identity(self):
        I3 = identity(3)
        H, U = hermite_normal_form(I3)
        assert H == I3 and U == I3

    def test_already_hnf(self):
        M = ((2, 0), (0, 3))
        H, U = hermite_normal_form(M)
        assert H == M and U == identity(2)

    def test_reduction(self):
        H, U = hermite_normal_form(((1, 1), (-1, 2)))
        assert H == ((1, 1), (0, 3))
        assert matmul(U, ((1, 1), (-1, 2))) == H
        assert abs(det(U)) == 1

    def test_zero_rows_sink(self):
        H, _ = hermite_normal_form(((1, 2), (2, 4)))
        assert H == ((1, 2), (0, 0))


class TestSNF:
    def test_gcd_row(self):
        S, U, V = smith_normal_form(((1, 2),))
        assert S == ((1, 0),)

    def test_single(self):
        S, _, _ = smith_normal_form(((3,),))
        assert S == ((3,),)

    def test_two_by_two(self):
        M = ((2, 4), (6, 8))
        S, U, V = smith_normal_form(M)
        assert S == ((2, 0), (0, 4))
        assert matmul(matmul(U, M), V) == S

    # input: its S, and the sizes of the square U and V
    EDGE_CASES = {
        (): ((), 0, 0),
        ((),): (((),), 1, 0),
        ((), ()): (((), ()), 2, 0),
        ((0, 0),): (((0, 0),), 1, 2),
        ((-3,),): (((3,),), 1, 1),
        ((2, 0), (0, 3)): (((1, 0), (0, 6)), 2, 2),
        ((0, 0), (0, 5)): (((5, 0), (0, 0)), 2, 2),
        ((-2, 0), (0, -4)): (((2, 0), (0, 4)), 2, 2),
    }

    @pytest.mark.parametrize("M", EDGE_CASES, ids=str)
    def test_edge_cases(self, M):
        expected, m, n = self.EDGE_CASES[M]
        S, U, V = smith_normal_form(M)
        assert S == expected
        assert len(U) == m and all(len(row) == m for row in U)
        assert len(V) == n and all(len(row) == n for row in V)
        assert matmul(matmul(U, M), V) == S
        assert abs(det(U)) == 1 and abs(det(V)) == 1


def _random_matrix(rng, max_dim=6, bound=100):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m))


def _is_hnf(H):
    last = -1
    for row in H:
        nz = [j for j, v in enumerate(row) if v]
        if not nz:
            continue
        piv = nz[0]
        assert piv > last, "pivots must move right"
        last = piv
        assert row[piv] > 0
    # entries above pivots reduced
    rows = [r for r in H if any(r)]
    for i, row in enumerate(rows):
        piv = next(j for j, v in enumerate(row) if v)
        for k in range(i):
            assert 0 <= rows[k][piv] < row[piv]


def test_randomized_normal_form_invariants():
    rng = random.Random(20240811)
    for _ in range(120):
        M = _random_matrix(rng, max_dim=5, bound=60)
        H, U = hermite_normal_form(M)
        assert abs(det(U)) == 1
        assert matmul(U, M) == H
        _is_hnf(H)
        H2, _ = hermite_normal_form(H)
        assert H2 == H  # idempotent
        S, P, Q = smith_normal_form(M)
        assert matmul(matmul(P, M), Q) == S
        assert abs(det(P)) == 1 and abs(det(Q)) == 1
        diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
        assert elementary_divisors(M) == tuple(d for d in diag if d)
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
        assert all(d >= 0 for d in diag)
        if len(M) == len(M[0]):
            d = det(M)
            if d:
                prod = 1
                for x in diag:
                    prod *= x
                assert prod == abs(d)


class TestSolveInLattice:
    def test_cube_in_basis(self):
        B = ((1, 1), (-1, 2))
        c = solve_in_lattice(B, (3, 0))
        assert c == (2, -1)

    def test_cube_with_inverse(self):
        B = ((0, 1, 0, 1), (0, 0, 0, 3))
        assert solve_in_lattice(B, (0, 3, 0, 0)) == (3, -1)

    def test_identity_basis(self):
        assert solve_in_lattice(identity(4), (5, -2, 0, 7)) == (5, -2, 0, 7)

    def test_absent(self):
        assert solve_in_lattice(((2, 0), (0, 1)), (1, 0)) is None

    def test_reconstruction(self):
        rng = random.Random(7)
        B = ((1, 2, 0), (0, 3, 1), (0, 0, 2))
        for _ in range(50):
            c = tuple(rng.randint(-5, 5) for _ in range(3))
            target = tuple(sum(c[i] * B[i][j] for i in range(3)) for j in range(3))
            got = solve_in_lattice(B, target)
            assert got == c

    # a longer target is not truncated, to (1, 2), nor does a shorter one
    # raise a bare IndexError; the lengths are compared before any reduction
    @pytest.mark.parametrize("target", [(1, 2, 3), (1,)], ids=["longer", "shorter"])
    def test_target_length_must_match_the_rows(self, monkeypatch, target):
        B = ((1, 0), (0, 1))
        reduced = hermite_normal_form(B)

        def no_reduction(M):
            raise AssertionError("reduced before the lengths were compared")

        monkeypatch.setattr(cremona.lattice, "hermite_normal_form", no_reduction)
        message = f"target has length {len(target)}, basis rows have length 2"
        for kwargs in ({}, {"reduced": reduced}):
            with pytest.raises(ValueError, match=message):
                solve_in_lattice(B, target, **kwargs)
        with pytest.raises(ValueError, match=message):
            lattice_contains(B, target)

    # (1, 0) fails the first row's divisibility test, so a solve that checked
    # the rank only on reaching a zero row would return None
    def test_dependent_basis_refused_before_the_target(self):
        B = ((2, 0), (4, 0))
        for kwargs in ({}, {"reduced": hermite_normal_form(B)}):
            with pytest.raises(ValueError, match="not linearly independent"):
                solve_in_lattice(B, (1, 0), **kwargs)


@st.composite
def _full_rank_bases(draw, square):
    """k x n integer matrices of rank k, entries in [-9, 9]: k == n <= 5,
    or 1 <= k < n <= 5."""
    n = draw(st.integers(1, 5) if square else st.integers(2, 5))
    k = n if square else draw(st.integers(1, n - 1))
    row = st.tuples(*[st.integers(-9, 9)] * n)
    B = tuple(draw(st.lists(row, min_size=k, max_size=k)))
    assume(det(matmul(B, transpose(B))) != 0)  # Gram determinant: rows independent
    return B


@pytest.mark.parametrize("square", [True, False], ids=["square", "non-square"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solve_agrees_with_exact_elimination(square, data):
    B = data.draw(_full_rank_bases(square))
    n = len(B[0])
    c = data.draw(st.tuples(*[st.integers(-9, 9)] * len(B)))
    target = tuple(sum(ci * row[j] for ci, row in zip(c, B)) for j in range(n))
    reduced = hermite_normal_form(B)
    assert solve_in_lattice(B, target) == c
    assert solve_in_lattice(B, target, reduced=reduced) == c
    moved = tuple(map(add, target, data.draw(st.tuples(*[st.integers(-2, 2)] * n))))
    want = reference_solve(B, moved)
    assert solve_in_lattice(B, moved) == want
    assert solve_in_lattice(B, moved, reduced=reduced) == want


class TestCongruenceKernel:
    def test_single_congruence(self):
        L = congruence_kernel(((1, 2, 0, 0),), (3,))
        assert lattice_index(L) == 3
        assert lattice_contains(L, (1, 1, 0, 0))
        assert lattice_contains(L, (-1, 2, 0, 0))
        assert not lattice_contains(L, (1, 0, 0, 0))

    def test_two_congruences(self):
        L = congruence_kernel(((1, 0, 2, 0), (0, 1, 2, 2)), (3, 3))
        assert lattice_index(L) == 9
        for row in ((1, 0, 1, -1), (0, 1, 0, 1), (0, 0, 3, 0), (0, 0, 0, 3)):
            assert lattice_contains(L, row)

    def test_trivial(self):
        L = congruence_kernel(((0, 0, 0),), (1,))
        assert L == identity(3)

    def test_order_multiples_contained(self):
        orders = (2, 3)
        W = ((1, 1, 0), (1, 2, 2))
        L = congruence_kernel(W, orders)
        lcm = 6
        for j in range(3):
            e = tuple(lcm if i == j else 0 for i in range(3))
            assert lattice_contains(L, e)


class TestSpans:
    def test_same(self):
        assert spans_same_lattice(((1, 1), (-1, 2)), ((1, 1), (0, 3)))

    def test_index_two(self):
        assert not spans_same_lattice(identity(2), ((2, 0), (0, 1)))

    def test_self(self):
        B = ((3, 1), (0, 2))
        assert spans_same_lattice(B, B)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            spans_same_lattice(((1, 2), (2, 4)), identity(2))

    def test_empty_bases_span_the_zero_lattice(self):
        # the invariant lattice of an action on one coordinate has no rows
        assert spans_same_lattice((), ())
        assert spans_same_lattice(identity(0), ())

    @pytest.mark.parametrize("B", [identity(1), identity(2), ((2, 0), (0, 3))])
    def test_empty_basis_against_a_nonempty_one(self, B):
        assert not spans_same_lattice((), B)
        assert not spans_same_lattice(B, ())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=2, max_size=3))
def test_hnf_basis_spans_rows(rows):
    M = tuple(map(tuple, rows))
    B = hnf_basis(M)
    for r in M:
        if any(r):
            assert solve_in_lattice(B, r) is not None


def _random_matrices(rng, count, square=False):
    for _ in range(count):
        m = rng.randint(1, 4)
        n = m if square else rng.randint(1, 4)
        yield tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))


def test_elementary_divisors_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    for M in _random_matrices(random.Random(20251018), 80):
        expected = tuple(abs(int(d)) for d in invariant_factors(sympy.Matrix(M)) if d != 0)
        assert elementary_divisors(M) == expected


def test_hnf_basis_spans_sympy_hnf_lattice():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
    checked = 0
    for M in _random_matrices(random.Random(1018), 80, square=True):
        if det(M) == 0:
            continue
        # sympy's HNF is column-style: its columns span the rows of M
        H = sympy_hnf(sympy.Matrix(M).T)
        U = H.inv() * sympy.Matrix(hnf_basis(M)).T
        assert all(x.is_integer for x in U) and abs(U.det()) == 1
        checked += 1
    assert checked > 40
