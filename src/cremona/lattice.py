"""Integer matrix and lattice algorithms.

Matrices are tuples of tuples of Python ints; rows of a basis span a lattice.
The single canonical form used everywhere is the row-style Hermite normal
form with positive pivots and entries above pivots reduced into [0, pivot).
It is also the only unimodular elimination loop: the Smith normal form is
built from rounds of it on a matrix and its transpose.  ``det`` runs its own
fraction-free (Bareiss) elimination, which needs no unimodular transform.
"""
from __future__ import annotations

IntMatrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M: IntMatrix) -> IntMatrix:
    return tuple(zip(*M)) if M else ()


def matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    if A and B and len(A[0]) != len(B):
        raise ValueError("dimension mismatch")
    Bt = transpose(B)
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A)


def vec_mat(v: tuple[int, ...], M: IntMatrix) -> tuple[int, ...]:
    """Row vector times matrix."""
    if len(v) != len(M):
        raise ValueError("dimension mismatch")
    return tuple(sum(v[i] * M[i][j] for i in range(len(v))) for j in range(len(M[0])))


def det(M: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style HNF.  Returns (H, U) with U unimodular and H = U*M.

    Pivots are positive, entries above each pivot lie in [0, pivot), and zero
    rows sink to the bottom.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    H = [list(r) for r in M]
    U = [list(r) for r in identity(m)]
    r = 0
    for c in range(n):
        if r == m:
            break
        # gather the column below r to a single nonzero pivot at row r
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][c]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            clean = True
            for i in range(r + 1, m):
                if H[i][c]:
                    q = H[i][c] // H[r][c]
                    if q:
                        H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                        U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if H[i][c]:
                        clean = False
            if clean:
                break
        if r < m and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q:
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1
    return tuple(map(tuple, H)), tuple(map(tuple, U))


def hnf_basis(M: IntMatrix) -> IntMatrix:
    """Nonzero rows of the HNF: the canonical basis of the row span."""
    H, _ = hermite_normal_form(M)
    return tuple(row for row in H if any(row))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Returns (S, U, V) with S = U*M*V and U, V unimodular.  S is diagonal
    with nonnegative entries d_i | d_{i+1}, its zero entries last.

    Built from Hermite normal form rounds (Kannan & Bachem, 1979): a round
    takes the HNF of S and then the HNF of its transpose, and rounds repeat
    until S is diagonal.  Then, while some d_i != 0 does not divide a later
    d_j, column j is added to column i and rounds resume, which leaves
    gcd(d_i, d_j) at (i, i).  The loop ends: a round either leaves S
    diagonal or lowers a pivot, and each column addition replaces d_i by a
    proper divisor of it.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    S, U, V = tuple(map(tuple, M)), identity(m), identity(n)
    if not (m and n):  # transpose cannot represent an m x 0 matrix
        return S, U, V
    while True:
        S, P = hermite_normal_form(S)
        T, Q = hermite_normal_form(transpose(S))
        S, U, V = transpose(T), matmul(P, U), matmul(V, transpose(Q))
        if any(S[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        d = [S[i][i] for i in range(min(m, n))]
        bad = next(((i, j) for i in range(len(d)) for j in range(i + 1, len(d))
                    if d[i] and d[j] % d[i]), None)
        if bad is None:
            return S, U, V
        i, j = bad
        # I + e_j e_i^T: adds column j to column i
        E = tuple(tuple(int(r == c or (r, c) == (j, i)) for c in range(n)) for r in range(n))
        S, V = matmul(S, E), matmul(V, E)


def elementary_divisors(M: IntMatrix) -> tuple[int, ...]:
    S, _, _ = smith_normal_form(M)
    return tuple(S[i][i] for i in range(min(len(S), len(S[0]) if S else 0)) if S[i][i] != 0)


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------

def lattice_index(B: IntMatrix) -> int:
    """Index of the row span of a full-rank square basis in Z^n."""
    d = det(B)
    if d == 0:
        raise ValueError("basis is rank deficient")
    return abs(d)


def solve_in_lattice(B: IntMatrix, target: tuple[int, ...]):
    """Integer coefficients c with sum(c_i * B_i) == target, or None.

    B must have Z-linearly independent rows.
    """
    if not B:
        return () if not any(target) else None
    H, U = hermite_normal_form(B)
    if any(not any(row) for row in H):
        raise ValueError("basis rows are not linearly independent")
    t = list(target)
    y = [0] * len(H)
    for i, row in enumerate(H):
        c = next(j for j, v in enumerate(row) if v != 0)
        if t[c] % row[c] != 0:
            return None
        k = t[c] // row[c]
        y[i] = k
        if k:
            t = [a - k * b for a, b in zip(t, row)]
    if any(t):
        return None
    return vec_mat(tuple(y), U)


def lattice_contains(B: IntMatrix, v: tuple[int, ...]) -> bool:
    return solve_in_lattice(B, v) is not None


def spans_same_lattice(B1: IntMatrix, B2: IntMatrix) -> bool:
    """True iff two full-rank bases span the same lattice (equal HNFs).  An
    empty basis spans the zero lattice, which only an empty basis matches."""
    if not B1 or not B2:
        return not B1 and not B2
    if len(B1[0]) != len(B2[0]):
        raise ValueError("ambient dimension mismatch")
    H1 = hnf_basis(B1)
    H2 = hnf_basis(B2)
    if len(H1) != len(B1) or len(H2) != len(B2):
        raise ValueError("basis is rank deficient")
    return H1 == H2


def congruence_kernel(W: IntMatrix, orders: tuple[int, ...]) -> IntMatrix:
    """Basis of {alpha in Z^n : W alpha == 0 mod orders, componentwise}.

    Computed by stacking the columns of W over diag(orders) and extracting a
    kernel basis via HNF; the result is the canonical HNF basis, full rank n.
    """
    k = len(W)
    if k != len(orders):
        raise ValueError("one order per row of W is required")
    if any(e < 1 for e in orders):
        raise ValueError("orders must be positive")
    n = len(W[0]) if k else 0
    if k == 0:
        return identity(n)
    # rows: n ambient directions, then k order rows
    A = [[W[i][j] for i in range(k)] for j in range(n)]
    A += [[orders[i] if i == j else 0 for i in range(k)] for j in range(k)]
    H, U = hermite_normal_form(tuple(map(tuple, A)))
    kernel_rows = [U[r][:n] for r in range(len(H)) if not any(H[r])]
    basis = hnf_basis(tuple(map(tuple, kernel_rows)))
    if len(basis) != n:
        raise ArithmeticError("kernel lattice is not full rank")
    return basis
