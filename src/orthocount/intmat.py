"""Exact integer matrix algebra: Bareiss determinants and Gram pivots, Hermite
and Smith normal forms, integer kernels, row reduction over F_p and LLL
reduction of Gram matrices.

Everything here works on lists of lists of Python ints, so there is no
overflow anywhere; matrix sizes in this package are tiny (rank <= ~10).
"""

from math import gcd


def copy_mat(M):
    return [list(row) for row in M]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    if len(A[0]) != k:
        raise ValueError(f"cannot multiply a {n}x{len(A[0])} matrix by a {k}x{m} one")
    return [[sum(A[i][l] * B[l][j] for l in range(k)) for j in range(m)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def det_bareiss(M):
    """Exact determinant by fraction-free (Bareiss) elimination.

    The last pivot is the determinant; a 0x0 matrix has none and gets the
    empty product 1.
    """
    A = copy_mat(M)
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * prev


def gram_pivots(G):
    """Bareiss elimination of a symmetric G without row swaps (Bareiss 1968;
    Cohen, GTM 138, 2.7.3): the upper triangular rows U, with U[i][j] the minor
    on rows 0..i and columns 0..i-1, j, so U[i][i] = det G[:i+1, :i+1] and
    G = L D L^T with L[j][i] = U[i][j]/U[i][i].  ValueError at a pivot <= 0."""
    A, n, prev = copy_mat(G), len(G), 1
    for k, row in enumerate(A):
        p = row[k]
        if p <= 0:
            raise ValueError(f"form is not positive definite: leading minor {k + 1} is {p}")
        for i in range(k + 1, n):
            for j in range(i, n):  # every stage is symmetric: row[i] is A[i][k]
                A[i][j] = (A[i][j] * p - row[i] * row[j]) // prev
        prev = p
    return [[0] * i + row[i:] for i, row in enumerate(A)]


def hnf_columns(M):
    """Column-style Hermite normal form.

    Returns (H, U) with M @ U = H, U unimodular, H lower-triangular-ish with
    pivot columns first and zero columns last.  Rows of M are equations,
    columns are generators.
    """
    A = copy_mat(M)
    rows, cols = len(A), len(A[0])
    U = identity(cols)
    pivot_col = 0
    for r in range(rows):
        # gcd-reduce row r across columns >= pivot_col
        while True:
            nz = [j for j in range(pivot_col, cols) if A[r][j] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(A[r][j]))
            for j in nz:
                if j == j0:
                    continue
                q = A[r][j] // A[r][j0]
                for i in range(rows):
                    A[i][j] -= q * A[i][j0]
                for i in range(cols):
                    U[i][j] -= q * U[i][j0]
        nz = [j for j in range(pivot_col, cols) if A[r][j] != 0]
        if not nz:
            continue
        j0 = nz[0]
        if j0 != pivot_col:
            for i in range(rows):
                A[i][j0], A[i][pivot_col] = A[i][pivot_col], A[i][j0]
            for i in range(cols):
                U[i][j0], U[i][pivot_col] = U[i][pivot_col], U[i][j0]
        if A[r][pivot_col] < 0:
            for i in range(rows):
                A[i][pivot_col] = -A[i][pivot_col]
            for i in range(cols):
                U[i][pivot_col] = -U[i][pivot_col]
        # reduce earlier pivot columns against this one (keeps entries small)
        for j in range(pivot_col):
            if A[r][j] != 0:
                q = A[r][j] // A[r][pivot_col]
                for i in range(rows):
                    A[i][j] -= q * A[i][pivot_col]
                for i in range(cols):
                    U[i][j] -= q * U[i][pivot_col]
        pivot_col += 1
    return A, U


def kernel_basis(M):
    """Integer basis of {x : M x = 0}, as a list of column vectors."""
    H, U = hnf_columns(M)
    cols = len(M[0])
    out = []
    for j in range(cols):
        if all(H[i][j] == 0 for i in range(len(M))):
            out.append([U[i][j] for i in range(cols)])
    return out


def smith_normal_form(M):
    """Elementary divisors d_1 | d_2 | ... of M, the nonzero ones, increasing.

    A <- transpose(H), H the column Hermite form of A, until A is diagonal
    (Kannan & Bachem, SIAM J. Comput. 8, 1979); then diag(a, b) ~ diag(gcd,
    lcm) over Z makes the diagonal a divisibility chain.  It terminates: from
    the second pass on (A != 0), a_00 > 0 is the gcd of its row, so |a_00|
    never grows, and it drops until a_00 divides its row and its column; that
    pass clears both.  They stay clear: later passes combine only columns
    right of the pivot, and the earlier-pivot reduction finds zeros.  The
    same argument then repeats on the next diagonal entry.
    """
    A = M
    while any(x for i, row in enumerate(A) for j, x in enumerate(row) if i != j):
        A = transpose(hnf_columns(A)[0])
    d = [abs(A[i][i]) for i in range(min(len(A), len(A[0]))) if A[i][i]]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def solve_integer(M, v):
    """One integer solution x of M x = v, or None."""
    H, U = hnf_columns(M)
    rows, cols = len(M), len(M[0])
    x, r = [0] * cols, list(v)
    for j in range(cols):
        i = next((i for i in range(rows) if H[i][j] != 0), None)
        if i is None:
            break
        x[j], rest = divmod(r[i], H[i][j])
        if rest:
            return None
        for k in range(rows):
            r[k] -= x[j] * H[k][j]
    if any(r):
        return None
    return [sum(U[i][j] * x[j] for j in range(cols)) for i in range(cols)]


def fp_row_reduce(M, p):
    """Reduced row echelon form of M over F_p, p prime.

    Returns (rows, pivots): the reduced rows (entries in 0..p-1, zero rows
    last) and the pivot column of each nonzero row, so the rank over F_p is
    len(pivots).
    """
    A = [[x % p for x in row] for row in M]
    cols = len(A[0]) if A else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return A, pivots


def lll_gram(G):
    """LLL reduction of a positive definite Gram matrix, delta = 3/4, in
    Python ints (Cohen, GTM 138, Alg. 2.6.7, the integral LLL).

    Returns (R, H) with R = H^T G H and H unimodular, whose columns are the
    reduced basis in the coordinates of G.  The algorithm keeps the leading
    minors d_i and the numerators lambda_ij = d_j mu_ij of Gram-Schmidt
    instead of the rational mu_ij, so every division in it is exact.  R is
    kept as the Gram matrix of the current basis through every step.
    ValueError at a leading minor <= 0.
    """
    n = len(G)
    R = copy_mat(G)
    H = identity(n)  # H[k] is the k-th basis vector, a column of the result
    d = [1] * (n + 1)  # d[i + 1] = det of the Gram matrix of H[0..i]
    lam = [[0] * n for _ in range(n)]

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])  # nearest integer
            H[k] = [x - q * y for x, y in zip(H[k], H[l])]
            Rk = R[k] = [x - q * y for x, y in zip(R[k], R[l])]
            Rk[k] -= q * Rk[l]
            for row, x in zip(R, Rk):
                row[k] = x
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        H[k - 1], H[k] = H[k], H[k - 1]
        R[k - 1], R[k] = R[k], R[k - 1]
        for row in R:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        mu = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (B * t + mu * lam[i][k]) // d[k + 1]
        d[k] = B

    k, kmax = 0, -1
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = R[k][j]
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise ValueError(f"form is not positive definite: leading minor {k + 1} is {u}")
                else:
                    d[k + 1] = u
        if k == 0:
            k = 1
            continue
        red(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return R, transpose(H)
