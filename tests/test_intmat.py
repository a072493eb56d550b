import itertools
import random
from fractions import Fraction

import pytest

from orthocount.intmat import (det_bareiss, fp_row_reduce, gram_pivots, identity, lll_gram,
                               mat_mul, smith_normal_form, transpose)

from conftest import E8_GRAM, random_posdef_gram, random_unimodular


def test_det_of_empty_matrix_is_one():
    assert det_bareiss([]) == 1


def test_det_small_cases():
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[0]]) == 0
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4


def test_gram_pivots_are_minors():
    # the diagonal is the old leading_principal_minors, kept here as the
    # oracle; U[i][j] is the minor on rows 0..i and columns 0..i-1, j
    rng = random.Random(1968)
    grams = [E8_GRAM] + [random_posdef_gram(rng, rng.randint(1, 7), spread=2)
                         for _ in range(30)]
    for G in grams:
        r = len(G)
        U = gram_pivots(G)
        assert [U[k][k] for k in range(r)] == \
            [det_bareiss([row[:k] for row in G[:k]]) for k in range(1, r + 1)]
        for i in range(r):
            assert U[i][:i] == [0] * i
            for j in range(i + 1, r):
                assert U[i][j] == det_bareiss([[G[a][b] for b in [*range(i), j]]
                                               for a in range(i + 1)])
    # E8's leading blocks are A_1, ..., A_7, then E8 itself is unimodular
    assert [row[k] for k, row in enumerate(gram_pivots(E8_GRAM))] == [2, 3, 4, 5, 6, 7, 8, 1]


@pytest.mark.parametrize("G", [[[2, 3], [3, 2]], [[2, 2], [2, 2]], [[-2]]])
def test_gram_pivots_refuse_non_positive_definite(G):
    with pytest.raises(ValueError, match="not positive definite"):
        gram_pivots(G)


def gram_schmidt(R):
    """(mu, B): the Gram-Schmidt coefficients mu[i][j] and squared lengths
    B[i] of the basis with Gram matrix R, in Fractions."""
    n = len(R)
    mu, B = [[Fraction(0)] * n for _ in range(n)], []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (Fraction(R[i][j]) - sum(mu[j][k] * mu[i][k] * B[k] for k in range(j))) / B[j]
        B.append(Fraction(R[i][i]) - sum(mu[i][k] ** 2 * B[k] for k in range(i)))
    return mu, B


def test_lll_gram_is_reduced_and_unimodular():
    rng = random.Random(1982)
    grams = [E8_GRAM] + [random_posdef_gram(rng, rng.randint(1, 7), spread=3)
                         for _ in range(60)]
    for steps in (30, 60):
        U = random_unimodular(random.Random(5), 8, steps=steps)
        grams.append(mat_mul(mat_mul(transpose(U), E8_GRAM), U))
    for G in grams:
        n = len(G)
        R, H = lll_gram(G)
        assert mat_mul(mat_mul(transpose(H), G), H) == R
        assert abs(det_bareiss(H)) == 1
        mu, B = gram_schmidt(R)
        for i in range(n):
            assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
        for k in range(1, n):
            assert B[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]
        # a reduced basis is a fixed point
        assert lll_gram(R) == (R, identity(n))


def test_lll_gram_keeps_standard_e8_roots():
    # the Dynkin basis of E8 is not LLL-reduced at delta = 3/4: its last
    # Gram-Schmidt vector has length^2 1/8 after one of 8/7, which the
    # Lovasz condition with |mu| <= 1/2 forbids; it and its skewed bases
    # reduce to a basis of roots
    _, B = gram_schmidt(E8_GRAM)
    assert B[-2:] == [Fraction(8, 7), Fraction(1, 8)]
    for steps in (0, 30, 60):
        U = random_unimodular(random.Random(5), 8, steps=steps)
        R, _ = lll_gram(mat_mul(mat_mul(transpose(U), E8_GRAM), U))
        assert R != E8_GRAM and [R[i][i] for i in range(8)] == [2] * 8


@pytest.mark.parametrize("G", [[[2, 3], [3, 2]], [[2, 2], [2, 2]], [[-2]]])
def test_lll_gram_refuses_non_positive_definite(G):
    with pytest.raises(ValueError, match="not positive definite"):
        lll_gram(G)


def test_mat_mul_shape_mismatch():
    with pytest.raises(ValueError, match="cannot multiply a 1x2 matrix by a 3x1 one"):
        mat_mul([[1, 2]], [[1], [2], [3]])


def _apply(M, x, p):
    return [sum(a * b for a, b in zip(row, x)) % p for row in M]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fp_rank_and_kernel_against_brute_force(p):
    rng = random.Random(1000 + p)
    for _ in range(40):
        k = rng.randint(1, 4)
        rows = rng.randint(1, 4)
        # some rows are combinations of others, so the rank is often short
        M = [[rng.randrange(-2 * p, 2 * p) for _ in range(k)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            M[-1] = [rng.randrange(p) * a + b for a, b in zip(M[0], M[1 % (rows - 1)])]
        space = list(itertools.product(range(p), repeat=k))
        image = {tuple(_apply(M, x, p)) for x in space}
        null = [x for x in space if not any(_apply(M, x, p))]

        A, pivots = fp_row_reduce(M, p)
        rank = len(pivots)
        assert len(image) == p ** rank
        assert len(null) == p ** (k - rank)
        assert all(0 <= a < p for row in A for a in row)
        assert all(not any(row) for row in A[rank:])
        assert [[row[c] for c in pivots] for row in A[:rank]] == \
            [[int(i == j) for j in range(rank)] for i in range(rank)]


def test_fp_row_reduce_no_rows():
    assert fp_row_reduce([], 7) == ([], [])


def ref_smith(M):
    """Elementary divisors d_1 | d_2 | ... of M (nonnegative) by direct
    elimination: the smallest-entry pivot clears its row and column, restarts
    while a remainder shows up, and adds an offending row until the pivot
    divides the rest of the block.  The old `smith_normal_form`, kept as the
    oracle."""
    A = [list(row) for row in M]
    rows, cols = len(A), len(A[0])
    divisors = []
    top = 0
    while top < min(rows, cols):
        # find smallest nonzero entry in the remaining block
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        A[top], A[bi] = A[bi], A[top]
        for row in A:
            row[top], row[bj] = row[bj], row[top]
        # clear row and column; restart if a remainder shows up
        dirty = False
        for i in range(top + 1, rows):
            if A[i][top] != 0:
                q = A[i][top] // A[top][top]
                for j in range(top, cols):
                    A[i][j] -= q * A[top][j]
                if A[i][top] != 0:
                    dirty = True
        for j in range(top + 1, cols):
            if A[top][j] != 0:
                q = A[top][j] // A[top][top]
                for i in range(top, rows):
                    A[i][j] -= q * A[i][top]
                if A[top][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility sweep: pivot must divide the rest of the block
        piv = abs(A[top][top])
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if A[i][j] % piv != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, cols):
                A[top][j] += A[offender][j]
            continue
        divisors.append(piv)
        top += 1
    return divisors


def _block_diag(*blocks):
    n = sum(map(len, blocks))
    out, k = [[0] * n for _ in range(n)], 0
    for B in blocks:
        for i, row in enumerate(B):
            out[k + i][k:k + len(row)] = row
        k += len(B)
    return out


def test_smith_matches_elimination_reference():
    rng = random.Random(1979)
    cases = []
    # nonsingular Gram matrices 2 B^T B of rank 1-8, small to large entries
    for spread, count in ((2, 700), (5, 700), (50, 600)):
        while count:
            r = rng.randint(1, 8)
            B = [[rng.randint(-spread, spread) for _ in range(r)] for _ in range(r)]
            G = [[2 * x for x in row] for row in mat_mul(transpose(B), B)]
            if det_bareiss(G):
                cases.append(G)
                count -= 1
    # rectangular, 30% zeros, some singular
    for _ in range(3000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[0 if rng.random() < 0.3 else rng.randint(-9, 9) for _ in range(n)]
                      for _ in range(m)])
    e8_cube = _block_diag(E8_GRAM, E8_GRAM, E8_GRAM)
    cases.append(e8_cube)
    for steps in (30, 60, 120):
        U = random_unimodular(random.Random(steps), 8, steps=steps)
        cases.append(mat_mul(mat_mul(transpose(U), E8_GRAM), U))
    for M in cases:
        assert smith_normal_form(M) == ref_smith(M), M
    assert smith_normal_form(e8_cube) == [1] * 24
    assert smith_normal_form(cases[-1]) == [1] * 8


def test_smith_small_cases():
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[0, 0], [0, 5]]) == [5]
    assert smith_normal_form([[-4, 0], [0, 6]]) == [2, 12]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert smith_normal_form([[2, 1, 0], [1, 2, 0], [0, 0, 40]]) == [1, 1, 120]
