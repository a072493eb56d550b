import itertools
import random

import pytest

from orthocount.intmat import det_bareiss, fp_row_reduce, gram_pivots, mat_mul

from conftest import E8_GRAM, random_posdef_gram


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
