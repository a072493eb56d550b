import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from orthocount.arith import InvariantError
from orthocount.intmat import kernel_basis, mat_mul, transpose
from orthocount.lattice import (
    QuadLattice,
    SublatticeBasis,
    _extend_echelon,
    det_and_disc_group,
    identity_basis,
    intersect_and_index,
    is_maximal_at,
    lattice_from_json,
    lattice_to_json,
    p_diagonalize,
    rep_count,
    successive_minima,
    theta_table,
)

from conftest import (E8_GRAM, assert_fires_under_python_O, random_posdef_gram,
                      random_unimodular)


X2Y2 = QuadLattice.from_rows([[2, 0], [0, 2]], positive_definite=True)
HYP = QuadLattice.from_rows([[0, 1], [1, 0]])


def brute_counts(L, bound, box):
    counts = [0] * (bound + 1)
    for v in itertools.product(range(-box, box + 1), repeat=L.rank):
        q = L.q_value(v)
        if 0 <= q <= bound:
            counts[q] += 1
    return counts


class TestInvariants:
    def test_det_disc_diag22(self):
        assert det_and_disc_group(X2Y2) == (4, 4)

    def test_det_disc_e8(self, e8):
        assert det_and_disc_group(e8) == (1, 1)

    def test_det_disc_hyperbolic(self):
        assert det_and_disc_group(HYP) == (-1, 1)

    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError):
            QuadLattice.from_rows([[1, 0], [0, 2]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuadLattice.from_rows([[2, 1], [0, 2]])

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            QuadLattice.from_rows([[2, 2], [2, 2]])

    def test_rejects_rank_zero(self):
        with pytest.raises(ValueError, match="rank >= 1"):
            QuadLattice.from_rows([])
        with pytest.raises(ValueError, match="rank >= 1"):
            QuadLattice(0, ())


class TestTypedFailures:
    """Each broken invariant raises InvariantError, also under python -O."""

    def test_det_and_disc_group(self, monkeypatch):
        import orthocount.lattice as lattice
        monkeypatch.setattr(lattice, "smith_normal_form", lambda M: [1, 2])
        with pytest.raises(InvariantError, match="from the Smith form"):
            det_and_disc_group(X2Y2)

    def test_p_diagonalize(self):
        # an antisymmetric "gram" (QuadLattice refuses it): no diagonal entry
        # has the minimal valuation, and Q(e_0 + e_1) = 0 does not either
        from types import SimpleNamespace
        L = SimpleNamespace(rank=2, gram_rows=lambda: [[0, 1], [-1, 0]])
        with pytest.raises(InvariantError, match="minimal valuation"):
            p_diagonalize(L, 3, 2)

    def test_intersection_rank(self, monkeypatch):
        import orthocount.lattice as lattice
        monkeypatch.setattr(lattice, "kernel_basis", lambda M: [[1, 0, 1, 0]])
        A = identity_basis(X2Y2)
        with pytest.raises(InvariantError, match="A cap B has rank 1, expected 2"):
            intersect_and_index(A, A)

    def test_intersection_index(self, monkeypatch):
        import orthocount.lattice as lattice
        # an "intersection" of index 1 in the ambient inside A of index 5
        monkeypatch.setattr(lattice, "hnf_columns", lambda M: ([[1, 0], [0, 1]], None))
        A = SublatticeBasis.from_cols(X2Y2, [[5, 0], [0, 1]])
        with pytest.raises(InvariantError, match="1/5 is not an integer"):
            intersect_and_index(A, A)

    def test_fires_under_python_O(self):
        assert_fires_under_python_O(
            "import orthocount.lattice as lattice\n"
            "assert False, 'asserts are live'\n"
            "lattice.smith_normal_form = lambda M: [1, 2]\n"
            "L = lattice.QuadLattice.from_rows([[2, 0], [0, 2]])\n",
            "lattice.det_and_disc_group(L)\n")


class TestRepCount:
    def test_x2y2_m1(self):
        assert rep_count(X2Y2, 1) == 4

    def test_m0_is_one(self, e8):
        assert rep_count(X2Y2, 0) == 1
        assert rep_count(e8, 0) == 1

    def test_e8_roots(self, e8):
        assert rep_count(e8, 1) == 240

    def test_e8_240_sigma3(self, e8):
        sigma3 = lambda m: sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
        table = theta_table(e8, 6)
        for m in range(1, 7):
            assert table[m] == 240 * sigma3(m)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            rep_count(HYP, 1)

    def test_against_box_enumeration(self, rng):
        for _ in range(8):
            rank = rng.randint(1, 4)
            L = QuadLattice.from_rows(random_posdef_gram(rng, rank, spread=2),
                                      positive_definite=True)
            bound = 12
            assert theta_table(L, bound) == brute_counts(L, bound, 14)

    def test_unimodular_invariance(self, rng):
        for _ in range(6):
            rank = rng.randint(2, 4)
            G = random_posdef_gram(rng, rank, spread=2)
            L = QuadLattice.from_rows(G, positive_definite=True)
            U = random_unimodular(rng, rank)
            G2 = mat_mul(mat_mul(transpose(U), G), U)
            L2 = QuadLattice.from_rows(G2, positive_definite=True)
            for m in range(0, 21, 4):
                assert rep_count(L, m) == rep_count(L2, m)

    def test_sweep_consistency(self, rng):
        # sum of per-m counts equals the count of enumerated vectors with Q <= M
        from orthocount._enum import short_vectors
        for _ in range(4):
            rank = rng.randint(2, 3)
            L = QuadLattice.from_rows(random_posdef_gram(rng, rank, spread=2),
                                      positive_definite=True)
            for M in (5, 30):
                total = sum(theta_table(L, M))
                vecs = short_vectors(L.gram_rows(), M)
                assert total == 2 * len(vecs) + 1


def kernel_cases(rng):
    """40 seeded (gram, bound) pairs of ranks 1..8 whose plans are int64-safe."""
    for _ in range(40):
        rank = rng.randint(1, 8)
        # spread 2 at rank >= 6 mostly gives plans beyond int64
        G = random_posdef_gram(rng, rank, spread=2 if rank <= 5 else 1)
        yield G, rng.randint(0, 24 if rank <= 5 else 12)


UNSAFE_GRAM = [[2, 1, 0], [1, 2 * 10 ** 9, 7], [0, 7, 4]]


def fraction_inverse(M):
    """Exact inverse over Q by Gauss-Jordan on Fractions (test reference)."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for k in range(n):
        piv = next(i for i in range(k, n) if A[i][k] != 0)
        A[k], A[piv] = A[piv], A[k]
        A[k] = [x / A[k][k] for x in A[k]]
        for i in range(n):
            if i != k and A[i][k] != 0:
                A[i] = [x - A[i][k] * y for x, y in zip(A[i], A[k])]
    return [row[n:] for row in A]


def reference_vmax(gram, bound):
    inv = fraction_inverse(gram)
    return [isqrt(int(2 * bound * inv[j][j])) + 1 for j in range(len(gram))]


def reference_safe(plan, gram, bound):
    """The int64 certificate of a plan, with its boxes from a Fraction inverse."""
    from orthocount._enum import INT64_SAFE
    mults, lds, lns, scale = plan[:4]
    vmax = reference_vmax(gram, bound)
    r = len(gram)
    wbs = [lds[i] * vmax[i] + sum(abs(lns[i][j]) * vmax[j] for j in range(i + 1, r))
           for i in range(r)]
    return (2 * bound * scale + 1 < INT64_SAFE
            and all(m * wb * wb < INT64_SAFE for m, wb in zip(mults, wbs)))


def walk_counts_py(gram, bound):
    from orthocount._enum import _theta_walk_py, cholesky_plan
    mults, lds, lns, scale, _ = cholesky_plan(gram, bound)
    counts = [0] * (bound + 1)
    _theta_walk_py(mults, lds, lns, scale, bound, counts)
    return counts


class TestEnumerationKernels:
    def test_isqrt_exact_near_squares(self, rng):
        import math

        import numpy as np

        from orthocount._enum import _isqrt
        ns = [0, 1, 2, 3, (1 << 31) - 1] + [rng.randrange(1 << 31) for _ in range(2000)]
        a = [max(0, n * n + d) for n in ns for d in (-1, 0, 1)]
        a = [x for x in a if x < 1 << 62]
        assert _isqrt(np.array(a, dtype=np.int64)).tolist() == [math.isqrt(x) for x in a]

    def test_int64_kernel_matches_bigint_walker(self, rng):
        from orthocount._enum import _theta_walk_np, cholesky_plan
        for G, bound in kernel_cases(rng):
            mults, lds, lns, scale, safe = cholesky_plan(G, bound)
            assert safe
            expect = walk_counts_py(G, bound)
            # chunk=2 and chunk=64 split the frontiers across many chunks
            for chunk in (2, 64, 1 << 16):
                got = _theta_walk_np(mults, lds, lns, scale, bound, chunk=chunk)
                assert got.tolist() == expect

    def test_int64_kernel_matches_bigint_walker_e8(self):
        from orthocount._enum import _theta_walk_np, cholesky_plan
        bound = 6
        mults, lds, lns, scale, safe = cholesky_plan(E8_GRAM, bound)
        assert safe
        expect = walk_counts_py(E8_GRAM, bound)
        for chunk in (1000, 1 << 16):
            got = _theta_walk_np(mults, lds, lns, scale, bound, chunk=chunk)
            assert got.tolist() == expect

    def test_unsafe_plan_takes_bigint_walker(self, monkeypatch):
        import orthocount._enum as enum
        from orthocount._enum import cholesky_plan
        G = UNSAFE_GRAM
        bound = 12
        assert cholesky_plan(G, bound)[4] is False
        calls = []
        walk_py = enum._theta_walk_py

        def spy(*args, **kwargs):
            calls.append(args)
            return walk_py(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("int64 kernel called on an unsafe plan")

        monkeypatch.setattr(enum, "_theta_walk_py", spy)
        monkeypatch.setattr(enum, "_theta_walk_np", refuse)
        L = QuadLattice.from_rows(G, positive_definite=True)
        assert theta_table(L, bound) == brute_counts(L, bound, 14)
        assert len(calls) == 1


class TestPlan:
    @staticmethod
    def check_plan(G, bound, rng):
        from orthocount._enum import _ldl_plan, cholesky_plan
        plan = cholesky_plan(G, bound)
        mults, lds, lns, scale, safe = plan
        r = len(G)
        assert all(type(part) is tuple for part in (mults, lds, lns) + lns)
        assert safe is reference_safe(plan, G, bound)
        # the completed squares reproduce Q(v) * scale exactly
        for _ in range(20):
            v = [rng.randint(-9, 9) for _ in range(r)]
            ws = [lds[i] * v[i] + sum(lns[i][j] * v[j] for j in range(i + 1, r))
                  for i in range(r)]
            q = sum(G[i][j] * v[i] * v[j] for i in range(r) for j in range(r)) // 2
            assert sum(m * w * w for m, w in zip(mults, ws)) == q * scale
        # Cramer's diagonal is the diagonal of the inverse
        *_, minors, det = _ldl_plan(tuple(map(tuple, G)))
        inv = fraction_inverse(G)
        assert [Fraction(m, det) for m in minors] == [inv[j][j] for j in range(r)]

    def test_matches_reference_on_kernel_cases(self, rng):
        for G, bound in kernel_cases(rng):
            for b in (0, 1, bound, 3 * bound + 7, 100):
                self.check_plan(G, b, rng)

    def test_rank_one_and_unsafe(self, rng):
        from orthocount._enum import cholesky_plan
        for b in (0, 1, 5, 12, 100):
            self.check_plan([[6]], b, rng)
            self.check_plan(UNSAFE_GRAM, b, rng)
        assert cholesky_plan([[6]], 7) == ((3,), (1,), ((0,),), 1, True)
        assert cholesky_plan(UNSAFE_GRAM, 12)[4] is False
        # Q(v) = 2^60 v^2: the box |v| <= isqrt(bound // 2^60) + 1 reaches 2
        # at bound = 2^60, and then 2^60 * 2^2 no longer fits below 2^62
        big = [[2 ** 61]]
        for b in (2 ** 60 - 1, 2 ** 60):
            self.check_plan(big, b, rng)
        assert cholesky_plan(big, 2 ** 60 - 1)[4] is True
        assert cholesky_plan(big, 2 ** 60)[4] is False

    def test_short_vectors_within_boxes(self, rng):
        from orthocount._enum import short_vectors
        grams = [G for G, _ in itertools.islice(kernel_cases(rng), 12)] + [UNSAFE_GRAM]
        for G in grams:
            for bound in (1, 6, 15):
                vmax = reference_vmax(G, bound)
                for v in short_vectors(G, bound):
                    assert all(abs(x) <= m for x, m in zip(v, vmax))

    @pytest.mark.parametrize("gram, builds", [
        ([[20, 3], [3, 30]], 1),  # one block; the minima try bounds 1..16
        # blocks A2, A2 and [40]: two distinct blocks, plus the whole gram
        # that successive_minima enumerates on
        ([[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 2, 1, 0], [0, 0, 1, 2, 0],
          [0, 0, 0, 0, 40]], 3),
    ])
    def test_one_ldl_per_gram(self, gram, builds):
        from orthocount._enum import _ldl_plan
        L = QuadLattice.from_rows(gram, positive_definite=True)
        _ldl_plan.cache_clear()
        theta_table(L, 8)
        mu_sq, _ = successive_minima(L)
        info = _ldl_plan.cache_info()
        assert info.misses == builds
        assert info.hits >= 2 and max(mu_sq) > 8


class TestSuccessiveMinima:
    def test_x2y2(self):
        mu_sq, a_sq = successive_minima(X2Y2)
        assert mu_sq == [1, 1] and a_sq == [1, 1]

    def test_x2_4y2(self):
        L = QuadLattice.from_rows([[2, 0], [0, 8]], positive_definite=True)
        mu_sq, a_sq = successive_minima(L)
        assert mu_sq == [1, 4] and a_sq == [1, 4]

    def test_rank_one(self):
        L = QuadLattice.from_rows([[2]], positive_definite=True)
        assert successive_minima(L) == ([1], [1])

    def test_mu1_is_min(self, rng):
        for _ in range(5):
            rank = rng.randint(2, 4)
            L = QuadLattice.from_rows(random_posdef_gram(rng, rank, spread=2),
                                      positive_definite=True)
            mu_sq, _ = successive_minima(L)
            m = 0
            while True:
                m += 1
                if rep_count(L, m) > 0:
                    break
            assert mu_sq[0] == m

    def test_hadamard_style_bound(self, rng):
        # a_rank^2 <= (4/3)^(r(r-1)/2) * det for the enumerator-derived bound
        from fractions import Fraction
        for _ in range(5):
            rank = rng.randint(2, 4)
            L = QuadLattice.from_rows(random_posdef_gram(rng, rank, spread=2),
                                      positive_definite=True)
            _, a_sq = successive_minima(L)
            det, _ = det_and_disc_group(L)
            assert a_sq[-1] <= Fraction(4, 3) ** (rank * (rank - 1) // 2) * det


    def test_echelon_matches_kernel_rank(self, rng):
        # v extends the set iff the integer kernel of [vecs | v] is trivial;
        # the draws mix fresh vectors with zero, multiples and sums of
        # earlier ones
        for _ in range(200):
            dim = rng.randint(1, 6)
            vecs, echelon = [], []
            for _ in range(rng.randint(1, dim + 3)):
                kind = rng.random()
                if vecs and kind < 0.3:
                    v = [rng.randint(-3, 3) * x + rng.randint(-2, 2) * y
                         for x, y in zip(rng.choice(vecs), rng.choice(vecs))]
                elif kind < 0.35:
                    v = [0] * dim
                else:
                    v = [rng.randint(-4, 4) for _ in range(dim)]
                M = [list(col) for col in zip(*(vecs + [v]))]
                expect = not kernel_basis(M)
                assert _extend_echelon(echelon, v) == expect, (vecs, v)
                if expect:
                    vecs.append(v)
                assert len(echelon) == len(vecs)
            pivots = [c for c, _ in echelon]
            assert len(set(pivots)) == len(pivots)
            for k, (_, row) in enumerate(echelon):
                assert all(row[c] == 0 for c in pivots[:k])

    def test_matches_hnf_reference(self, rng):
        for _ in range(30):
            rank = rng.randint(1, 5)
            L = QuadLattice.from_rows(random_posdef_gram(rng, rank, spread=2),
                                      positive_definite=True)
            assert successive_minima(L) == ref_successive_minima(L)


def ref_successive_minima(L):
    """The greedy minima with a full integer kernel per candidate (the
    rank test that the echelon replaced)."""
    from orthocount._enum import short_vectors
    bound = 1
    while True:
        vecs = sorted(short_vectors(L.gram_rows(), bound), key=L.q_value)
        indep, mu_sq = [], []
        for v in vecs:
            if not kernel_basis([list(col) for col in zip(*(indep + [v]))]):
                indep.append(v)
                mu_sq.append(L.q_value(v))
        if len(mu_sq) == L.rank:
            a_sq, acc = [], 1
            for m in mu_sq:
                acc *= m
                a_sq.append(acc)
            return mu_sq, a_sq
        bound *= 2


class TestPDiagonalize:
    def test_unimodular(self):
        out = p_diagonalize(X2Y2, 5, 4)
        assert sorted(v for _, v in out) == [0, 0]

    def test_scaled_hyperbolic(self):
        # completing the square on x+y, x-y gives units u, -u: their residue
        # classes split iff -1 is a nonresidue, i.e. p = 3 mod 4
        from orthocount.arith import kronecker
        for p in (5, 7):
            L = QuadLattice.from_rows([[0, p], [p, 0]])
            out = p_diagonalize(L, p, 4)
            assert sorted(v for _, v in out) == [1, 1]
            us = [kronecker(u, p) for u, _ in out]
            assert us[0] * us[1] == kronecker(-1, p)
        out7 = p_diagonalize(QuadLattice.from_rows([[0, 7], [7, 0]]), 7, 4)
        assert sorted(kronecker(u, 7) for u, _ in out7) == [-1, 1]

    def test_ssp_local_block(self):
        # <e1,e1> = 2p, <f1,f1> = -2 lam^2 p with lam^2 a nonresidue: vals (1,1)
        p = 5
        lam2 = 2  # nonresidue mod 5
        L = QuadLattice.from_rows([[2 * p, 0], [0, -2 * lam2 * p]])
        out = p_diagonalize(L, p, 3)
        assert sorted(v for _, v in out) == [1, 1]

    def test_rejects_p2(self):
        with pytest.raises(ValueError):
            p_diagonalize(X2Y2, 2, 3)

    @pytest.mark.parametrize("p", [-3, 0, 1, 9, 15, 49])
    def test_rejects_non_prime_p(self, p):
        with pytest.raises(ValueError, match="p must be an odd prime"):
            p_diagonalize(X2Y2, p, 3)

    def test_valuation_multiset_invariance(self, rng):
        for _ in range(100):
            rank = rng.randint(2, 6)
            G = random_posdef_gram(rng, rank, spread=2)
            L = QuadLattice.from_rows(G, positive_definite=True)
            p = rng.choice([3, 5, 7])
            vals = sorted(v for _, v in p_diagonalize(L, p, 3))
            U = random_unimodular(rng, rank)
            G2 = mat_mul(mat_mul(transpose(U), G), U)
            L2 = QuadLattice.from_rows(G2, positive_definite=True)
            vals2 = sorted(v for _, v in p_diagonalize(L2, p, 3))
            assert vals == vals2


class TestMaximality:
    def test_e8(self, e8):
        assert is_maximal_at(e8, 3)

    def test_scaled_by_9(self):
        L = QuadLattice.from_rows([[18, 0], [0, 18]])
        assert not is_maximal_at(L, 3)

    def test_ssp_block_maximality_at_p(self):
        # n=1 block: Q/p = x^2 - lam^2 y^2 is anisotropic mod p, so maximal;
        # the n=2 block contains a hyperbolic pair scaled by p, so it is not.
        p = 5
        L1 = QuadLattice.from_rows([[2 * p, 0], [0, -2 * 2 * p]])
        assert is_maximal_at(L1, p)
        L2 = QuadLattice.from_rows([
            [2 * p, 0, 0, 0],
            [0, -2 * 2 * p, 0, 0],
            [0, 0, 0, p],
            [0, 0, p, 0],
        ])
        assert not is_maximal_at(L2, p)

    @staticmethod
    def _nonzero_torsion_q(L, ell):
        # the ell-torsion here is all of (1/ell) Z^2 / Z^2: Q(y) for y != 0 mod ell
        return [L.q_value(list(y)) for y in itertools.product(range(ell), repeat=2) if any(y)]

    def test_two_dimensional_torsion_not_maximal(self):
        # Q(y) = 3 (y1^2 - y1 y2 + y2^2), and y = (1, 2) gives Q(y) = 9
        L = QuadLattice.from_rows([[6, -3], [-3, 6]])
        assert L.q_value([1, 2]) == 9
        assert 0 in [q % 9 for q in self._nonzero_torsion_q(L, 3)]
        assert not is_maximal_at(L, 3)

    def test_two_dimensional_torsion_maximal(self):
        # Q(y) = 3 (y1^2 + y2^2), and y1^2 = -y2^2 mod 3 has no nonzero
        # solution because -1 is not a square mod 3
        L = QuadLattice.from_rows([[6, 0], [0, 6]])
        assert 0 not in [q % 9 for q in self._nonzero_torsion_q(L, 3)]
        assert is_maximal_at(L, 3)

    def test_quotient_search_matches_rescaling(self):
        # gram*ell^2 always has the obvious overlattice (the unscaled lattice)
        L = QuadLattice.from_rows([[2 * 49, 7 * 2], [7 * 2, 4 * 49]])
        assert not is_maximal_at(L, 7)


class TestIntersection:
    def test_identity(self):
        A = identity_basis(X2Y2)
        inter, idx = intersect_and_index(A, A)
        assert idx == 1
        assert inter.index_in_ambient() == 1

    def test_ambient_with_sub(self):
        A = identity_basis(X2Y2)
        B = SublatticeBasis.from_cols(X2Y2, [[5, 0], [0, 1]])
        inter, idx = intersect_and_index(A, B)
        assert idx == 5
        assert inter.index_in_ambient() == 5

    def test_two_sublattices(self):
        A = SublatticeBasis.from_cols(X2Y2, [[5, 0], [0, 1]])
        B = SublatticeBasis.from_cols(X2Y2, [[1, 0], [0, 5]])
        inter, idx = intersect_and_index(A, B)
        assert idx == 5
        assert inter.index_in_ambient() == 25

    def test_mismatched_ambient(self):
        A = identity_basis(X2Y2)
        B = identity_basis(QuadLattice.from_rows([[2, 1], [1, 2]]))
        with pytest.raises(ValueError):
            intersect_and_index(A, B)

    def test_membership_and_divisibility(self, rng):
        for _ in range(10):
            L = QuadLattice.from_rows(random_posdef_gram(rng, 3, spread=2),
                                      positive_definite=True)
            MA = random_unimodular(rng, 3)
            MB = random_unimodular(rng, 3)
            for i in range(3):
                ca, cb = rng.choice([1, 2, 3]), rng.choice([1, 2])
                MA[i] = [ca * x for x in MA[i]]
                MB[i] = [cb * x for x in MB[i]]
            A = SublatticeBasis.from_cols(L, [list(r) for r in zip(*MA)])
            B = SublatticeBasis.from_cols(L, [list(r) for r in zip(*MB)])
            inter, idx = intersect_and_index(A, B)
            for j in range(3):
                col = inter.col(j)
                assert A.contains(col) and B.contains(col)
            # A/(A cap B) embeds in ambient/B
            assert B.index_in_ambient() % idx == 0
            assert (A.index_in_ambient() * B.index_in_ambient()) % inter.index_in_ambient() == 0


def test_json_roundtrip(e8):
    assert lattice_from_json(lattice_to_json(e8)) == e8
