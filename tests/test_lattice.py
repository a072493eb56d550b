import itertools
import random
from fractions import Fraction
from math import isqrt, lcm, prod

import numpy as np

import pytest

from orthocount.arith import InvariantError, valuation
from orthocount.density import local_density, local_density_naive
from orthocount.intmat import (det_bareiss, fp_row_reduce, kernel_basis, mat_mul,
                               smith_normal_form, transpose)
from orthocount.lattice import (
    QuadLattice,
    SublatticeBasis,
    _extend_echelon,
    det_and_disc_group,
    identity_basis,
    intersect_and_index,
    is_maximal_at,
    jordan_blocks,
    p_diagonalize,
    rep_count,
    successive_minima,
    theta_table,
)

from conftest import (E8_GRAM, assert_fires_under_python_O, random_posdef_gram,
                      random_unimodular)


X2Y2 = QuadLattice.from_rows([[2, 0], [0, 2]], positive_definite=True)
HYP = QuadLattice.from_rows([[0, 1], [1, 0]])


def q_value(L, v):
    """Q(v) = v^T G v / 2."""
    G, r = L.gram, L.rank
    return sum(G[i][j] * v[i] * v[j] for i in range(r) for j in range(r)) // 2


def gram_of_rows(B):
    """Gram matrix 2*B*B^T of the sum of squares in the basis given by B's rows."""
    return [[2 * sum(x * y for x, y in zip(u, w)) for w in B] for u in B]


def brute_counts(L, bound, box):
    counts = [0] * (bound + 1)
    for v in itertools.product(range(-box, box + 1), repeat=L.rank):
        q = q_value(L, v)
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

    def test_list_gram_is_normalised(self):
        # a list-of-lists gram is stored as a tuple of tuples of int, so the
        # lattice hashes and the cached density routes accept it
        L = QuadLattice(2, [[2, 1], [1, 2]], True)
        assert L.gram == ((2, 1), (1, 2)) and type(L.gram[0][0]) is int
        assert L == QuadLattice.from_rows([[2, 1], [1, 2]], positive_definite=True)
        assert hash(L) == hash(QuadLattice.from_rows([[2, 1], [1, 2]], True))
        assert local_density(3, L, 1) == local_density_naive(3, L, 1, 2)

    @pytest.mark.parametrize("bad", [2.9, 1.5, 2.0, "2", np.float64(2.0)])
    def test_rejects_non_integer_entries(self, bad):
        # rounding through int() made [[2.9, 1], [1, 2]] into A2
        with pytest.raises(ValueError, match="gram must hold integers"):
            QuadLattice.from_rows([[bad, 1], [1, 2]])
        with pytest.raises(ValueError, match="cols must hold integers"):
            SublatticeBasis.from_cols(X2Y2, [[1, 0], [0, bad]])

    def test_numpy_integers_pass(self):
        L = QuadLattice.from_rows(np.array([[2, 1], [1, 2]], dtype=np.int64))
        assert L.gram == ((2, 1), (1, 2)) and type(L.gram[0][0]) is int
        B = SublatticeBasis.from_cols(L, np.array([[1, 0], [0, 3]], dtype=np.int32))
        assert B.cols == ((1, 0), (0, 3)) and type(B.cols[1][1]) is int

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

    def test_jordan_scale_past_det(self, monkeypatch):
        # with v_ell(det) read as 0 and every entry as divisible by the
        # working modulus, a pivot appears at or beyond ell^(depth + 3)
        import orthocount.lattice as lattice
        monkeypatch.setattr(lattice, "valuation", lambda n, p, zero: zero)
        for ell in (2, 3):
            with pytest.raises(InvariantError, match="beyond v_ell"):
                jordan_blocks(X2Y2, ell, 4)

    def test_jordan_scale_fires_under_python_O(self):
        assert_fires_under_python_O(
            "import orthocount.lattice as lattice\n"
            "assert False, 'asserts are live'\n"
            "lattice.valuation = lambda n, p, zero: zero\n"
            "L = lattice.QuadLattice.from_rows([[2, 1], [1, 2]])\n",
            "lattice.jordan_blocks(L, 3, 2)\n")


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


def ref_ldl_plan(gram):
    """The integer plan by completing the squares over Fractions (test
    oracle for _enum._ldl_plan's Bareiss plan): same tuple, same ints."""
    r = len(gram)
    A = [[Fraction(gram[i][j], 2) for j in range(r)] for i in range(r)]
    c = [Fraction(0)] * r
    L = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        c[i] = A[i][i]
        if c[i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, r):
            L[i][j] = A[i][j] / c[i]
        for j in range(i + 1, r):
            for k in range(j, r):
                A[j][k] -= A[i][j] * A[i][k] / c[i]
                A[k][j] = A[j][k]
    lds = tuple(lcm(1, *(f.denominator for f in L[i][i + 1:])) for i in range(r))
    scale = lcm(1, *((c[i] / lds[i] ** 2).denominator for i in range(r)))
    mults = tuple(int(c[i] * scale) // lds[i] ** 2 for i in range(r))
    lns = tuple(tuple(int(L[i][j] * lds[i]) for j in range(r)) for i in range(r))
    minors = tuple(det_bareiss([[gram[a][b] for b in range(r) if b != j]
                                for a in range(r) if a != j]) for j in range(r))
    return mults, lds, lns, scale, minors, det_bareiss(gram)


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


def ref_theta_walk(mults, lds, lns, scale, bound, counts, collect=None):
    """Node-at-a-time big-int Fincke-Pohst walk of an integer plan (test
    oracle): counts[Q(v)] += 1 per nonzero vector up to sign, the outermost
    nonzero coordinate positive, and each such v appended to `collect`."""
    r = len(mults)
    v = [0] * r
    base = [0] * r

    def descend(i, t, qs, started):
        if i < 0:
            if started:
                counts[qs // scale] += 1
                if collect is not None:
                    collect.append(v[:])
            return
        m, ld, b = mults[i], lds[i], base[i]
        B = isqrt(t // m)
        lo = -((B + b) // ld)
        hi = (B - b) // ld
        if not started and lo < 0:
            lo = 0
        for x in range(lo, hi + 1):
            w = ld * x + b
            term = m * w * w
            if term > t:
                continue
            v[i] = x
            for k in range(i):
                base[k] += lns[k][i] * x
            descend(i - 1, t - term, qs + term, started or x != 0)
            for k in range(i):
                base[k] -= lns[k][i] * x
        v[i] = 0

    descend(r - 1, bound * scale, 0, False)


def ref_leaves(gram, bound):
    """(counts, vectors) of the oracle walk, one per +-pair."""
    from orthocount._enum import cholesky_plan
    mults, lds, lns, scale, _ = cholesky_plan(gram, bound)
    counts, vecs = [0] * (bound + 1), []
    ref_theta_walk(mults, lds, lns, scale, bound, counts, vecs)
    return counts, vecs


def walk_leaves(gram, bound, chunk):
    """(counts, vectors) of the package's one walk at a given chunk size,
    without the zero vector, which it visits first."""
    from orthocount._enum import _coordinates, _walk
    qs, vecs = [], []
    for q, path in _walk(gram, bound, chunk=chunk):
        qs += q.tolist()
        vecs += _coordinates(path).tolist()
    assert qs[0] == 0 and not any(vecs[0])
    counts = [0] * (bound + 1)
    for x in qs[1:]:
        counts[x] += 1
    return counts, vecs[1:]


def unsafe_grams(rng):
    """UNSAFE_GRAM and seeded rank-7/8 spread-2 grams, each with a bound at
    which its plan is beyond int64."""
    from orthocount._enum import cholesky_plan
    yield UNSAFE_GRAM, 12
    for rank in (7, 7, 8, 8):
        while True:
            G, bound = random_posdef_gram(rng, rank, spread=2), rng.randint(12, 20)
            if not cholesky_plan(G, bound)[4]:
                yield G, bound
                break


class TestEnumerationKernels:
    def test_isqrt_exact_near_squares(self, rng):
        import math

        import numpy as np

        from orthocount._enum import _isqrt
        ns = [0, 1, 2, 3, (1 << 25) - 1, 1 << 25, (1 << 31) - 1]
        ns += [rng.randrange(1 << 31) for _ in range(2000)]
        a = [max(0, n * n + d) for n in ns for d in (-1, 0, 1)]
        a = [x for x in a if x < 1 << 62]
        assert _isqrt(np.array(a, dtype=np.int64)).tolist() == [math.isqrt(x) for x in a]

    def test_int64_kernel_matches_bigint_walker(self, rng):
        from orthocount._enum import cholesky_plan
        for G, bound in kernel_cases(rng):
            assert cholesky_plan(G, bound)[4]
            expect = ref_leaves(G, bound)
            # chunk=2 and chunk=64 split the frontiers across many chunks
            for chunk in (2, 64, 1 << 16):
                assert walk_leaves(G, bound, chunk) == expect

    def test_int64_kernel_matches_bigint_walker_e8(self):
        from orthocount._enum import cholesky_plan
        bound = 6
        assert cholesky_plan(E8_GRAM, bound)[4]
        expect = ref_leaves(E8_GRAM, bound)
        for chunk in (1000, 1 << 16):
            assert walk_leaves(E8_GRAM, bound, chunk) == expect

    def test_unsafe_plans_match_bigint_walker(self, rng):
        # the same walk over Python ints, where the int64 certificate fails
        from orthocount._enum import CHUNK, short_vectors, theta_counts
        for G, bound in unsafe_grams(rng):
            expect = ref_leaves(G, bound)
            for chunk in (2, 64, CHUNK):
                assert walk_leaves(G, bound, chunk) == expect
            counts, vecs = expect
            assert theta_counts(G, bound) == [1] + [2 * c for c in counts[1:]]
            assert sorted(short_vectors(G, bound)) == sorted(vecs)
        L = QuadLattice.from_rows(UNSAFE_GRAM, positive_definite=True)
        assert theta_table(L, 12) == brute_counts(L, 12, 14)

    def test_work_guard(self, e8):
        from math import gamma, pi

        from orthocount._enum import WORK_GUARD, short_vectors
        # the ellipsoid estimate of E8 to 20, the deepest table the tests
        # and the benchmark ask for, is below the guard; to 100 it is not
        assert pi ** 4 / gamma(5) * 40 ** 4 < WORK_GUARD < pi ** 4 / gamma(5) * 200 ** 4
        with pytest.raises(ValueError, match="guard"):
            theta_table(e8, 100)
        with pytest.raises(ValueError, match="guard"):
            short_vectors(E8_GRAM, 100)

    def test_table_length_guard(self):
        from orthocount._enum import WORK_GUARD, theta_counts
        # Q = x^2 to 10^12 holds only about 2e6 points, below the walk's
        # guard, but its table would have 10^12 + 1 entries; it is refused
        # before anything is allocated, as is a table one entry too long
        for bound in (10 ** 12, WORK_GUARD):
            with pytest.raises(ValueError, match=f"to bound {bound} has {bound + 1} "
                                                 r"entries, more than the 1e\+08 guard$"):
                theta_counts([[2]], bound)


class TestOrthogonalBlocks:
    def test_direct_sums_against_box(self, rng):
        from orthocount._enum import block_components
        for ranks in ((2, 2), (1, 1, 2), (2, 1), (1, 2, 1), (1, 1, 1)):
            blocks = [random_posdef_gram(rng, k, spread=2) for k in ranks]
            rank = sum(ranks)
            G = [[0] * rank for _ in range(rank)]
            k = 0
            for B in blocks:
                for i, row in enumerate(B):
                    G[k + i][k:k + len(B)] = row
                k += len(B)
            perm = list(range(rank))
            rng.shuffle(perm)
            G = [[G[i][j] for j in perm] for i in perm]
            assert len(block_components(G)) >= len(ranks)
            L = QuadLattice.from_rows(G, positive_definite=True)
            bound = 10
            expect = [0] * (bound + 1)
            boxes = [range(-m, m + 1) for m in reference_vmax(G, bound)]
            for v in itertools.product(*boxes):
                if q_value(L, v) <= bound:
                    expect[q_value(L, v)] += 1
            assert theta_table(L, bound) == expect


def direct_leaves(gram, bound):
    """(q, v) of one walk to bound as lists, stably sorted by q."""
    from orthocount._enum import _coordinates, _walk
    qs, vecs = [], []
    for q, path in _walk(gram, bound):
        qs += q.tolist()
        vecs += _coordinates(path).tolist()
    order = sorted(range(len(qs)), key=qs.__getitem__)
    return [qs[i] for i in order], [vecs[i] for i in order]


def box_minima(G):
    """Squared successive minima by a full box scan to the longest basis
    vector and integer ranks (test oracle)."""
    bound = max(G[i][i] for i in range(len(G))) // 2
    L = QuadLattice.from_rows(G, positive_definite=True)
    vecs = sorted((v for v in itertools.product(*(range(-m, m + 1)
                                                   for m in reference_vmax(G, bound)))
                   if 0 < q_value(L, v) <= bound), key=lambda v: q_value(L, v))
    indep, mu_sq = [], []
    for v in vecs:
        if not kernel_basis([list(col) for col in zip(*(indep + [list(v)]))]):
            indep.append(list(v))
            mu_sq.append(q_value(L, v))
    return mu_sq


def orthogonal_sum(blocks, perm):
    """The block-diagonal gram of `blocks`, its basis permuted by perm."""
    rank = sum(map(len, blocks))
    G = [[0] * rank for _ in range(rank)]
    k = 0
    for B in blocks:
        for i, row in enumerate(B):
            G[k + i][k:k + len(B)] = row
        k += len(B)
    return [[G[i][j] for j in perm] for i in perm]


class TestLeafStore:
    @pytest.fixture(autouse=True)
    def fresh_store(self, monkeypatch):
        from orthocount import _enum
        monkeypatch.setattr(_enum, "_STORE", _enum._LeafStore(_enum.LEAF_BYTES))
        return _enum

    @staticmethod
    def check_slices(G, deep):
        """Keep the walk of G to deep, then every smaller bound must be its
        slice, equal to a direct walk, order included."""
        from orthocount import _enum
        _enum.leaves(G, deep)
        depth, q, v = _enum._STORE.entries[tuple(map(tuple, G))]
        assert depth >= deep
        for b in sorted({0, 1, deep // 2, deep - 1, deep}):
            got_q, got_v = _enum.leaves(G, b)
            assert (got_q.tolist(), got_v.tolist()) == direct_leaves(G, b)
        return v.dtype

    def test_slices_equal_direct_walks(self, rng):
        from orthocount._enum import _small
        kept = 0
        for G, bound in kernel_cases(rng):
            if _small(tuple(map(tuple, G)), max(bound, 1)):
                self.check_slices(G, max(bound, 1))
                kept += 1
        assert kept >= 20

    def test_slices_equal_direct_walks_e8(self):
        # E8 to 3 holds about 5,300 points, so its walk is kept; to 6 it
        # holds about 84,000 and is not
        from orthocount import _enum
        assert self.check_slices(E8_GRAM, 3) == np.int64
        _enum.leaves(E8_GRAM, 6)
        assert _enum._STORE.entries[tuple(map(tuple, E8_GRAM))][0] == 3

    def test_slices_equal_direct_walks_unsafe(self):
        # the longest basis vector (Q = 10^9) is far too deep to keep, so the
        # kept walk goes to the bound asked for, over Python ints
        from orthocount._enum import cholesky_plan
        assert cholesky_plan(UNSAFE_GRAM, 12)[4] is False
        assert self.check_slices(UNSAFE_GRAM, 12) == object

    def test_deeper_bound_walks_again(self, fresh_store):
        _enum = fresh_store
        _enum.leaves([[2, 1], [1, 2]], 3)
        assert _enum._STORE.entries[((2, 1), (1, 2))][0] == 3
        q, v = _enum.leaves([[2, 1], [1, 2]], 9)
        assert _enum._STORE.entries[((2, 1), (1, 2))][0] == 9
        assert (q.tolist(), v.tolist()) == direct_leaves([[2, 1], [1, 2]], 9)

    def test_leaves_are_read_only(self, fresh_store):
        _enum = fresh_store
        q, v = _enum.leaves(E8_GRAM, 2)
        for a in (q, v, *_enum._STORE.entries[tuple(map(tuple, E8_GRAM))][1:]):
            assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            q[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0] = 1
        with pytest.raises(ValueError, match="bound must be >= 0"):
            _enum.leaves(E8_GRAM, -1)

    def test_byte_budget_evicts_oldest(self, monkeypatch, fresh_store):
        _enum = fresh_store
        grams = [((2 * k,),) for k in range(1, 7)]  # Q = k x^2
        for g in grams:
            _enum.leaves(g, 40)
        sizes = {g: _enum._nbytes(e) for g, e in _enum._STORE.entries.items()}
        assert _enum._STORE.nbytes == sum(sizes.values())
        # a budget that holds the last three: the first three go, oldest first
        store = _enum._LeafStore(sum(sizes[g] for g in grams[3:]))
        monkeypatch.setattr(_enum, "_STORE", store)
        walks = []
        real = _enum._walk
        monkeypatch.setattr(_enum, "_walk", lambda g, b: walks.append(g) or real(g, b))
        for g in grams:
            _enum.leaves(g, 40)
        assert list(store.entries) == grams[3:]
        assert store.nbytes == store.budget
        _enum.leaves(grams[5], 10)  # kept: no walk
        _enum.leaves(grams[0], 10)  # evicted: walked again, and evicts grams[3]
        assert walks == grams + [grams[0]]
        assert list(store.entries) == grams[4:] + [grams[0]]
        assert store.nbytes <= store.budget
        # an entry larger than the whole budget is not kept
        monkeypatch.setattr(_enum, "_STORE", _enum._LeafStore(64))
        _enum.leaves(grams[0], 40)
        assert _enum._STORE.entries == {} and _enum._STORE.nbytes == 0

    def test_concurrent_callers(self, monkeypatch, fresh_store):
        # more threads than cores share one store whose budget holds only a
        # few entries, so puts and evictions interleave: every answer must
        # still be the direct walk's, and the byte count must match the
        # entries left (a lost update of either breaks it)
        import sys
        import threading
        _enum = fresh_store
        grams = [((2 * k, 1), (1, 2 * k + 2)) for k in range(1, 9)]
        expect = {(g, b): direct_leaves(g, b) for g in grams for b in (3, 12)}
        for g in grams:
            _enum.leaves(g, 12)
        kept = dict(_enum._STORE.entries)
        store = _enum._LeafStore(600)  # all eight hold 1,200 bytes
        monkeypatch.setattr(_enum, "_STORE", store)
        errors = []

        def work(seed):
            rng = random.Random(seed)
            for g, b in rng.sample(sorted(expect), len(expect)) * 2:
                q, v = _enum.leaves(g, b)
                if (q.tolist(), v.tolist()) != expect[g, b]:
                    errors.append((g, b))
            for _ in range(10000):
                g = rng.choice(grams)
                store.put(g, kept[g])
                store.get(rng.choice(grams))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert store.nbytes == sum(map(_enum._nbytes, store.entries.values())) <= store.budget
        assert 0 < len(store.entries) < len(grams)

    def test_minima_of_orthogonal_sums(self, rng):
        # the sorted union of the block minima, as the docstring proves, and
        # the box scan of the whole lattice
        for ranks in ((1, 1), (1, 2), (2, 2), (1, 1, 2), (3, 1), (1, 2, 1)):
            while True:
                blocks = [random_posdef_gram(rng, k, spread=2) for k in ranks]
                perm = list(range(sum(ranks)))
                rng.shuffle(perm)
                G = orthogonal_sum(blocks, perm)
                top = max(G[i][i] for i in range(len(G))) // 2
                if prod(2 * m + 1 for m in reference_vmax(G, top)) <= 20000:
                    break
            L = QuadLattice.from_rows(G, positive_definite=True)
            mu_sq, a_sq = successive_minima(L)
            union = sorted(mu for B in blocks for mu in successive_minima(
                QuadLattice.from_rows(B, positive_definite=True))[0])
            assert mu_sq == union == box_minima(G)
            assert a_sq == list(itertools.accumulate(mu_sq, lambda x, y: x * y))

    def test_theta_table_bytes(self):
        # one block keeps its int64 counts until the returned list: about 16
        # bytes an entry at the peak, where the object-array merge of every
        # table took 40
        import tracemalloc
        from orthocount._enum import theta_counts
        bound = 10 ** 6
        theta_counts([[2]], 10)
        tracemalloc.start()
        try:
            table = theta_counts([[2]], bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(table) == 2 * isqrt(bound) + 1
        assert peak < 20 * (bound + 1)


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
        # the Bareiss plan is the Fraction plan, tuple for tuple
        key = tuple(map(tuple, G))
        assert _ldl_plan(key) == ref_ldl_plan(key)
        # Cramer's diagonal is the diagonal of the inverse
        *_, minors, det = _ldl_plan(key)
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

    def test_e8_and_non_positive_definite(self, rng):
        from orthocount._enum import _ldl_plan
        for b in (0, 1, 6, 20):
            self.check_plan(E8_GRAM, b, rng)
        for G in (((2, 3), (3, 2)), ((2, 2), (2, 2)), ((-2,),), ((4, 0), (0, -2))):
            for plan in (_ldl_plan, ref_ldl_plan):
                with pytest.raises(ValueError, match="not positive definite"):
                    plan(G)

    def test_short_vectors_within_boxes(self, rng):
        from orthocount._enum import short_vectors
        grams = [G for G, _ in itertools.islice(kernel_cases(rng), 12)] + [UNSAFE_GRAM]
        for G in grams:
            for bound in (1, 6, 15):
                vmax = reference_vmax(G, bound)
                vecs = short_vectors(G, bound)
                for v in vecs:
                    assert all(abs(x) <= m for x, m in zip(v, vmax))
                # the oracle's vectors, stably sorted by Q
                counts, expect = ref_leaves(G, bound)
                L = QuadLattice.from_rows(G, positive_definite=True)
                assert vecs == sorted(expect, key=lambda v: q_value(L, v))

    # theta_table keeps the walk of each small reduced block, to at least
    # its longest basis vector, and successive_minima reads its minima off
    # those leaves: one walk per distinct reduced block, although every
    # last minimum is beyond the table's bound 8
    @pytest.mark.parametrize("gram, walks", [
        ([[20, 3], [3, 30]], 1),  # indecomposable: theta and minima share one walk
        # blocks A2, A2 and [40]: both A2 reduce to the same gram, whose
        # leaves the second one reads; [40] is walked once, to 20
        ([[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 2, 1, 0], [0, 0, 1, 2, 0],
          [0, 0, 0, 0, 40]], 2),
    ], ids=["indecomposable", "a2_a2_40"])
    def test_one_walk_per_block(self, monkeypatch, gram, walks):
        from orthocount import _enum
        bounds = []
        real = _enum._walk

        def spy(g, bound, **kw):
            bounds.append(bound)
            return real(g, bound, **kw)

        monkeypatch.setattr(_enum, "_walk", spy)
        monkeypatch.setattr(_enum, "_STORE", _enum._LeafStore(_enum.LEAF_BYTES))
        L = QuadLattice.from_rows(gram, positive_definite=True)
        theta_table(L, 8)
        mu_sq, _ = successive_minima(L)
        assert len(bounds) == walks
        assert max(mu_sq) > 8


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

    @pytest.mark.parametrize("gram, expect", [
        ([[2, 2000], [2000, 2000002]], ([1, 1], [1, 1])),
        ([[4, 4000], [4000, 4000004]], ([2, 2], [2, 4])),
        (gram_of_rows([[1000, 1], [999, 1]]), ([1, 1], [1, 1])),
        (gram_of_rows([[1000, 1, 0], [999, 1, 0], [1000, 1, 1]]), ([1, 1, 1], [1, 1, 1])),
    ])
    def test_bound_starts_below_last_minimum(self, monkeypatch, gram, expect):
        # c(x^2 + y^2) in the basis e1, e2 + 1000 e1, and Z^2, Z^3 in bases
        # of long vectors only: one walk at max_i Q(e_i), or in the Z^k
        # bases at min_i Q(e_i) >= 10^6, would collect over a million
        # vectors (Z^3: beyond the work guard), while the one walk to the
        # longest vector of the LLL-reduced basis finds every minimum among
        # at most 4 vectors (and walks from bound 1 would take more than one
        # call at c = 2)
        import orthocount.lattice as lattice
        from orthocount._enum import leaves
        seen = []

        def spy(gram, bound):
            q, v = leaves(gram, bound)
            seen.append(len(v) - 1)  # the vectors besides zero
            return q, v

        monkeypatch.setattr(lattice, "leaves", spy)
        L = QuadLattice.from_rows(gram, positive_definite=True)
        assert successive_minima(L) == expect
        assert len(seen) == 1 and seen[0] <= 4

    def test_too_few_independent_vectors_raise(self, monkeypatch):
        # the reduced basis guarantees r independent vectors in the one walk;
        # a walk that lost some is a broken invariant, not a shorter answer
        # (on A2: X2Y2 splits into two rank-1 blocks, one vector each)
        import orthocount.lattice as lattice
        from orthocount._enum import leaves
        # the zero vector and one more
        monkeypatch.setattr(lattice, "leaves", lambda g, b: tuple(a[:2] for a in leaves(g, b)))
        A2 = QuadLattice.from_rows([[2, 1], [1, 2]], positive_definite=True)
        with pytest.raises(InvariantError, match="1 independent vectors"):
            successive_minima(A2)

    @pytest.mark.parametrize("steps", [30, 60])
    def test_skewed_e8(self, e8, steps):
        # E8 in a basis of vectors up to Q ~ 10^4 (30 steps) or 10^6 (60):
        # the reduced basis brings theta and minima back to E8's own cost
        import time
        from orthocount._enum import reduced_blocks, reduced_gram
        U = random_unimodular(random.Random(5), 8, steps=steps)
        L = QuadLattice.from_rows(mat_mul(mat_mul(transpose(U), E8_GRAM), U),
                                  positive_definite=True)
        assert max(L.gram[i][i] for i in range(8)) > 10 ** 4
        expect = theta_table(e8, 10)
        reduced_gram.cache_clear()
        reduced_blocks.cache_clear()
        t = time.perf_counter()
        assert theta_table(L, 10) == expect
        assert time.perf_counter() - t < 1
        reduced_gram.cache_clear()
        reduced_blocks.cache_clear()
        t = time.perf_counter()
        assert successive_minima(L) == ([1] * 8, [1] * 8)
        assert time.perf_counter() - t < 1

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
        vecs = sorted(short_vectors(L.gram_rows(), bound), key=lambda v: q_value(L, v))
        indep, mu_sq = [], []
        for v in vecs:
            if not kernel_basis([list(col) for col in zip(*(indep + [v]))]):
                indep.append(v)
                mu_sq.append(q_value(L, v))
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

    def test_jordan_scales_match_smith_form(self, rng):
        # the scales of the blocks (a 2x2 block of scale ell^v counts twice)
        # are the ell-parts of the elementary divisors, scales up to ell^12
        # included
        for _ in range(60):
            rank = rng.randint(1, 6)
            ell = rng.choice([2, 3, 5])
            G = random_posdef_gram(rng, rank, spread=2)
            D = [ell ** rng.randint(0, 6) for _ in range(rank)]
            G = [[G[i][j] * D[i] * D[j] for j in range(rank)] for i in range(rank)]
            scales = []
            for kind, data in jordan_blocks(QuadLattice.from_rows(G), ell, 2):
                scales += [valuation(data, ell, 0)] if kind == "1" else \
                    [valuation(data[1], ell, 0)] * 2
            assert sorted(scales) == sorted(valuation(d, ell, 0)
                                            for d in smith_normal_form(G)), (ell, G)


def fp_kernel(M, p):
    """Basis of the kernel of M over F_p (M given as rows)."""
    A, pivots = fp_row_reduce(M, p)
    basis = []
    for f in range(len(M[0])):
        if f in pivots:
            continue
        v = [0] * len(M[0])
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-A[i][f]) % p
        basis.append(v)
    return basis


def ref_is_maximal_at(L, ell):
    """The ell-torsion search that the Jordan-form rule replaced.

    An overlattice step exists iff some nonzero x with ell*x = 0 in L^v/L
    has Q(x) integral at ell.  The candidates are x = y/ell with y in the
    kernel of G mod ell and y not in ell Z^r, and Q(x) = Q(y)/ell^2 is
    integral at ell iff Q(y) = 0 mod ell^2.
    """
    G = L.gram_rows()
    if det_bareiss(G) % ell != 0:
        return True
    null = fp_kernel([[x % ell for x in row] for row in G], ell)
    for coeffs in itertools.product(range(ell), repeat=len(null)):
        if any(coeffs):
            y = [sum(c * v[i] for c, v in zip(coeffs, null)) for i in range(L.rank)]
            if q_value(L, y) % (ell * ell) == 0:
                return False
    return True


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fp_kernel_against_brute_force(p):
    rng = random.Random(1000 + p)
    for _ in range(40):
        k = rng.randint(1, 4)
        rows = rng.randint(1, 4)
        # some rows are combinations of others, so the rank is often short
        M = [[rng.randrange(-2 * p, 2 * p) for _ in range(k)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            M[-1] = [rng.randrange(p) * a + b for a, b in zip(M[0], M[1 % (rows - 1)])]
        null = {x for x in itertools.product(range(p), repeat=k)
                if not any(sum(a * b for a, b in zip(row, x)) % p for row in M)}
        basis = fp_kernel(M, p)
        assert p ** len(basis) == len(null)
        span = {tuple(sum(c * v[i] for c, v in zip(cs, basis)) % p for i in range(k))
                for cs in itertools.product(range(p), repeat=len(basis))}
        assert span == null


class TestMaximality:
    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_matches_torsion_search(self, rng, ell):
        # random lattices of rank 1-5, half of them with basis vectors
        # scaled by ell (the unscaled lattice is then an overlattice), and a
        # quarter with the whole gram scaled by ell, whose valuation-1 part
        # decides maximality
        results = []
        for n in range(60):
            rank = rng.randint(1, 5)
            G = random_posdef_gram(rng, rank, spread=2)
            if n % 2:
                D = [ell if i < rng.randint(1, rank) else 1 for i in range(rank)]
                G = [[G[i][j] * D[i] * D[j] for j in range(rank)] for i in range(rank)]
            elif n % 4 == 2:
                G = [[ell * x for x in row] for row in G]
            L = QuadLattice.from_rows(G, positive_definite=True)
            maximal = is_maximal_at(L, ell)
            assert maximal == ref_is_maximal_at(L, ell), (ell, G)
            assert not (maximal and n % 2), (ell, G)
            results.append(maximal)
        assert 10 <= results.count(True) <= 30

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
        return [q_value(L, list(y)) for y in itertools.product(range(ell), repeat=2) if any(y)]

    def test_two_dimensional_torsion_not_maximal(self):
        # Q(y) = 3 (y1^2 - y1 y2 + y2^2), and y = (1, 2) gives Q(y) = 9
        L = QuadLattice.from_rows([[6, -3], [-3, 6]])
        assert q_value(L, [1, 2]) == 9
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

    def test_contains_refuses_non_members(self):
        # 2Z + Z has index 2: (1, 0) and (3, 5) lie outside it, (2, 5) inside
        A = SublatticeBasis.from_cols(X2Y2, [[2, 0], [0, 1]])
        assert A.index_in_ambient() == 2
        assert not A.contains([1, 0]) and not A.contains([3, 5])
        assert A.contains([2, 5]) and A.contains([0, 0])
        # the index-6 sublattice spanned by (2, 0) and (1, 3)
        B = SublatticeBasis.from_cols(X2Y2, [[2, 1], [0, 3]])
        members = {(x, y) for x in range(-6, 7) for y in range(-6, 7)
                   if y % 3 == 0 and (x - y // 3) % 2 == 0}
        for x in range(-6, 7):
            for y in range(-6, 7):
                assert B.contains([x, y]) == ((x, y) in members), (x, y)

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
