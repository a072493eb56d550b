import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from orthocount import density
from orthocount.density import (
    _block_counts,
    _count_naive_np,
    _orbit_of,
    _orbit_tensor,
    _orbits,
    _unit_form_count,
    count_blockwise,
    local_density,
    local_density_blockwise,
    local_density_naive,
    local_density_recursive,
    stable_depth,
)
from orthocount.arith import InvariantError, valuation
from orthocount.intmat import mat_mul, smith_normal_form, transpose
from orthocount.lattice import QuadLattice, jordan_blocks, p_diagonalize

from conftest import (E8_GRAM, assert_fires_under_python_O, random_posdef_gram,
                      random_unimodular)

HYP = QuadLattice.from_rows([[0, 1], [1, 0]])
# at ell = 2 the last Jordan block of this gram is a 2x2 block of scale 2^7,
# whose determinant 2^14 reaches 2^(a + 6) for every depth a <= 8
PRECISION_GRAM = [[88, -64, 56, 32, 4, -16], [-64, 88, -48, -48, -28, 28],
                  [56, -48, 80, 32, -12, -4], [32, -48, 32, 96, 8, -8],
                  [4, -28, -12, 8, 30, -22], [-16, 28, -4, -8, -22, 20]]


def random_p_lattice(rng, p, rank):
    """Random positive definite lattice, sometimes with p-divisible blocks."""
    G = random_posdef_gram(rng, rank, spread=2)
    if rng.random() < 0.4:
        D = [p if i < rng.randint(1, rank) else 1 for i in range(rank)]
        G = [[G[i][j] * D[i] * D[j] for j in range(rank)] for i in range(rank)]
    return QuadLattice.from_rows(G, positive_definite=True)


class TestNaive:
    def test_hyperbolic_m7(self):
        assert local_density_naive(5, HYP, 7, 1) == Fraction(4, 5)
        assert local_density_naive(5, HYP, 7, 2) == Fraction(4, 5)

    def test_rank1_nonresidue(self):
        L = QuadLattice.from_rows([[2]], positive_definite=True)
        assert local_density_naive(3, L, 2, 1) == 0

    def test_guard(self):
        L = QuadLattice.from_rows([[2 if i == j else 0 for j in range(8)] for i in range(8)])
        with pytest.raises(ValueError):
            local_density_naive(7, L, 1, 4)

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            local_density_naive(6, HYP, 1, 1)

    def test_guard_edge(self):
        # 3^16 = 4.3e7 points, just under the 10^8 guard: the prefix frontier
        # is expanded a chunk at a time, so time and memory stay small
        L = QuadLattice.from_rows(
            [[(4 if i == 7 else 2) if i == j else int(abs(i - j) == 1) for j in range(8)]
             for i in range(8)], positive_definite=True)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            d = local_density_naive(3, L, 5, 2)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == local_density_blockwise(3, L, 5, 2) == Fraction(80, 81)
        assert elapsed < 2.0, elapsed
        assert peak < 24 * 2 ** 20, peak


def ref_count_naive(qdiag, gram, mod, m, total):
    """The flat-index kernel the last-coordinate table replaced: decode every
    point of (Z/mod)^r from its index and evaluate all of Q on it."""
    r = len(qdiag)
    count = 0
    chunk = 1 << 18
    qdiag = np.asarray(qdiag, dtype=np.int64)
    G = np.asarray(gram, dtype=np.int64)
    for start in range(0, total, chunk):
        stop = min(total, start + chunk)
        flat = np.arange(start, stop, dtype=np.int64)
        V = np.empty((stop - start, r), dtype=np.int64)
        x = flat
        for i in range(r):
            V[:, i] = x % mod
            x = x // mod
        q = np.zeros(stop - start, dtype=np.int64)
        for i in range(r):
            q = (q + qdiag[i] * ((V[:, i] * V[:, i]) % mod)) % mod
            for j in range(i + 1, r):
                q = (q + G[i, j] * ((V[:, i] * V[:, j]) % mod)) % mod
        count += int(np.count_nonzero(q == m % mod))
    return count


def naive_arrays(gram, mod):
    """(qd, G) reduced mod `mod`, as local_density_naive hands them over."""
    r = len(gram)
    qd = np.array([gram[i][i] // 2 % mod for i in range(r)], dtype=np.int64)
    G = np.array([[gram[i][j] % mod for j in range(r)] for i in range(r)], dtype=np.int64)
    return qd, G


def assert_naive_matches_reference(gram, ell, a, m):
    mod = ell ** a
    qd, G = naive_arrays(gram, mod)
    got = _count_naive_np(qd, G, mod, m % mod)
    assert got == ref_count_naive(qd, G, mod, m, mod ** len(gram)), (ell, a, gram, m)


def naive_cases(rng, cap):
    """Seeded (ell, a, gram, m) over ell in {2, 3, 5, 7}, ranks 1-6 and
    depths 1-3, with at most `cap` points each."""
    cases = []
    for ell in (2, 3, 5, 7):
        for rank in range(1, 7):
            for a in range(1, 4):
                if ell ** (a * rank) > cap:
                    continue
                for _ in range(2):
                    L = random_p_lattice(rng, ell, rank)
                    cases.append((ell, a, L.gram, rng.randint(0, 3 * ell ** a)))
    return cases


class TestNaiveKernel:
    def test_matches_reference_seeded(self, rng):
        cases = naive_cases(rng, 3 * 10 ** 5)
        assert {c[0] for c in cases} == {2, 3, 5, 7}
        assert {len(c[2]) for c in cases} == set(range(1, 7))
        assert {c[1] for c in cases} == {1, 2, 3}
        for ell, a, gram, m in cases:
            assert_naive_matches_reference(gram, ell, a, m)

    def test_rank1_largest_modulus(self):
        # empty prefix; the x table is walked in chunks of a 2^20 modulus
        for g in (6, -10, 2 * 2 ** 20 + 2):
            for m in (0, 3, 2 ** 20 - 1):
                assert_naive_matches_reference([[g]], 2, 20, m)

    def test_last_column_vanishes(self):
        # every off-diagonal entry of the last column is = 0 mod ell^a, so
        # b = 0 for every prefix and one row of the table serves them all
        for ell, a in ((2, 3), (3, 2), (5, 1), (7, 2)):
            mod = ell ** a
            gram = [[4, 1, mod], [1, 6, -2 * mod], [mod, -2 * mod, 2 * mod * mod + 2]]
            for m in range(0, 2 * ell + 1):
                assert_naive_matches_reference(gram, ell, a, m)

    def test_target_zero_mod_modulus(self, rng):
        for ell, a, gram, _ in naive_cases(rng, 10 ** 5):
            for m in (0, ell ** a, 5 * ell ** a):
                assert_naive_matches_reference(gram, ell, a, m)

    def test_first_call_imports_no_module(self):
        # a fresh interpreter: the first count must not pull in a module
        # (np.unique without return_counts imports numpy.ma on first use)
        src = os.path.dirname(os.path.dirname(density.__file__))
        code = ("import sys\n"
                "from orthocount.density import local_density_naive\n"
                "from orthocount.lattice import QuadLattice\n"
                "L = QuadLattice.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 6]])\n"
                "before = set(sys.modules)\n"
                "local_density_naive(3, L, 2, 2)\n"
                "print(sorted(set(sys.modules) - before))\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    @pytest.mark.parametrize("chunk", [1, 2, 5, 7, 48, 50])
    def test_chunk_bounds(self, monkeypatch, rng, chunk):
        # prefix chunks and (b, x) cells cut at every size: one item, below
        # the modulus, not dividing it, and just under and over it
        monkeypatch.setattr(density, "NAIVE_CHUNK", chunk)
        for ell, a, gram, m in naive_cases(rng, 3000):
            assert_naive_matches_reference(gram, ell, a, m)


class TestBlockwise:
    def test_matches_naive_small(self, rng):
        for _ in range(25):
            p = rng.choice([2, 3, 5])
            rank = rng.randint(1, 4)
            L = random_p_lattice(rng, p, rank) if p != 2 else QuadLattice.from_rows(
                random_posdef_gram(rng, rank, spread=2), positive_definite=True)
            a = rng.randint(1, 2)
            if p ** (a * rank) > 10 ** 6:
                a = 1
            m = rng.randint(0, 30)
            assert local_density_blockwise(p, L, m, a) == local_density_naive(p, L, m, a), \
                (p, L.gram, m, a)

    def test_unit_square_classes_at_2(self):
        # a 2-adic unit is a square only when it is 1 mod 8, so the blocks
        # must be kept modulo 2^(depth + 1) to tell u x^2 apart for u mod 8
        for u in (1, 3, 5, 7, 11):
            for G in ([[2 * u]], [[2 * u, 0], [0, 6]]):
                L = QuadLattice.from_rows(G)
                for a in (3, 4):
                    assert [local_density_blockwise(2, L, m, a) for m in range(2 ** a)] == \
                        [local_density_naive(2, L, m, a) for m in range(2 ** a)], (G, a)

    def test_e8_delta2_closed_form(self, e8):
        # delta_2(E8, m) = (15/16) * sigma_{-3}(2-part of m); m = 64 and 256
        # stabilize at depths 9 and 11 and are checked at 10 and 12
        for m in (1, 2, 3, 4, 8, 16, 20, 64, 256):
            v2 = (m & -m).bit_length() - 1
            expect = Fraction(15, 16) * sum(Fraction(1, 8 ** k) for k in range(v2 + 1))
            assert local_density(2, e8, m) == expect

    def test_e8_cubed_deep_closed_form(self):
        # E8+E8+E8 has twelve 2x2 blocks at ell = 2, each counting 4^a pairs,
        # so every count is far past int64 (2^(23 a) times the density).  An
        # even unimodular lattice of rank 2k has
        # delta_2(m) = (1 - 2^-k) sum_{j <= v_2(m)} 2^(j(1-k)).
        n = len(E8_GRAM)
        G = [[E8_GRAM[i % n][j % n] if i // n == j // n else 0 for j in range(3 * n)]
             for i in range(3 * n)]
        L = QuadLattice.from_rows(G, positive_definite=True)
        k, m = 12, 32
        expect = (1 - Fraction(1, 2 ** k)) * sum(Fraction(1, 2 ** (j * (k - 1)))
                                                 for j in range(6))
        for a in (8, 9, 16):
            density._orbits.cache_clear()
            density._orbit_tensor.cache_clear()
            density._blockwise_factors.cache_clear()
            assert local_density_blockwise(2, L, m, a) == expect
            assert [kind for kind, _ in jordan_blocks(L, 2, a)] == ["2"] * 12
            count = count_blockwise(L, 2, m, a)
            assert type(count) is int and count > 2 ** 63
        # at depths 8 and 9 the reference merge pre-folds four int64 partial
        # products down to two; the orbit merge agrees at every target
        for a in (8, 9):
            merge_matches_reference(L, 2, a)

    def test_precision_exhausted_at_2x2_pivot(self, rng):
        # the splitting keeps depth + v_2(det) + 3 digits, enough for the
        # 2x2 block of scale 2^7 at every depth: the counts agree with the
        # naive route at depths 3 and 4, with the same lattice in another
        # basis at depths 3, 4 and 8, and local_density answers at m = 8
        L = QuadLattice.from_rows(PRECISION_GRAM)
        U = random_unimodular(rng, L.rank)
        L2 = QuadLattice.from_rows(mat_mul(mat_mul(transpose(U), PRECISION_GRAM), U))
        for m in range(2 ** 3):
            assert local_density_blockwise(2, L, m, 3) == local_density_naive(2, L, m, 3)
        assert local_density_blockwise(2, L, 8, 4) == local_density_naive(2, L, 8, 4)
        for a in (3, 4, 8):
            assert [count_blockwise(L, 2, m, a) for m in range(2 ** a)] == \
                [count_blockwise(L2, 2, m, a) for m in range(2 ** a)]
        assert local_density(2, L, 8) == local_density(2, L2, 8) == \
            local_density_blockwise(2, L, 8, 9)

    def test_deep_odd_scale_regression(self):
        # a 3-adic Jordan scale of 3^7 at depth 1: the naive and recursive
        # routes both give 2
        L = QuadLattice.from_rows([[2, 0], [0, 2 * 3 ** 7]], positive_definite=True)
        assert local_density(3, L, 1) == local_density_naive(3, L, 1, 2) == \
            local_density_recursive(3, L, 1) == 2

    def test_random_lattices_answer_at_2_and_3(self):
        # seeded random rank 5-8 lattices; the last one has a 2-adic Jordan
        # scale of 2^9, which reaches 2^(a + 6) at m = 1, 3, 5.  local_density
        # answers every call and agrees with the naive route at its depth
        # where that stays within 2^21 points, and otherwise with the
        # recursive route at ell = 3, m not divisible by 3
        rng = random.Random(11)
        checked = []
        for _ in range(17):
            L = QuadLattice.from_rows(random_posdef_gram(rng, rng.randint(5, 8)),
                                      positive_definite=True)
            for ell in (2, 3):
                for m in range(1, 7):
                    d, a = local_density(ell, L, m), stable_depth(ell, m)
                    if ell ** (a * L.rank) <= 2 ** 21:
                        assert d == local_density_naive(ell, L, m, a), (L.gram, ell, m)
                    elif ell == 3 and m % 3:
                        assert d == local_density_recursive(3, L, m), (L.gram, m)
                    else:
                        continue
                    checked.append((L.gram, ell, m))
        assert len(checked) == 140
        assert [m for g, ell, m in checked if g == L.gram and ell == 2] == [1, 3, 5]

    def test_e8_cubed_depth_40_within_a_second(self):
        # depth 40 at ell = 2: about 160 orbits, and no list of 2^40 residues
        n = len(E8_GRAM)
        G = [[E8_GRAM[i % n][j % n] if i // n == j // n else 0 for j in range(3 * n)]
             for i in range(3 * n)]
        L = QuadLattice.from_rows(G, positive_definite=True)
        k, m = 12, 2 ** 38
        expect = (1 - Fraction(1, 2 ** k)) * sum(Fraction(1, 2 ** (j * (k - 1)))
                                                 for j in range(39))
        for cache in (density._orbits, density._orbit_tensor, density._blockwise_factors):
            cache.cache_clear()
        start = time.perf_counter()
        assert local_density_blockwise(2, L, m, 40) == expect
        assert time.perf_counter() - start < 1.0

    def test_deep_odd_moduli_answer(self):
        # 5^13 residues would need about 9 GiB as an int64 array.  The
        # hyperbolic plane, split at odd p into two 1x1 blocks, has
        # #{xy = m mod p^a} = (v_p(m) + 1) phi(p^a) for v_p(m) < a, and 0
        # takes the rest of the p^(2a) pairs
        for p, a in ((5, 13), (3, 14), (7, 12)):
            phi = (p - 1) * p ** (a - 1)
            for m in (1, 2 * p, p ** (a - 1)):
                assert count_blockwise(HYP, p, m, a) == (valuation(m, p, 0) + 1) * phi
            off_zero = sum((v + 1) * phi * (p - 1) * p ** (a - v - 1) for v in range(a))
            assert count_blockwise(HYP, p, 0, a) == p ** (2 * a) - off_zero

    def test_cold_deep_call_memory(self):
        # a cold count at 3^14 on a rank-4 lattice: about 30 orbits, where
        # a list of the 3^14 residues alone would take 38 MB
        L = QuadLattice.from_rows([[2, 1, 0, 0], [1, 4, 1, 0], [0, 1, 6, 1], [0, 0, 1, 8]],
                                  positive_definite=True)
        for cache in (density._orbits, density._orbit_tensor, density._blockwise_factors):
            cache.cache_clear()
        tracemalloc.start()
        try:
            count_blockwise(L, 3, 1, 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak

    def test_deep_depth_reachable(self, e8):
        # depth 11 at ell=2 and rank 8 is far beyond the naive guard
        d = local_density_blockwise(2, e8, 16, 11)
        assert d == local_density_blockwise(2, e8, 16, 12)


def ref_cyclic_convolve_i64(x, y, mod):
    full = np.convolve(x, y)
    out = full[:mod].copy()
    out[: full.shape[0] - mod] += full[mod:]
    return out


def ref_blockwise_counts(L, ell, a):
    """The block merge the orbit contraction replaced, as the count for
    every target mod ell^a: int64 cyclic convolution while the product of
    the factor sums stays below 2^62, a big-int pre-fold down to two
    factors, and the sum over u of aa[u] b[target - u] for all targets."""
    mod = ell ** a
    blocks = jordan_blocks(L, ell, a)
    factors = []
    for kind, data in blocks:
        hist = expand(_block_counts(kind, data, ell, a), ell, a).astype(np.int64)
        factors.append((hist, mod if kind == "1" else mod * mod))
    factors.sort(key=lambda t: t[1])
    merged = []
    cur, cur_sum = np.zeros(mod, dtype=np.int64), 1
    cur[0] = 1
    for hist, s in factors:
        if cur_sum * s < (1 << 62):
            cur = ref_cyclic_convolve_i64(cur, hist, mod)
            cur_sum *= s
        else:
            merged.append(tuple(int(v) for v in cur))
            cur, cur_sum = hist, s
    merged.append(tuple(int(v) for v in cur))
    # pre-fold down to at most two factors with exact big-int convolution
    while len(merged) > 2:
        b = list(merged.pop())
        aa = list(merged.pop())
        new = [0] * mod
        for u, cu in enumerate(aa):
            if cu:
                for w, cw in enumerate(b):
                    if cw:
                        new[(u + w) % mod] += cu * cw
        merged.append(tuple(new))
    if len(merged) == 1:
        return list(merged[0])
    aa, b = merged
    # np.roll(b, u)[target] = b[(target - u) % mod]
    b = np.array(b, dtype=object)
    return sum(aa[u] * np.roll(b, u) for u in range(mod) if aa[u]).tolist()


# ell -> largest depth of the merge check: moduli up to 2^11, 3^7, 5^5, 7^4
MERGE_DEPTHS = {2: 11, 3: 7, 5: 5, 7: 4}


def merge_lattice(rng, ell, rank, a):
    """A random lattice, with ell-divisible blocks 40% of the time; a fifth
    of those are scaled by ell^((a + 7) // 2), so that a Jordan scale reaches
    ell^(a + 6) or beyond."""
    G = random_posdef_gram(rng, rank, spread=2)
    if rng.random() < 0.4:
        e = (a + 7) // 2 if rng.random() < 0.2 else 1
        D = [ell ** e if i < rng.randint(1, rank) else 1 for i in range(rank)]
        G = [[G[i][j] * D[i] * D[j] for j in range(rank)] for i in range(rank)]
    return QuadLattice.from_rows(G, positive_definite=True)


def merge_matches_reference(L, ell, a):
    """Assert that count_blockwise equals ref_blockwise_counts at every
    target, and the naive count too where that visits at most 2^20 points
    over all targets.  Returns (deep, naive): whether a Jordan scale of L
    reaches ell^(a + 6), and whether the naive count ran."""
    counts = [count_blockwise(L, ell, m, a) for m in range(ell ** a)]
    assert counts == ref_blockwise_counts(L, ell, a), (ell, a, L.gram)
    naive = ell ** (a * (L.rank + 1)) <= 2 ** 20
    if naive:
        scale = ell ** (a * (L.rank - 1))
        assert [Fraction(c, scale) for c in counts] == \
            [local_density_naive(ell, L, m, a) for m in range(ell ** a)], (ell, a, L.gram)
    top = max(valuation(d, ell, 0) for d in smith_normal_form(L.gram_rows()))
    return top >= a + 6, naive


class TestOrbitMerge:
    @pytest.mark.parametrize("ell", sorted(MERGE_DEPTHS))
    def test_matches_reference_merge(self, rng, ell):
        checked = [merge_matches_reference(merge_lattice(rng, ell, rank, a), ell, a)
                   for rank in range(1, 7) for a in range(1, MERGE_DEPTHS[ell] + 1)]
        assert (True, True) in checked and (False, True) in checked

    def test_matches_reference_merge_at_precision_limit(self):
        # up to depth 8 the determinant 2^14 of the scale-2^7 block reaches
        # 2^(a + 6), and from depth 9 on it does not
        L = QuadLattice.from_rows(PRECISION_GRAM)
        for a in range(7, 12):
            merge_matches_reference(L, 2, a)

    def test_tensor_row_sum_fires_under_python_O(self):
        # the unit orbit {1} mod 3 reported with two elements: for z = 1 its
        # one element x = 1 gives z - x = 0, so the row sums to 1, not 2
        assert_fires_under_python_O(
            "from orthocount import density\n"
            "assert False, 'asserts are live'\n"
            "real = density._orbits\n"
            "density._orbits = lambda ell, a: ((0, 0, 1, 2),) + real(ell, a)[1:]\n",
            "density._orbit_tensor(3, 1)\n")

    @pytest.mark.parametrize("ell,depth", [(2, 9), (3, 5), (5, 3), (7, 3)])
    def test_orbits_brute_force(self, ell, depth):
        for a in range(1, depth + 1):
            mod = ell ** a
            orbits = _orbits(ell, a)
            o1, o2, cnt, starts = _orbit_tensor(ell, a)
            lab = residue_labels(ell, a).tolist()
            members = {}
            for r in range(mod):
                members.setdefault(lab[r], set()).add(r)
            squares = {u * u % mod for u in range(mod) if u % ell}
            for r in range(mod):
                assert members[lab[r]] == {s * r % mod for s in squares}, (ell, a, r)
            n = len(orbits)
            reps = [z for _, _, z, _ in orbits]
            assert [lab[z] for z in reps] == list(range(n)) == sorted(members)
            assert reps == [min(members[o]) for o in range(n)]
            assert [size for *_, size in orbits] == [len(members[o]) for o in range(n)]
            # labels follow the key 4 v + class, v the valuation of the orbit
            assert [v for v, *_ in orbits] == [valuation(z, ell, a) for z in reps]
            keys = [4 * v + c for v, c, _, _ in orbits]
            assert keys == sorted(set(keys))
            T = np.zeros((n, n, n), dtype=np.int64)
            T[np.repeat(np.arange(n), np.diff(starts, append=len(cnt))), o1, o2] = cnt
            for z in range(mod):
                direct = np.zeros((n, n), dtype=np.int64)
                for x in range(mod):
                    direct[lab[x], lab[(z - x) % mod]] += 1
                assert (direct == T[lab[z]]).all(), (ell, a, z)


@lru_cache(maxsize=None)
def residue_labels(ell, a):
    """The orbit label of every residue mod ell^a."""
    return np.array([_orbit_of(ell, a, r) for r in range(ell ** a)])


def expand(h, ell, a):
    """A count on each unit-square orbit, as the histogram over Z/ell^a."""
    assert len(h) == len(_orbits(ell, a))
    assert all(type(c) is int for c in h)
    return h[residue_labels(ell, a)]


def block_hist(kind, data, ell, a):
    """The histogram of one block over Z/ell^a.  _block_counts takes the
    blocks that jordan_blocks returns: any 1x1 block, and at ell = 2 a 2x2
    block of 2^v times a unimodular form.  Any 2x2 block (a, b, c) is
    counted as the binary lattice [[a, b], [b, c]] through the blockwise
    route, which splits it by jordan_blocks; a multiple of 2 ell^a added to
    a and c, which leaves Q mod ell^a alone, makes the gram nonsingular."""
    if kind == "1":
        return expand(_block_counts(kind, data, ell, a), ell, a)
    aa, bb, cc = data
    step = 2 * ell ** a
    aa, cc = next((aa + step * s, cc + step * t) for s in range(3) for t in range(3)
                  if (aa + step * s) * (cc + step * t) != bb * bb)
    binary = QuadLattice.from_rows([[aa, bb], [bb, cc]])
    return expand(density._blockwise_factors(binary, ell, a), ell, a)


def block_hist_reference(kind, data, ell, a):
    """The per-point loops the numpy kernel replaced, in exact Python ints."""
    mod = ell ** a
    hist = [0] * mod
    if kind == "1":
        if ell == 2:
            qcoef = (data % (2 * mod)) // 2
        else:
            qcoef = data * pow(2, -1, mod) % mod
        for xv in range(mod):
            hist[(qcoef * xv * xv) % mod] += 1
        return hist
    aa, bb, cc = data
    qa, qc = (aa % (2 * mod)) // 2, (cc % (2 * mod)) // 2
    for xv in range(mod):
        base = (qa * xv * xv) % mod
        lin = (bb * xv) % mod
        for yv in range(mod):
            hist[(base + lin * yv + qc * yv * yv) % mod] += 1
    return hist


def block_hist_grid(data, ell, a):
    """The numpy grid the unit-substitution count replaced: Q on every cell
    of the ell^a x ell^a grid of a 2x2 block, a bounded chunk of rows at a
    time."""
    mod = ell ** a
    aa, bb, cc = data
    qa, qc = (aa % (2 * mod)) // 2, (cc % (2 * mod)) // 2
    x = np.arange(mod, dtype=np.int64)
    sq = x * x % mod
    base = qa * sq % mod
    lin = bb % mod * x % mod
    qy = qc * sq % mod
    hist = np.zeros(mod, dtype=np.int64)
    rows = max(1, (1 << 16) // mod)
    for start in range(0, mod, rows):
        sl = slice(start, start + rows)
        q = (lin[sl, None] * x + (base[sl, None] + qy)) % mod
        hist += np.bincount(q.ravel(), minlength=mod)
    return hist


# ell -> largest depth checked: moduli up to 2^8, 3^5, 5^3 and 7^2
HIST_DEPTHS = {2: 8, 3: 5, 5: 3, 7: 2}
# deeper moduli, checked against the numpy grid: 2^10, 3^6, 5^4 and 7^3
GRID_DEPTHS = {2: 10, 3: 6, 5: 4, 7: 3}


def random_block(rng, ell, a):
    """A 2x2 gram block (a, b, c) with even diagonal entries, each entry a
    residue, ell-divisible, negative, above 2^63 or zero, and b = 0 mod ell^a
    a third of the time."""
    mod = ell ** a

    def entry():
        return rng.choice([rng.randrange(mod), ell * rng.randrange(1, mod + 1),
                           -rng.randrange(1, 3 * mod), rng.randrange(2 ** 63, 2 ** 70), 0])

    bb = mod * rng.randint(-3, 3) if rng.random() < 1 / 3 else entry()
    return 2 * entry(), bb, 2 * entry()


def hist_coefficients(ell, a):
    """Even gram entries 2q with q = 0, a unit, ell-divisible, or large."""
    mod = ell ** a
    return sorted({0, 2, 2 * (ell - 1), 2 * ell, 2 * ell ** (a - 1) * (ell - 1),
                   2 * mod, 2 * (mod + 1), -2 * (ell + 1), 2 * 3 ** 40 + 2 * ell})


class TestBlockHistograms:
    @pytest.mark.parametrize("ell", sorted(HIST_DEPTHS))
    def test_1x1_matches_reference(self, ell):
        for a in range(1, HIST_DEPTHS[ell] + 1):
            for g in hist_coefficients(ell, a):
                got = block_hist("1", g, ell, a)
                assert got.tolist() == block_hist_reference("1", g, ell, a), (ell, a, g)

    @pytest.mark.parametrize("ell", sorted(HIST_DEPTHS))
    def test_2x2_matches_reference(self, ell):
        for a in range(1, HIST_DEPTHS[ell] + 1):
            coeffs = hist_coefficients(ell, a)
            # diagonal coefficient pairs, with the off-diagonal entry 0, a
            # unit, ell-divisible or negative
            for k, (g1, g2) in enumerate(zip(coeffs, coeffs[::-1])):
                for b in (0, 1, ell, -ell - 2, ell ** a + 1 + k):
                    got = block_hist("2", (g1, b, g2), ell, a)
                    assert got.tolist() == block_hist_reference("2", (g1, b, g2), ell, a), \
                        (ell, a, g1, b, g2)

    @pytest.mark.parametrize("ell,a", [(2, 1), (3, 1), (2, 3), (5, 2), (3, 3), (2, 6)])
    def test_chunk_sizes(self, ell, a):
        # small fixed blocks at the base-case depth and a few depths above it
        mod = ell ** a
        cases = [(2, 1, 2), (2 * ell + 2, ell, 2 * ell), (0, 3, 2), (2 * mod + 4, -1, 2)]
        for data in cases:
            assert block_hist("2", data, ell, a).tolist() == \
                block_hist_reference("2", data, ell, a), data

    @pytest.mark.parametrize("ell", sorted(HIST_DEPTHS))
    def test_2x2_random_blocks(self, rng, ell):
        # depths 1 and 2 sit at the grid base case and one step above it
        for a in range(1, GRID_DEPTHS[ell] + 1):
            for _ in range(8 if a <= 2 else 4):
                data = random_block(rng, ell, a)
                got = block_hist("2", data, ell, a)
                if a <= HIST_DEPTHS[ell]:
                    expect = block_hist_reference("2", data, ell, a)
                else:
                    expect = block_hist_grid(data, ell, a).tolist()
                assert got.tolist() == expect, (ell, a, data)

    @pytest.mark.parametrize("ell,depth", [(2, 16), (3, 9)])
    def test_2x2_fold_identity(self, rng, ell, depth):
        # a pair mod ell^a lifts to ell^2 pairs mod ell^(a+1) with the same
        # Q mod ell^a: ell^2 hist_a[r] = sum over r' = r mod ell^a of hist_(a+1)[r']
        for _ in range(3):
            data = random_block(rng, ell, depth)
            hist = block_hist("2", data, ell, 1)
            for a in range(1, depth):
                deeper = block_hist("2", data, ell, a + 1)
                assert deeper.sum() == ell ** (2 * a + 2)
                assert (deeper.reshape(ell, -1).sum(axis=0) == ell * ell * hist).all(), \
                    (ell, a, data)
                hist = deeper

    def test_1x1_exact_where_unreduced_products_overflow(self):
        # at mod 3^14, qcoef * x^2 passes 2^63 unless x^2 is reduced first;
        # Q = -x^2 takes each unit r = 2 mod 3 twice and r = 1 mod 3 never
        # (the counts are constant on the orbits of 2 and 1).  Counting a
        # block never builds the structure tensor.
        density._orbit_tensor.cache_clear()
        h = _block_counts("1", -2, 3, 14)
        assert sum(c * size for c, (*_, size) in zip(h, _orbits(3, 14))) == 3 ** 14
        assert h[_orbit_of(3, 14, 2)] == 2 and h[_orbit_of(3, 14, 1)] == 0
        assert density._orbit_tensor.cache_info().currsize == 0
        density._orbits.cache_clear()

    def test_invariant_fires_under_python_O(self):
        assert_fires_under_python_O(
            "from orthocount.density import _block_counts\n"
            "assert False, 'asserts are live'\n",
            "_block_counts('1', 3, 2, 3)\n")

    def test_zero_orbit_remainder_fires_under_python_O(self):
        # with every nonzero orbit twice its size, the 44 pairs of xy mod 8
        # off 0 count 88 points, and the zero orbit's remainder of 4^3 is
        # negative
        assert_fires_under_python_O(
            "from orthocount import density\n"
            "assert False, 'asserts are live'\n"
            "real = density._orbits\n"
            "density._orbits = lambda ell, a: tuple(\n"
            "    (v, c, z, 2 * size if v < a else size) for v, c, z, size in real(ell, a))\n",
            "density._block_counts('2', (0, 1, 0), 2, 3)\n")

    def test_non_jordan_2x2_block_fires_under_python_O(self):
        # [[2, 2], [2, 2]] is not 2^v times a unimodular form: v_2(B) = 1,
        # but 4 does not divide A
        assert_fires_under_python_O(
            "from orthocount.density import _block_counts\n"
            "assert False, 'asserts are live'\n",
            "_block_counts('2', (2, 2, 2), 2, 3)\n")


class TestStabilization:
    def test_depth_agreement_odd_p(self, rng):
        # Hensel: for p odd and p not dividing m, depths 1 and 2 agree
        cases = 0
        while cases < 200:
            p = rng.choice([3, 5, 7])
            max_rank = {3: 6, 5: 5, 7: 4}[p]  # keep p^(2 rank) under the guard
            rank = rng.randint(1, max_rank)
            L = random_p_lattice(rng, p, rank)
            m = rng.randint(1, 60)
            if m % p == 0:
                continue
            d1 = local_density_naive(p, L, m, 1)
            d2 = local_density_naive(p, L, m, 2)
            assert d1 == d2, (p, L.gram, m)
            cases += 1

    def test_stable_depth_blockwise(self, rng):
        for _ in range(30):
            p = rng.choice([2, 3, 5])
            rank = rng.randint(1, 5)
            L = random_p_lattice(rng, p, rank) if p != 2 else QuadLattice.from_rows(
                random_posdef_gram(rng, rank, spread=2), positive_definite=True)
            m = rng.randint(1, 40)
            local_density(p, L, m)  # raises if the depth heuristic failed

    def test_unstable_density_is_an_invariant_error(self, monkeypatch):
        # a count that changes with the depth breaks the stabilization invariant
        monkeypatch.setattr(density, "local_density_blockwise",
                            lambda ell, L, m, a: Fraction(a))
        with pytest.raises(InvariantError, match="did not stabilize at depth 1"):
            local_density(3, QuadLattice.from_rows([[2]], positive_definite=True), 1)


class TestRecursive:
    def test_hyperbolic_cross_oracle(self):
        assert local_density_recursive(5, HYP, 7) == Fraction(4, 5)

    def test_all_divisible_is_zero(self):
        L = QuadLattice.from_rows([[10, 5], [5, 10]])
        assert local_density_recursive(5, L, 1) == 0

    def test_rejects_p_dividing_m(self):
        with pytest.raises(ValueError):
            local_density_recursive(5, HYP, 10)
        with pytest.raises(ValueError):
            local_density_recursive(2, HYP, 1)

    def test_cross_oracle_200(self, rng):
        # acceptance-grade sweep: recursive == naive at stabilized depth,
        # with the den_sm bounds checked on the way
        cases = 0
        while cases < 200:
            p = rng.choice([3, 5, 7])
            rank = rng.randint(1, 6)
            L = random_p_lattice(rng, p, rank)
            m = rng.randint(1, 60)
            if m % p == 0:
                continue
            drec = local_density_recursive(p, L, m)
            dnaive = local_density_naive(p, L, m, 1)
            assert drec == dnaive, (p, L.gram, m)
            assert drec <= 2
            unit_rank = sum(1 for _, v in p_diagonalize(L, p, 2) if v == 0)
            if unit_rank >= 3:
                assert drec <= 1 + Fraction(1, p), (p, L.gram, m)
            cases += 1

    def test_unimodular_rank8(self, e8):
        d = local_density_recursive(5, e8, 1)
        assert Fraction(4, 5) < d <= Fraction(6, 5)
        assert d == local_density_naive(5, e8, 1, 1)

    def test_den_sm_unit_rank3_bound(self, rng):
        for _ in range(40):
            p = rng.choice([3, 5, 7])
            rank = rng.randint(3, 5)
            L = QuadLattice.from_rows(random_posdef_gram(rng, rank, spread=2),
                                      positive_definite=True)
            m = rng.randint(1, 30)
            if m % p == 0:
                continue
            unit_rank = sum(1 for _, v in p_diagonalize(L, p, 2) if v == 0)
            d = local_density_recursive(p, L, m)
            assert d <= 2
            if unit_rank >= 3:
                assert d <= 1 + Fraction(1, p)

    @pytest.mark.parametrize("count, gram", [
        # a density of 3, over the bound of 2
        ("3 * p ** (len(units) - 1)", [[2, 1], [1, 2]]),
        # a density of 1 + 2/p at unit rank 3, over the bound of 1 + 1/p
        ("(p + 2) * p ** (len(units) - 2)", [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
    ])
    def test_bound_fires_under_python_O(self, count, gram):
        assert_fires_under_python_O(
            "from orthocount import density\n"
            "from orthocount.lattice import QuadLattice\n"
            "assert False, 'asserts are live'\n"
            f"density._unit_form_count = lambda units, c, p: {count}\n",
            f"density.local_density_recursive(5, QuadLattice.from_rows({gram}), 1)\n")


def brute_unit_counts(U, p):
    """counts[i, c] = #{x in F_p^k : sum U[i, j] x_j^2 = c}, over every x,
    for each row of the (n, k) array U."""
    n, k = U.shape
    x = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64)
    # the reshape keeps k = 0 as one point, the empty vector
    q = (x * x).reshape(p ** k, k) @ U.T % p
    return np.bincount((q + p * np.arange(n)).ravel(), minlength=n * p).reshape(n, p)


class TestUnitFormCount:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("k", range(6))
    def test_matches_brute_force(self, p, k):
        if p ** k <= 5000:
            units = list(itertools.product(range(1, p), repeat=k))
        else:
            rng = random.Random(100 * p + k)
            units = [[rng.randrange(1, p) for _ in range(k)] for _ in range(20)]
        counts = brute_unit_counts(np.array(units, dtype=np.int64).reshape(len(units), k), p)
        for u, row in zip(units, counts):
            for c in range(1, p):
                assert _unit_form_count(list(u), c, p) == row[c], (u, c)


def test_stable_depth_values():
    assert stable_depth(2, 1) == 3
    assert stable_depth(2, 16) == 7
    assert stable_depth(5, 7) == 1
    assert stable_depth(5, 50) == 3
