import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from orthocount import density
from orthocount.density import (
    _block_counts,
    _count_naive_np,
    _orbit_tensor,
    _orbits,
    _unit_form_count,
    block_diagonalize,
    count_blockwise,
    local_density,
    local_density_blockwise,
    local_density_naive,
    local_density_recursive,
    stable_depth,
)
from orthocount.lattice import QuadLattice, p_diagonalize

from conftest import E8_GRAM, assert_fires_under_python_O, random_posdef_gram

HYP = QuadLattice.from_rows([[0, 1], [1, 0]])
# at ell = 2 and depth 8 a 2x2 pivot of this gram has a determinant that
# vanishes modulo 2^(8 + 6), the working precision of the block reduction
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
            assert [kind for kind, _ in block_diagonalize(L, 2, a + 6)] == ["2"] * 12
            count = count_blockwise(L, 2, m, a)
            assert type(count) is int and count > 2 ** 63
        # at depths 8 and 9 the reference merge pre-folds four int64 partial
        # products down to two; the orbit merge agrees at every target
        for a in (8, 9):
            assert merge_matches_reference(L, 2, a)

    def test_precision_exhausted_at_2x2_pivot(self):
        L = QuadLattice.from_rows(PRECISION_GRAM)
        for call in (lambda: count_blockwise(L, 2, 0, 8), lambda: local_density(2, L, 8)):
            with pytest.raises(ArithmeticError) as err:
                call()
            assert err.type is ArithmeticError
            assert str(err.value) == "working precision exhausted in block reduction"

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
    blocks = block_diagonalize(L, ell, a + 6)
    factors = []
    for kind, data in blocks:
        hist = block_hist(kind, data, ell, a)
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
    of those are scaled so far that the block reduction at depth a runs out
    of its working precision ell^(a+6)."""
    G = random_posdef_gram(rng, rank, spread=2)
    if rng.random() < 0.4:
        e = (a + 7) // 2 if rng.random() < 0.2 else 1
        D = [ell ** e if i < rng.randint(1, rank) else 1 for i in range(rank)]
        G = [[G[i][j] * D[i] * D[j] for j in range(rank)] for i in range(rank)]
    return QuadLattice.from_rows(G, positive_definite=True)


def merge_matches_reference(L, ell, a):
    """Assert that count_blockwise equals ref_blockwise_counts at every
    target, or raises the same ArithmeticError; True if it answered."""
    try:
        expect = ref_blockwise_counts(L, ell, a)
    except ArithmeticError as err:
        with pytest.raises(ArithmeticError, match=re.escape(str(err))):
            count_blockwise(L, ell, 0, a)
        return False
    assert [count_blockwise(L, ell, m, a) for m in range(ell ** a)] == expect, \
        (ell, a, L.gram)
    return True


class TestOrbitMerge:
    @pytest.mark.parametrize("ell", sorted(MERGE_DEPTHS))
    def test_matches_reference_merge(self, rng, ell):
        answered = [merge_matches_reference(merge_lattice(rng, ell, rank, a), ell, a)
                    for rank in range(1, 7) for a in range(1, MERGE_DEPTHS[ell] + 1)]
        assert any(answered) and not all(answered)

    def test_matches_reference_merge_at_precision_limit(self):
        # the block reduction runs out of precision up to depth 8, the last
        # time at a 2x2 pivot, and answers from depth 9 on
        L = QuadLattice.from_rows(PRECISION_GRAM)
        assert [merge_matches_reference(L, 2, a) for a in range(7, 12)] == \
            [False, False, True, True, True]

    @pytest.mark.parametrize("ell,depth", [(2, 9), (3, 5), (5, 3), (7, 3)])
    def test_orbits_brute_force(self, ell, depth):
        for a in range(1, depth + 1):
            mod = ell ** a
            labels, reps, sizes = _orbits(ell, a)
            o1, o2, cnt, starts = _orbit_tensor(ell, a)
            lab = labels.tolist()
            members = {}
            for r in range(mod):
                members.setdefault(lab[r], set()).add(r)
            squares = {u * u % mod for u in range(mod) if u % ell}
            for r in range(mod):
                assert members[lab[r]] == {s * r % mod for s in squares}, (ell, a, r)
            n = len(reps)
            assert [lab[z] for z in reps] == list(range(n)) == sorted(members)
            assert sizes.tolist() == [len(members[o]) for o in range(n)]
            T = np.zeros((n, n, n), dtype=np.int64)
            T[np.repeat(np.arange(n), np.diff(starts, append=len(cnt))), o1, o2] = cnt
            for z in range(mod):
                direct = np.zeros((n, n), dtype=np.int64)
                for x in range(mod):
                    direct[lab[x], lab[(z - x) % mod]] += 1
                assert (direct == T[lab[z]]).all(), (ell, a, z)


def block_hist(kind, data, ell, a):
    """The histogram of one block over Z/ell^a, expanded from its count on
    each unit-square orbit as h[labels]."""
    labels, _, sizes = _orbits(ell, a)
    h = _block_counts(kind, data, ell, a)
    assert h.shape == sizes.shape
    return h[labels]


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
                assert got.dtype == np.int64
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
                    assert got.dtype == np.int64
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
                assert got.dtype == np.int64
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
        # Q = -x^2 takes each unit r = 2 mod 3 twice and r = 1 mod 3 never.
        # Counting a block builds the orbit labels but never the structure
        # tensor, which takes seconds and hundreds of MB at 3^14.
        mod = 3 ** 14
        density._orbit_tensor.cache_clear()
        h = block_hist("1", -2, 3, 14)
        assert h.sum() == mod
        assert (h[2::3] == 2).all() and not h[1::3].any()
        assert density._orbit_tensor.cache_info().currsize == 0
        density._orbits.cache_clear()

    def test_invariant_fires_under_python_O(self):
        assert_fires_under_python_O(
            "from orthocount.density import _block_counts\n"
            "assert False, 'asserts are live'\n",
            "_block_counts('1', 3, 2, 3)\n")

    def test_orbit_constancy_fires_under_python_O(self):
        # one extra value 1 mod 25 lands in an orbit of 10 residues, so the
        # weighted count of that orbit is no longer a multiple of its size
        assert_fires_under_python_O(
            "from orthocount import density\n"
            "from orthocount.lattice import QuadLattice\n"
            "assert False, 'asserts are live'\n"
            "real = density._block_values\n"
            "def skewed(kind, data, ell, a):\n"
            "    yield from real(kind, data, ell, a)\n"
            "    yield 1, [1]\n"
            "density._block_values = skewed\n",
            "density.count_blockwise(QuadLattice.from_rows([[2]]), 5, 1, 2)\n")


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
