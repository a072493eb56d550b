import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import orthocount
from orthocount import density
from orthocount.density import (
    _block_hist,
    local_density,
    local_density_blockwise,
    local_density_naive,
    local_density_recursive,
    stable_depth,
)
from orthocount.lattice import QuadLattice

from conftest import random_posdef_gram

HYP = QuadLattice.from_rows([[0, 1], [1, 0]])


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
        # delta_2(E8, m) = (15/16) * sigma_{-3}(2-part of m)
        for m in (1, 2, 3, 4, 8, 16, 20):
            v2 = (m & -m).bit_length() - 1
            expect = Fraction(15, 16) * sum(Fraction(1, 8 ** k) for k in range(v2 + 1))
            assert local_density(2, e8, m) == expect

    def test_deep_depth_reachable(self, e8):
        # depth 11 at ell=2 and rank 8 is far beyond the naive guard
        d = local_density_blockwise(2, e8, 16, 11)
        assert d == local_density_blockwise(2, e8, 16, 12)


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


# ell -> largest depth checked: moduli up to 2^8, 3^5, 5^3 and 7^2
HIST_DEPTHS = {2: 8, 3: 5, 5: 3, 7: 2}


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
                got = _block_hist("1", g, ell, a)
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
                    got = _block_hist("2", (g1, b, g2), ell, a)
                    assert got.dtype == np.int64
                    assert got.tolist() == block_hist_reference("2", (g1, b, g2), ell, a), \
                        (ell, a, g1, b, g2)

    @pytest.mark.parametrize("ell,a", [(2, 1), (3, 1), (2, 3), (5, 2), (3, 3), (2, 6)])
    def test_chunk_sizes(self, monkeypatch, ell, a):
        # one-row chunks (CHUNK 1, and CHUNK below mod), several rows per
        # chunk with a short last chunk (7 at small mod, 3 mod + 1)
        mod = ell ** a
        cases = [(2, 1, 2), (2 * ell + 2, ell, 2 * ell), (0, 3, 2), (2 * mod + 4, -1, 2)]
        for chunk in (1, 7, mod - 1, 3 * mod + 1):
            monkeypatch.setattr(density, "CHUNK", chunk)
            for data in cases:
                assert _block_hist("2", data, ell, a).tolist() == \
                    block_hist_reference("2", data, ell, a), (chunk, data)

    def test_1x1_exact_where_unreduced_products_overflow(self):
        # at mod 3^14, qcoef * x^2 passes 2^63 unless x^2 is reduced first;
        # Q = -x^2 takes each unit r = 2 mod 3 twice and r = 1 mod 3 never
        mod = 3 ** 14
        h = _block_hist("1", -2, 3, 14)
        assert h.sum() == mod
        assert (h[2::3] == 2).all() and not h[1::3].any()

    def test_invariant_fires_under_python_O(self):
        src = os.path.dirname(os.path.dirname(orthocount.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("from orthocount.arith import InvariantError\n"
                "from orthocount.density import _block_hist\n"
                "assert False, 'asserts are live'\n"
                "try:\n"
                "    _block_hist('1', 3, 2, 3)\n"
                "except InvariantError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        r = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 0, r.stderr


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
            unit_rank = sum(1 for i in range(rank)
                            if any(L.gram[i][j] % p for j in range(rank)))
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
            from orthocount.lattice import p_diagonalize
            unit_rank = sum(1 for _, v in p_diagonalize(L, p, 2) if v == 0)
            d = local_density_recursive(p, L, m)
            assert d <= 2
            if unit_rank >= 3:
                assert d <= 1 + Fraction(1, p)


def test_stable_depth_values():
    assert stable_depth(2, 1) == 3
    assert stable_depth(2, 16) == 7
    assert stable_depth(5, 7) == 1
    assert stable_depth(5, 50) == 3
