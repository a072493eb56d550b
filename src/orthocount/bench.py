"""Benchmark the hot kernels; run via `orthocount bench`.

One row per kernel, with columns
  seconds            best-of-3 time of the kernel that runs: the int64
                     numpy frontier walk `_enum._theta_walk_np`
                     (theta_walk_e8), the numpy naive count
                     `density._count_naive_np` (density_count) and the
                     whole-array series product A*B (series_convolution);
  reference_seconds  one timing of its pure-Python reference where the
                     package keeps one: the big-int walker
                     `_enum._theta_walk_py`; empty for density_count
                     (checked against the blockwise count instead) and
                     series_convolution (its scalar reference lives in the
                     tests);
  speedup            reference_seconds / seconds, 1.0 where either is
                     empty.
Each row checks its kernel against an independent route before timing it,
else ArithmeticError: the two enumerations must agree, the naive count must
equal the blockwise count `density.count_blockwise`, and A*B must equal B*A
exactly (the series fold does not depend on term order).
"""

import time

import numpy as np

from .padic import make_ring
from .series import SeriesRing


def _time(fn, *a, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*a)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_theta(bound):
    from ._enum import _theta_walk_np, _theta_walk_py, cholesky_plan
    gram = [
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, -1],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, 0],
        [0, 0, 0, 0, -1, 0, 0, 2],
    ]
    mults, lds, lns, scale, _ = cholesky_plan(gram, bound)

    def run_np():
        return _theta_walk_np(mults, lds, lns, scale, bound)

    def run_py():
        counts = [0] * (bound + 1)
        _theta_walk_py(mults, lds, lns, scale, bound, counts)
        return counts

    if run_np().tolist() != run_py():
        raise ArithmeticError("int64 and big-int enumeration disagree")
    return _time(run_np), _time(run_py, repeat=1)


def bench_density(ell, rank, depth):
    from .density import _count_naive_np, count_blockwise
    from .lattice import QuadLattice
    mod = ell ** depth
    gram = [[2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(rank)]
            for i in range(rank)]
    qd = np.array([gram[i][i] // 2 for i in range(rank)], dtype=np.int64) % mod
    G = np.array(gram, dtype=np.int64) % mod
    total = mod ** rank
    if _count_naive_np(qd, G, mod, 1, total) != count_blockwise(
            QuadLattice.from_rows(gram), ell, 1, depth):
        raise ArithmeticError("naive and blockwise density counts disagree")
    return _time(_count_naive_np, qd, G, mod, 1, total), None


def bench_series(tmax):
    ring = make_ring(5, 8, 2, minpoly_modp=(-2 % 5 ** 8, 0, 1))
    sr = SeriesRing(ring, tmax)
    import random
    rng = random.Random(1)
    A = sr.zero_series()
    B = sr.zero_series()
    for t in range(0, tmax, 2):
        A = A.add(sr.monomial(t, rng.randrange(1, ring.modulus)))
        B = B.add(sr.monomial(t + 1 if t + 1 <= tmax else t, rng.randrange(1, ring.modulus)))
    AB, BA = A.mul(B), B.mul(A)
    if not (np.array_equal(AB.pval, BA.pval) and np.array_equal(AB.unit, BA.unit)):
        raise ArithmeticError("series product is not commutative")
    return _time(A.mul, B), None


def run_benchmarks(quick=False):
    rows = []
    for name, fn, size in [
        ("theta_walk_e8", bench_theta, 6 if quick else 12),
        ("density_count", bench_density, (3, 5, 2) if quick else (3, 6, 2)),
        ("series_convolution", bench_series, 200 if quick else 500),
    ]:
        if isinstance(size, tuple):
            t, t_ref = fn(*size)
            size_lbl = "x".join(map(str, size))
        else:
            t, t_ref = fn(size)
            size_lbl = str(size)
        speed = t_ref / t if t_ref else 1.0
        rows.append((name, size_lbl, round(t, 6),
                     round(t_ref, 6) if t_ref is not None else None, round(speed, 2)))
    return rows
