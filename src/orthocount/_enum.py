"""Branch-and-bound lattice point enumeration (Fincke-Pohst style).

The pruning data comes from an exact rational completion of squares
Q(v) = sum_i c_i (v_i + sum_{j>i} L_ij v_j)^2, rescaled to a single integer
plan so the hot loop is integer-only -- no floating point in any bound.
That plan does not depend on the bound, so it is built once per Gram matrix
and cached; each bound then only needs the int64 certificate, whose
coordinate boxes |v_j| <= sqrt(2*bound*(G^-1)_jj) read the diagonal of the
inverse off integer minors (Cramer's rule).
When the exact worst-case intermediate fits in int64, counting runs the numpy
frontier kernel `_theta_walk_np`, one level at a time over whole arrays of
partial vectors; otherwise the Python big-int walker `_theta_walk_py` performs
the same traversal one node at a time.  `short_vectors` always uses the
big-int walker, which also collects the vectors.

Vectors are visited up to sign: the outermost nonzero coordinate is forced
positive and counts are doubled afterwards.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

import numpy as np

from .intmat import det_bareiss

INT64_SAFE = 1 << 62
CHUNK = 1 << 16  # frontier rows walked at once by _theta_walk_np


@lru_cache(maxsize=512)  # bounded: a long run meets many distinct Gram matrices
def _ldl_plan(gram):
    """Bound-free plan of a Gram matrix given as a tuple of tuples.

    Returns (mults, lds, lns, scale, minors, det) as tuples and ints, where
    minors[j] is the determinant of gram with row and column j removed, so
    that (gram^-1)_jj = minors[j] / det.
    """
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


def cholesky_plan(gram, bound):
    """Integer pruning plan for enumerating Q(v) <= bound.

    Level i (processed from i = r-1 down to 0) uses
        w_i  = lds[i]*v_i + sum_{j>i} lns[i][j]*v_j,
        test   mults[i] * w_i^2 <= T,
        descend with T - mults[i]*w_i^2,
    starting from T = bound*scale; the accumulated sum of terms is
    Q(v)*scale.  All but `safe` comes from the cached plan of the Gram
    matrix; `safe` certifies every intermediate fits in int64, from the
    coordinate boxes vmax_j = isqrt(2*bound*(G^-1)_jj) + 1.
    """
    mults, lds, lns, scale, minors, det = _ldl_plan(tuple(map(tuple, gram)))
    r = len(mults)
    vmax = [isqrt(2 * bound * m // det) + 1 for m in minors]
    safe = 2 * bound * scale + 1 < INT64_SAFE
    for i in range(r):
        wb = lds[i] * vmax[i] + sum(abs(lns[i][j]) * vmax[j] for j in range(i + 1, r))
        if mults[i] * wb * wb >= INT64_SAFE:
            safe = False
    return mults, lds, lns, scale, safe


def _theta_walk_py(mults, lds, lns, scale, bound, counts, collect=None):
    """Exact big-int traversal; counts[Q(v)] += 1 per nonzero vector (up to sign)."""
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


def _isqrt(a):
    """Exact floor(sqrt(a)) for an int64 array with 0 <= a < 2^62.

    The float64 estimate is within 2^-20 of sqrt(a) <= 2^31, so its
    truncation is off by at most one either way; one step each corrects it.
    """
    s = np.sqrt(a.astype(np.float64)).astype(np.int64)
    s -= s * s > a
    s += (s + 1) * (s + 1) <= a
    return s


def _theta_walk_np(mults, lds, lns, scale, bound, chunk=CHUNK):
    """counts[Q(v)] per nonzero vector (up to sign), on an int64-safe plan.

    The walk of `_theta_walk_py`, one level at a time over a frontier of
    partial vectors (Fincke & Pohst 1985).  A row holds the budget t left
    for the lower levels, the accumulated Q*scale, whether a coordinate is
    nonzero yet, and the shifts base[k] of the levels k below.  Each row
    expands to every x with |lds[i]*x + base[i]| <= isqrt(t // mults[i]),
    which keeps each term within its budget; children are walked at most
    `chunk` at a time, so memory stays flat in the size of the frontier.
    Returns an int64 array of length bound + 1.
    """
    lns = np.array(lns, dtype=np.int64)
    counts = np.zeros(bound + 1, dtype=np.int64)

    def walk(i, t, q, started, base):
        m, ld, b = mults[i], lds[i], base[:, i]
        B = _isqrt(t // m)
        lo = -((B + b) // ld)
        hi = (B - b) // ld
        lo = np.where(started, lo, np.maximum(lo, 0))
        n = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(len(t)), n)
        # x runs lo..hi within each parent's block of children
        x = np.arange(len(parent)) - np.repeat(np.cumsum(n) - n - lo, n)
        for s in range(0, len(parent), chunk):
            p, xs = parent[s:s + chunk], x[s:s + chunk]
            w = ld * xs + b[p]
            term = m * w * w
            qs = q[p] + term
            st = started[p] | (xs != 0)
            if i == 0:
                counts[:] += np.bincount(qs[st] // scale, minlength=bound + 1)
            else:
                walk(i - 1, t[p] - term, qs, st,
                     base[p, :i] + xs[:, None] * lns[:i, i])

    r = len(mults)
    walk(r - 1, np.array([bound * scale], dtype=np.int64), np.zeros(1, np.int64),
         np.zeros(1, dtype=bool), np.zeros((1, r), dtype=np.int64))
    return counts


def block_components(gram):
    """Connected components of the basis graph (edges at nonzero gram[i][j])."""
    r = len(gram)
    seen = [False] * r
    comps = []
    for s in range(r):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(r):
                if not seen[j] and gram[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _theta_one_block(gram, bound):
    mults, lds, lns, scale, safe = cholesky_plan(gram, bound)
    if safe:
        counts = _theta_walk_np(mults, lds, lns, scale, bound).tolist()
    else:
        counts = [0] * (bound + 1)
        _theta_walk_py(mults, lds, lns, scale, bound, counts)
    counts = [2 * x for x in counts]
    counts[0] += 1
    return counts


def theta_counts(gram, bound):
    """[#{v : Q(v)=q} for q = 0..bound], split over orthogonal blocks."""
    if bound < 0:
        return []
    total = None
    for comp in block_components(gram):
        sub = [[gram[i][j] for j in comp] for i in comp]
        cnt = _theta_one_block(sub, bound)
        if total is None:
            total = cnt
        else:
            new = [0] * (bound + 1)
            for a, ca in enumerate(total):
                if ca:
                    for b in range(bound + 1 - a):
                        if cnt[b]:
                            new[a + b] += ca * cnt[b]
            total = new
    return total


def short_vectors(gram, bound):
    """All v with 0 < Q(v) <= bound, one per +-pair (exact Python walker)."""
    mults, lds, lns, scale, _ = cholesky_plan(gram, bound)
    counts = [0] * (bound + 1)
    out = []
    _theta_walk_py(mults, lds, lns, scale, bound, counts, collect=out)
    return out
