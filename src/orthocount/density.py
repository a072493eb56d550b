"""Local representation densities of quadratic lattices.

Three routes, kept deliberately independent:

  local_density_naive      brute-force count of Q(v) = m mod ell^a over all
                           of (Z/ell^a)^rank (guarded at 10^8 points): every
                           prefix of rank-1 coordinates is enumerated, and the
                           last coordinate is counted through a table of its
                           values per linear coefficient
  local_density_blockwise  the same count via an ell-adic block
                           diagonalization; scales to any depth, used to
                           reach stabilization at ell = 2.  Every block is
                           counted directly on the O(a) orbits of Z/ell^a
                           under the unit squares, from a weighted list of
                           its Q-values (for a 2x2 block, O(ell^a) of them
                           through y = x t and x = y t), and the blocks are
                           merged by an exact contraction over those orbits;
                           _orbits is the only code that knows them
  local_density_recursive  odd p, p not dividing m: diagonalize over Z_p,
                           drop the p-divisible variables, and count the unit
                           part over F_p by its Gauss-sum closed form (Lidl &
                           Niederreiter, Thms 6.26-6.27); the name is kept
                           for the CLI and the benchmark

All values are exact Fractions.
"""

import math
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .arith import InvariantError, is_prime, kronecker, valuation
from .lattice import p_diagonalize

NAIVE_GUARD = 10 ** 8
NAIVE_CHUNK = 1 << 18  # prefixes, or (b, x) cells, per step of _count_naive_np


def _check_prime(ell):
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")


# ---------------------------------------------------------------------------
# naive counter

def _count_naive_np(qd, G, mod, m):
    """#{v in (Z/mod)^r : Q(v) = m}, counted over every point.

    qd (the diagonal Q-coefficients) and G are int64 arrays reduced mod
    `mod`.  With x the last coordinate and v' the first r-1 (the prefix),
    Q(v) = q + b x + qd[r-1] x^2, where q = Q(v') and b = sum_i G[i, r-1] v'_i.
    Every prefix is enumerated, NAIVE_CHUNK at a time, and grouped by the
    pair (b, m - q); each x is then tested once per distinct b against the
    targets of that b, again NAIVE_CHUNK cells at a time, so that
    #{x : qd[r-1] x^2 + b x = m - q} is a count over every x.  Every
    intermediate stays below 2 mod^2, so int64 is exact.
    """
    k = len(qd) - 1
    prefixes = mod ** k
    count = 0
    for start in range(0, prefixes, NAIVE_CHUNK):
        x = np.arange(start, min(prefixes, start + NAIVE_CHUNK), dtype=np.int64)
        V = np.empty((len(x), k), dtype=np.int64)
        for i in range(k):
            V[:, i] = x % mod
            x = x // mod
        q = np.zeros(len(x), dtype=np.int64)
        b = np.zeros(len(x), dtype=np.int64)
        for i in range(k):
            q = (q + qd[i] * (V[:, i] * V[:, i] % mod)) % mod
            for j in range(i + 1, k):
                q = (q + G[i, j] * (V[:, i] * V[:, j] % mod)) % mod
            b = (b + G[i, k] * V[:, i]) % mod
        keys, mult = np.unique(b * mod + (m - q) % mod, return_counts=True)
        count += _count_last(qd[k], keys, mult, mod)
    return count


def _count_last(qx, keys, mult, mod):
    """sum of mult[i] #{x in Z/mod : qx x^2 + b x = t} over keys[i] = b mod + t.

    keys is sorted and distinct; the (b, x) grid covers only the b that
    occur, a block of rows by a chunk of x at a time.
    """
    bs = np.unique(keys // mod)
    cols = min(mod, NAIVE_CHUNK)
    rows = max(1, NAIVE_CHUNK // cols)
    count = 0
    for c0 in range(0, mod, cols):
        x = np.arange(c0, min(mod, c0 + cols), dtype=np.int64)
        y = qx * (x * x % mod) % mod
        for r0 in range(0, len(bs), rows):
            b = bs[r0:r0 + rows, None]
            key = (b * mod + (y + b * x) % mod).ravel()
            pos = np.searchsorted(keys, key)
            # a key past the last target is clipped onto it and cannot match
            count += int(mult[pos[keys.take(pos, mode="clip") == key]].sum())
    return count


def local_density_naive(ell, L, m, a):
    """ell^{a(1-rank)} #{v in (Z/ell^a)^rank : Q(v) = m}, exact.

    A brute-force count over every point: the first rank-1 coordinates are
    enumerated and the last one is counted through a table of its values
    for each linear coefficient that occurs.
    Guarded: ell^(a*rank) must stay at or below 10^8 points.
    """
    _check_prime(ell)
    if a < 1:
        raise ValueError("depth a must be >= 1")
    total = ell ** (a * L.rank)
    if total > NAIVE_GUARD:
        raise ValueError(
            f"naive enumeration of {total} points exceeds the 10^8 guard; "
            "use local_density_blockwise")
    mod = ell ** a
    # reduce everything mod ell^a up front so the int64 kernel is safe
    qd = np.array([L.gram[i][i] // 2 % mod for i in range(L.rank)], dtype=np.int64)
    G = np.array([[L.gram[i][j] % mod for j in range(L.rank)] for i in range(L.rank)],
                 dtype=np.int64)
    n = _count_naive_np(qd, G, mod, m % mod)
    return Fraction(n, ell ** (a * (L.rank - 1)))


# ---------------------------------------------------------------------------
# blockwise counter

def block_diagonalize(L, ell, work_exp):
    """Blocks of a form congruent to gram over Z_ell modulo ell^work_exp.

    Odd ell gives 1x1 blocks only; ell = 2 may need 2x2 blocks [[a,b],[b,c]].
    Returned as gram blocks ("1", g) or ("2", (a, b, c)).
    """
    _check_prime(ell)
    M = ell ** work_exp
    n = L.rank
    G = [[L.gram[i][j] % M for j in range(n)] for i in range(n)]
    idx = list(range(n))
    blocks = []
    while idx:
        vmin, imin, jmin = min((valuation(G[i][j], ell, work_exp), i, j)
                               for i in idx for j in idx)
        if vmin >= work_exp:
            raise ArithmeticError("working precision exhausted in block reduction")
        # Q-values on the diagonal are G[ii]/2; at odd ell a 1x1 pivot works
        # whenever some diagonal reaches the minimum, and one always can be
        # produced by e_i <- e_i + e_j; at ell = 2 that move fails and the
        # 2x2 block is kept whole.
        diag = [i for i in idx if valuation(G[i][i], ell, work_exp) <= vmin]
        if not diag and ell > 2:
            i, j = imin, jmin
            for c in idx:
                G[i][c] = (G[i][c] + G[j][c]) % M
            for c in idx:
                G[c][i] = (G[c][i] + G[c][j]) % M
            diag = [i]
        if diag:
            k = diag[0]
            piv = G[k][k]
            pv = valuation(piv, ell, work_exp)
            uinv = pow(piv // ell ** pv, -1, M)
            for r_ in idx:
                if r_ == k:
                    continue
                if valuation(G[r_][k], ell, work_exp) < pv:
                    raise InvariantError("1x1 pivot does not divide its column")
                mult = (G[r_][k] // ell ** pv) * uinv % M
                for c_ in idx:
                    G[r_][c_] = (G[r_][c_] - mult * G[k][c_]) % M
            for r_ in idx:
                if r_ != k:
                    G[r_][k] = G[k][r_] = 0
            blocks.append(("1", piv))
            idx.remove(k)
        else:
            # ell = 2, off-diagonal minimum: keep the 2x2 block
            i, j = imin, jmin
            if i == j:
                raise InvariantError("2x2 pivot on the diagonal")
            a, b, c = G[i][i], G[i][j], G[j][j]
            det = (a * c - b * b) % M
            dv = valuation(det, ell, work_exp)
            if dv >= work_exp:
                raise ArithmeticError("working precision exhausted in block reduction")
            if dv != 2 * vmin:
                raise InvariantError("2x2 pivot block is not ell^v times a unimodular block")
            dinv = pow(det // ell ** dv, -1, M)
            for r_ in idx:
                if r_ in (i, j):
                    continue
                gi, gj = G[r_][i], G[r_][j]
                x = gi * c - gj * b
                y = -gi * b + gj * a
                if valuation(x, ell, work_exp * 3) < dv or valuation(y, ell, work_exp * 3) < dv:
                    raise InvariantError("2x2 pivot block does not divide its columns")
                x = (x // ell ** dv) * dinv % M
                y = (y // ell ** dv) * dinv % M
                for c_ in idx:
                    G[r_][c_] = (G[r_][c_] - x * G[i][c_] - y * G[j][c_]) % M
            for r_ in idx:
                if r_ not in (i, j):
                    G[r_][i] = G[i][r_] = G[r_][j] = G[j][r_] = 0
            blocks.append(("2", (a, b, c)))
            idx.remove(i)
            idx.remove(j)
    return blocks


@lru_cache(maxsize=64)
def _orbits(ell, a):
    """Orbits of Z/ell^a under multiplication by the unit squares (cached).

    r = ell^k w, w a unit mod ell^(a-k), has the orbit ell^k times the coset
    of w modulo the unit squares: the class of w mod 2^min(a-k, 3) at ell = 2,
    the quadratic residue class of w at odd ell; 0 is an orbit alone.
    Returns (labels, reps, sizes), read-only: the orbit label of every
    residue, and one representative and the size of each orbit.
    """
    mod = ell ** a
    r = np.arange(mod, dtype=np.int64)
    v = np.zeros(mod, dtype=np.int64)  # v_ell(r), and a at r = 0
    for k in range(1, a + 1):
        v[:: ell ** k] += 1
    w = r // ell ** v
    if ell == 2:
        key = w % 2 ** np.minimum(a - v, 3) // 2
    else:
        nonresidue = np.ones(ell, dtype=np.int64)
        nonresidue[np.arange(ell) ** 2 % ell] = 0
        key = nonresidue[w % ell]
    del w  # lowers the peak memory at deep moduli
    # orbits are labelled in the order of the key 4 v + class of w
    key += 4 * v
    count = np.bincount(key)
    labels = (np.cumsum(count > 0) - 1)[key]
    reps = np.full(np.count_nonzero(count), mod)
    np.minimum.at(reps, labels, r)
    orbits = labels, reps, count[count > 0]
    for arr in orbits:
        arr.flags.writeable = False
    return orbits


@lru_cache(maxsize=64)
def _orbit_tensor(ell, a):
    """Structure tensor of the orbits of _orbits(ell, a) (cached).

    Returns (o1, o2, cnt, starts): the nonzero entries
    cnt = T[o3, o1, o2] = #{x in o1 : z - x in o2}, z the representative of
    o3, ordered by o3 with the entries of o3 from starts[o3] on.  T does not
    depend on z within o3: x -> u^2 x maps the x counted for z onto those
    counted for u^2 z.
    """
    labels, reps, _ = _orbits(ell, a)
    mod, n = len(labels), len(reps)
    twice = np.concatenate((labels, labels))
    # twice[z + mod - x] is the label of z - x, for x = 0 .. mod - 1
    T = np.array([np.bincount(labels * n + twice[z + mod: z: -1], minlength=n * n)
                  for z in reps])
    o3, pair = np.nonzero(T)
    return (pair // n, pair % n, T[o3, pair].astype(object),
            np.searchsorted(o3, np.arange(n)))


def _block_values(kind, data, ell, a):
    """(weight, values) pairs of one block, for the orbits of _orbits(ell, a):
    #{x in (Z/ell^a)^k : Q(x) in an orbit} is the sum over the pairs of
    weight times the number of values in that orbit.

    A 1x1 block ("1", g) has Q = g x^2/2, each x once.  A 2x2 block
    ("2", (a, b, c)) has Q = qa x^2 + b x y + qc y^2, qa = a/2, qc = c/2; its
    pairs at depth d split three ways:
      x a unit:            y = x t turns Q into x^2 f(t), f = qa + b t + qc t^2;
      ell | x, y a unit:   x = y t with ell | t turns Q into y^2 g(t),
                           g = qc + b t + qa t^2;
      ell divides both:    Q(ell x', ell y') = ell^2 Q(x', y'), with ell^2
                           pairs per (x', y') mod ell^(d-2).
    As the unit x runs over (Z/ell^d)*, x^2 f(t) covers the orbit of f(t)
    evenly, so f over every t and g over ell | t carry the weight
    phi(ell^d).  Unrolling the third case gives the depths d = a, a-2, ...,
    whose values ell^(a-d) f and ell^(a-d) g carry ell^(a-d) phi(ell^d):
    the orbit of ell^(a-d) w mod ell^a is ell^(a-d) times that of w mod
    ell^d.  The ell^(a+d) pairs left once d <= 0 have Q = 0.  Every
    intermediate stays below sub^2 + sub, sub = ell^d, so int64 is exact.
    """
    mod = ell ** a
    if kind == "1":
        # Q-coefficient of the 1x1 block: data/2 mod ell^a (data stays even
        # at ell = 2; at odd ell divide by the unit 2)
        if ell == 2:
            if data % 2:
                raise InvariantError("odd 1x1 block at ell = 2")
            qcoef = (data % (2 * mod)) // 2
        else:
            qcoef = data * pow(2, -1, mod) % mod
        x = np.arange(mod, dtype=np.int64)
        yield 1, qcoef * (x * x % mod) % mod
        return
    aa, bb, cc = data
    qa, qb, qc = (aa % (2 * mod)) // 2, bb % mod, (cc % (2 * mod)) // 2
    d = a
    while d > 0:
        sub = ell ** d
        t = np.arange(sub, dtype=np.int64)
        u = t[: sub // ell] * ell
        f = ((qc % sub * t + qb % sub) % sub * t + qa) % sub
        g = ((qa % sub * u + qb % sub) % sub * u + qc) % sub
        yield mod // sub * (sub - sub // ell), mod // sub * np.concatenate([f, g])
        d -= 2
    yield ell ** (a + d), [0]


def _block_counts(kind, data, ell, a):
    """#{x : Q(x) = r} for r in each orbit of _orbits(ell, a), one block.

    The count is constant on each orbit, since Q(u x) = u^2 Q(x), so it is
    the weighted count of the block's values in the orbit over its size.  A
    sum that the size does not divide raises InvariantError.
    """
    labels, _, sizes = _orbits(ell, a)
    total = np.zeros(len(sizes), dtype=np.int64)
    for weight, values in _block_values(kind, data, ell, a):
        total += weight * np.bincount(labels[values], minlength=len(sizes))
    counts, rest = np.divmod(total, sizes)
    if rest.any():
        raise InvariantError("block count is not constant on the unit-square orbits")
    return counts


@lru_cache(maxsize=256)
def _blockwise_factors(L, ell, a):
    """#{v in (Z/ell^a)^rank : Q(v) = r} for r in each orbit of _orbits (cached).

    Each block count is constant on the orbits (_block_counts), and so is
    the count for a sum of blocks: adding a block with counts h is the exact
    contraction new[o3] = sum of T[o3, o1, o2] merged[o1] h[o2] over the
    structure tensor of _orbit_tensor, in Python ints.  No block is
    tabulated over Z/ell^a.  The vector is returned read-only.
    """
    labels, _, sizes = _orbits(ell, a)
    o1, o2, cnt, starts = _orbit_tensor(ell, a)
    merged = np.zeros(len(sizes), dtype=object)
    merged[labels[0]] = 1
    for kind, data in block_diagonalize(L, ell, a + 6):
        h = _block_counts(kind, data, ell, a)
        merged = np.add.reduceat(merged[o1] * h[o2] * cnt, starts)
    merged.flags.writeable = False
    return merged


def count_blockwise(L, ell, m, a):
    """#{v in (Z/ell^a)^rank : Q(v) = m}, via block reduction (any depth)."""
    _check_prime(ell)
    return _blockwise_factors(L, ell, a)[_orbits(ell, a)[0][m % ell ** a]]


def local_density_blockwise(ell, L, m, a):
    return Fraction(count_blockwise(L, ell, m, a), ell ** (a * (L.rank - 1)))


def stable_depth(ell, m):
    """Depth beyond which the rescaled counts stabilize: v_ell(4m) + 1.

    local_density re-verifies by comparing against depth+1, so this is a
    starting point, not a trusted bound."""
    return valuation(m, ell, 0) + (3 if ell == 2 else 1)


def local_density(ell, L, m, check=True):
    """Stabilized local density delta(ell, L, m), exact.

    Uses the blockwise counter at depth stable_depth and, when `check`, also
    verifies agreement one level deeper.
    """
    a = stable_depth(ell, m)
    d = local_density_blockwise(ell, L, m, a)
    if check:
        d2 = local_density_blockwise(ell, L, m, a + 1)
        if d != d2:
            raise ArithmeticError(
                f"density at ell={ell} did not stabilize at depth {a}")
    return d


# ---------------------------------------------------------------------------
# closed-form evaluation (odd p, p not dividing m)

def _unit_form_count(units, c, p):
    """#{x in F_p^k : sum units[i] x_i^2 = c}, for units mod p and c != 0 mod p.

    The Gauss-sum evaluation (Lidl & Niederreiter, Finite Fields, Thms 6.26
    and 6.27), with Delta the product of the units and eta = (./p):
      k odd:   p^(k-1) + p^((k-1)/2) eta((-1)^((k-1)/2) c Delta)
      k even:  p^(k-1) - p^((k-2)/2) eta((-1)^(k/2) Delta)
    """
    k = len(units)
    if k == 0:
        return 0  # the empty sum is 0, never c
    sign = (-1) ** (k // 2) * math.prod(units)
    if k % 2:
        return p ** (k - 1) + p ** (k // 2) * kronecker(sign * c, p)
    return p ** (k - 1) - p ** (k // 2 - 1) * kronecker(sign, p)


def local_density_recursive(p, L, m):
    """delta(p, L, m) for odd p with p not dividing m, in closed form.

    Q is diagonalized over Z_p; variables whose diagonal coefficient is
    divisible by p cannot contribute to a unit value at depth 1, so they are
    dropped with the p^{1-rank} rescaling absorbed, and the k unit variables
    give delta = N / p^(k-1), N the F_p count of _unit_form_count (the
    Gauss-sum evaluation; Bruinier & Kuss, Manuscripta Math. 106, 2001).
    The name stays fixed: the CLI's delta_recursive column and the
    benchmark's spans refer to it.
    """
    if p == 2:
        raise ValueError("the recursion is restricted to odd p")
    if m % p == 0:
        raise ValueError("the recursion requires p not dividing m")
    _check_prime(p)
    diag = p_diagonalize(L, p, 2)
    units = [u % p for u, v in diag if v == 0]
    k = len(units)
    if k == 0:
        return Fraction(0)
    n = _unit_form_count(units, m % p, p)
    delta = Fraction(n, p ** (k - 1))
    if delta > 2 or (k >= 3 and delta > 1 + Fraction(1, p)):
        raise InvariantError(f"density {delta} at p={p} exceeds its bound for unit rank {k}")
    return delta
