"""Local representation densities of quadratic lattices.

Three routes, kept deliberately independent:

  local_density_naive      brute-force count of Q(v) = m mod ell^a over all
                           of (Z/ell^a)^rank (guarded at 10^8 points)
  local_density_blockwise  the same count via an ell-adic block
                           diagonalization and a convolution over Z/ell^a;
                           scales to any depth, used to reach stabilization
                           at ell = 2
  local_density_recursive  odd p, p not dividing m: diagonalize, drop the
                           p-divisible variables, and resolve the unit part
                           with the hyperbolic-splitting recursion
                           delta_k = (1 - 1/p) + delta_{k-2}/p

All values are exact Fractions.
"""

import itertools
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .arith import InvariantError, is_prime
from .intmat import fp_row_reduce
from .lattice import p_diagonalize

NAIVE_GUARD = 10 ** 8
CHUNK = 1 << 16  # histogram cells filled at once by _block_hist


def _check_prime(ell):
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")


# ---------------------------------------------------------------------------
# naive counter

def _count_naive_np(qdiag, gram, mod, m, total):
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


def local_density_naive(ell, L, m, a):
    """ell^{a(1-rank)} #{v in (Z/ell^a)^rank : Q(v) = m}, exact.

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
    qdiag = [L.gram[i][i] // 2 for i in range(L.rank)]
    # reduce everything mod ell^a up front so the int64 kernel is safe
    qd = np.array([x % mod for x in qdiag], dtype=np.int64)
    G = np.array([[L.gram[i][j] % mod for j in range(L.rank)] for i in range(L.rank)],
                 dtype=np.int64)
    n = _count_naive_np(qd, G, mod, m % mod, total)
    return Fraction(n, ell ** (a * (L.rank - 1)))


# ---------------------------------------------------------------------------
# blockwise counter

def _v_ell(x, ell, cap):
    if x == 0:
        return cap
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


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
        vmin, imin, jmin = min((_v_ell(G[i][j], ell, work_exp), i, j)
                               for i in idx for j in idx)
        if vmin >= work_exp:
            raise ArithmeticError("working precision exhausted in block reduction")
        # Q-values on the diagonal are G[ii]/2; at odd ell a 1x1 pivot works
        # whenever some diagonal reaches the minimum, and one always can be
        # produced by e_i <- e_i + e_j; at ell = 2 that move fails and the
        # 2x2 block is kept whole.
        diag = [i for i in idx if _v_ell(G[i][i], ell, work_exp) <= (vmin if ell > 2 else vmin)]
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
            pv = _v_ell(piv, ell, work_exp)
            uinv = pow(piv // ell ** pv, -1, M)
            for r_ in idx:
                if r_ == k:
                    continue
                if _v_ell(G[r_][k], ell, work_exp) < pv:
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
            dv = _v_ell(det, ell, work_exp)
            if dv != 2 * vmin:
                raise InvariantError("2x2 pivot block is not ell^v times a unimodular block")
            dinv = pow(det // ell ** dv, -1, M)
            for r_ in idx:
                if r_ in (i, j):
                    continue
                gi, gj = G[r_][i], G[r_][j]
                x = gi * c - gj * b
                y = -gi * b + gj * a
                if _v_ell(x, ell, work_exp * 3) < dv or _v_ell(y, ell, work_exp * 3) < dv:
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


def _block_hist(kind, data, ell, a):
    """Histogram of Q over (Z/ell^a)^k for one block, as an int64 array.

    hist[r] = #{x : Q(x) = r mod ell^a} for a 1x1 block ("1", g), Q = g x^2/2,
    or a 2x2 block ("2", (a, b, c)), Q = (a x^2 + 2 b x y + c y^2)/2.  Each
    value is formed from residues below mod, so every intermediate stays
    below mod^2 + 2 mod and int64 is exact for any histogram that fits in
    memory; the 2x2 grid is filled CHUNK cells (at least one row) at a time.
    """
    mod = ell ** a
    x = np.arange(mod, dtype=np.int64)
    sq = x * x % mod
    if kind == "1":
        # Q-coefficient of the 1x1 block: data/2 mod ell^a (data stays even
        # at ell = 2; at odd ell divide by the unit 2)
        if ell == 2:
            if data % 2:
                raise InvariantError("odd 1x1 block at ell = 2")
            qcoef = (data % (2 * mod)) // 2
        else:
            qcoef = data * pow(2, -1, mod) % mod
        return np.bincount(qcoef * sq % mod, minlength=mod)
    aa, bb, cc = data
    qa, qc = (aa % (2 * mod)) // 2, (cc % (2 * mod)) // 2
    base = qa * sq % mod
    lin = bb % mod * x % mod
    qy = qc * sq % mod
    hist = np.zeros(mod, dtype=np.int64)
    rows = max(1, CHUNK // mod)
    for start in range(0, mod, rows):
        sl = slice(start, start + rows)
        q = (lin[sl, None] * x + (base[sl, None] + qy)) % mod
        hist += np.bincount(q.ravel(), minlength=mod)
    return hist


def _cyclic_convolve_i64(x, y, mod):
    full = np.convolve(x, y)
    out = full[:mod].copy()
    out[: full.shape[0] - mod] += full[mod:]
    return out


@lru_cache(maxsize=256)
def _blockwise_factors(L, ell, a):
    """Partially merged per-block count histograms at depth a (cached).

    Factors are merged by int64 cyclic convolution while the exact entry
    bound (product of factor sums) allows; leftovers stay as big-int lists.
    """
    mod = ell ** a
    blocks = block_diagonalize(L, ell, a + 6)
    factors = []
    for kind, data in blocks:
        hist = _block_hist(kind, data, ell, a)
        factors.append((hist, mod if kind == "1" else mod * mod))
    factors.sort(key=lambda t: t[1])
    merged = []
    cur, cur_sum = np.zeros(mod, dtype=np.int64), 1
    cur[0] = 1
    for hist, s in factors:
        if cur_sum * s < (1 << 62):
            cur = _cyclic_convolve_i64(cur, hist, mod)
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
    return tuple(merged)


def count_blockwise(L, ell, m, a):
    """#{v in (Z/ell^a)^rank : Q(v) = m}, via block reduction (any depth)."""
    _check_prime(ell)
    mod = ell ** a
    merged = _blockwise_factors(L, ell, a)
    target = m % mod
    if len(merged) == 1:
        return merged[0][target]
    aa, b = merged
    return sum(aa[u] * b[(target - u) % mod] for u in range(mod) if aa[u])


def local_density_blockwise(ell, L, m, a):
    return Fraction(count_blockwise(L, ell, m, a), ell ** (a * (L.rank - 1)))


def stable_depth(ell, m):
    """Depth beyond which the rescaled counts stabilize: v_ell(4m) + 1.

    local_density re-verifies by comparing against depth+1, so this is a
    starting point, not a trusted bound."""
    v = 0
    mm = abs(m)
    while mm and mm % ell == 0:
        mm //= ell
        v += 1
    return v + (3 if ell == 2 else 1)


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
# recursive evaluation (odd p, p not dividing m)

def _fp_diag_count(units, c, p):
    """#{x in F_p^k : sum units[i] x_i^2 = c}, by the hyperbolic recursion.

    For k >= 3 the form is isotropic: split off xy and recurse through
    N_k = (p-1) p^{k-2} + p N_{k-2}; ranks 1 and 2 are counted directly.
    """
    k = len(units)
    if k == 0:
        return 1 if c % p == 0 else 0
    if k <= 2:
        count = 0
        for v in itertools.product(range(p), repeat=k):
            if sum(u * x * x for u, x in zip(units, v)) % p == c % p:
                count += 1
        return count
    # find an isotropic vector of the diagonal form (exists for k >= 3)
    iso = _find_isotropic(units, p)
    # complete to a hyperbolic pair and restrict to the orthogonal complement
    rest = _split_off_hyperbolic(units, iso, p)
    return (p - 1) * p ** (k - 2) + p * _fp_diag_count_gram(rest, c, p)


def _fp_diag_count_gram(gram, c, p):
    """Same count for a symmetric F_p gram matrix (Q(v) = v^T gram v / ...).

    Here gram stores the *quadratic* form coefficients: Q = sum gram[i][i] x_i^2
    + sum_{i<j} 2 gram[i][j] x_i x_j, i.e. the polarization matrix.
    """
    k = len(gram)
    if k == 0:
        return 1 if c % p == 0 else 0
    if k <= 2:
        count = 0
        for v in itertools.product(range(p), repeat=k):
            q = sum(gram[i][j] * v[i] * v[j] for i in range(k) for j in range(k))
            if q % p == c % p:
                count += 1
        return count
    units2, zeros = _diagonalize_fp(gram, p)
    if zeros:
        raise InvariantError("complement of a hyperbolic plane must stay nondegenerate")
    return _fp_diag_count(units2, c, p)


def _find_isotropic(units, p):
    k = len(units)
    # search rank-3 subforms first: u1 x^2 + u2 y^2 + u3 z^2 = 0 always solvable
    for v in itertools.product(range(p), repeat=min(k, 3)):
        if not any(v):
            continue
        if sum(u * x * x for u, x in zip(units, v)) % p == 0:
            return list(v) + [0] * (k - len(v))
    raise InvariantError("no isotropic vector found; form should be isotropic")


def _split_off_hyperbolic(units, iso, p):
    """Quadratic-form matrix of the complement of the hyperbolic plane
    spanned by iso and a partner vector."""
    k = len(units)
    B = [[(2 * units[i] if i == j else 0) % p for j in range(k)] for i in range(k)]

    def bil(x, y):
        return sum(B[i][j] * x[i] * y[j] for i in range(k) for j in range(k)) % p

    # partner u with B(iso, u) != 0
    for j in range(k):
        e = [0] * k
        e[j] = 1
        if bil(iso, e) % p:
            u = e
            break
    # standard hyperbolic pair: B(iso,u) = 1 and Q(u) = 0
    s = pow(bil(iso, u), -1, p)
    u = [x * s % p for x in u]
    qu = sum(units[i] * u[i] * u[i] for i in range(k)) % p
    u = [(u[t] - qu * iso[t]) % p for t in range(k)]
    basis = []
    for j in range(k):
        e = [0] * k
        e[j] = 1
        # project away the hyperbolic pair components
        ci = bil(e, u) % p
        cu = bil(e, iso) % p
        w = [(e[t] - ci * iso[t] - cu * u[t]) % p for t in range(k)]
        if any(w):
            basis.append(w)
    # reduce to an independent set over F_p
    indep = []
    mat = []
    for w in basis:
        cand = mat + [w]
        if len(fp_row_reduce(cand, p)[1]) > len(mat):
            mat.append(w)
            indep.append(w)
        if len(indep) == k - 2:
            break
    gram = [[sum(B[s_][t] * x[s_] * y[t] for s_ in range(k) for t in range(k)) % p
             for y in indep] for x in indep]
    # back to quadratic-form coefficients: Q(v) = bil(v,v)/2
    inv2 = pow(2, -1, p)
    return [[g * inv2 % p for g in row] for row in gram]


def _diagonalize_fp(gram, p):
    """Diagonalize a quadratic-form matrix over F_p; returns (units, zeros)."""
    k = len(gram)
    A = [[(2 * gram[i][j]) % p for j in range(k)] for i in range(k)]  # bilinear
    idx = list(range(k))
    units, zeros = [], 0
    while idx:
        kk = next((i for i in idx if A[i][i] % p), None)
        if kk is None:
            od = next(((i, j) for i in idx for j in idx if A[i][j] % p), None)
            if od is None:
                zeros += len(idx)
                break
            i, j = od
            for c in idx:
                A[i][c] = (A[i][c] + A[j][c]) % p
            for c in idx:
                A[c][i] = (A[c][i] + A[c][j]) % p
            kk = i
        piv = A[kk][kk]
        inv = pow(piv, -1, p)
        for i in idx:
            if i == kk:
                continue
            mult = A[i][kk] * inv % p
            for j in idx:
                A[i][j] = (A[i][j] - mult * A[kk][j]) % p
        for i in idx:
            if i != kk:
                A[i][kk] = A[kk][i] = 0
        units.append(piv * pow(2, -1, p) % p)
        idx.remove(kk)
    return units, zeros


def local_density_recursive(p, L, m):
    """delta(p, L, m) for odd p with p not dividing m, by diagonal reduction.

    Variables whose diagonal coefficient is divisible by p cannot contribute
    to a unit value at depth 1; they are dropped with the p^{1-rank} rescaling
    absorbed, and the unit-rank part is counted by the splitting recursion.
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
    n = _fp_diag_count(units, m % p, p)
    delta = Fraction(n, p ** (k - 1))
    if delta > 2 or (k >= 3 and delta > 1 + Fraction(1, p)):
        raise InvariantError(f"density {delta} at p={p} exceeds its bound for unit rank {k}")
    return delta
