"""Local representation densities of quadratic lattices.

Three routes.  The naive count shares no code with the other two, which
both start from the ell-adic Jordan splitting of lattice.jordan_blocks
(Cassels, Rational Quadratic Forms, ch. 8; Conway & Sloane, SPLAG, ch. 15):

  local_density_naive      brute-force count of Q(v) = m mod ell^a over all
                           of (Z/ell^a)^rank (guarded at 10^8 points): the
                           first rank-1 coordinates are fixed one level at a
                           time over a frontier that carries m - Q(prefix)
                           and the partial linear coefficients, and the last
                           coordinate is counted through a table of its
                           values per linear coefficient
  local_density_blockwise  the same count from the Jordan blocks, whose
                           working precision follows v_ell(det), so any
                           nonsingular gram is counted at any depth; used to
                           reach stabilization.  Every block is counted in
                           closed form on the O(a) orbits of Z/ell^a under
                           the unit squares, and the blocks are merged by an
                           exact contraction over those orbits
  local_density_recursive  odd p, p not dividing m: diagonalize over Z_p
                           (p_diagonalize, the odd-p view of the blocks),
                           drop the p-divisible variables, and count the unit
                           part over F_p by its Gauss-sum closed form (Lidl &
                           Niederreiter, Thms 6.26-6.27); the name is kept
                           for the CLI and the benchmark

All values are exact Fractions.
"""

import math
from bisect import bisect_left
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .arith import InvariantError, is_prime, kronecker, valuation
from .lattice import jordan_blocks, p_diagonalize

NAIVE_GUARD = 10 ** 8
NAIVE_CHUNK = 1 << 18  # (row, x) cells per _grid block: frontier children, or (b, x) tests


def _check_prime(ell):
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")


# ---------------------------------------------------------------------------
# naive counter

def _grid(n, mod):
    """Blocks (x, rows) of the n-by-mod grid of (row, x) cells: x a chunk of
    Z/mod and rows a slice of the n rows, at most NAIVE_CHUNK cells each."""
    cols = min(mod, NAIVE_CHUNK)
    step = max(1, NAIVE_CHUNK // cols)
    for c0 in range(0, mod, cols):
        x = np.arange(c0, min(mod, c0 + cols), dtype=np.int64)
        for r0 in range(0, n, step):
            yield x, slice(r0, r0 + step)


def _count_naive_np(qd, G, mod, m):
    """#{v in (Z/mod)^r : Q(v) = m}, counted over every point.

    qd (the diagonal Q-coefficients) and G are int64 arrays reduced mod
    `mod`.  The first k = r-1 coordinates (the prefix) are fixed one level
    at a time over a frontier of rows (t, c_k, c_(k-1), ..., c_i): before
    coordinate i is fixed, t = m - Q(v_0, ..., v_(i-1)) and
    c_l = sum_(j<i) G[j, l] v_j for each coordinate l not yet fixed.  Fixing
    v_i = x takes t to t - qd[i] x^2 - c_i x and c_l to c_l + G[i, l] x,
    each a sum of at most three terms below mod^2 before one reduction, so
    int64 is exact.  Children are expanded a _grid block at a time, so
    memory stays flat.  A full prefix leaves Q(v) = m - t + b x + qd[k] x^2
    for the last coordinate x, b = c_k; the prefixes are grouped by (b, t),
    and _count_last tests each x once per distinct b.
    """
    k = len(qd) - 1

    def prefixes(i, S):
        """Fix coordinates i, ..., k-1 of the rows S; yield the (t, b) rows."""
        if i == k:
            yield S
            return
        for x, rows in _grid(len(S), mod):
            s = S[rows]
            new = np.empty((len(s), len(x), S.shape[1] - 1), dtype=np.int64)
            # written in place: no (rows, x) temporary beside the block
            t = new[:, :, 0]
            np.multiply(s[:, -1:], -x, out=t)
            t += s[:, :1]
            t -= qd[i] * (x * x % mod) % mod
            np.add(s[:, None, 1:-1], x[:, None] * G[i, k:i:-1] % mod, out=new[:, :, 1:])
            new %= mod
            yield from prefixes(i + 1, new.reshape(-1, S.shape[1] - 1))

    count = 0
    for S in prefixes(0, np.array([[m] + [0] * (k + 1)], dtype=np.int64)):
        keys, mult = np.unique(S[:, 1] * mod + S[:, 0], return_counts=True)
        count += _count_last(qd[k], keys, mult, mod)
    return count


def _count_last(qx, keys, mult, mod):
    """sum of mult[i] #{x in Z/mod : qx x^2 + b x = t} over keys[i] = b mod + t.

    keys is sorted and distinct; the (b, x) grid covers only the b that
    occur, a _grid block at a time.  The b are the run starts of the sorted
    keys // mod (np.unique would import numpy.ma).
    """
    bs = keys // mod
    bs = bs[np.concatenate(([True], bs[1:] != bs[:-1]))]
    count = 0
    for x, rows in _grid(len(bs), mod):
        b = bs[rows, None]
        key = (b * mod + (qx * (x * x % mod) % mod + b * x) % mod).ravel()
        pos = np.searchsorted(keys, key)
        # a key past the last target is clipped onto it and cannot match
        count += int(mult[pos[keys.take(pos, mode="clip") == key]].sum())
    return count


def local_density_naive(ell, L, m, a):
    """ell^{a(1-rank)} #{v in (Z/ell^a)^rank : Q(v) = m}, exact.

    A brute-force count over every point: the first rank-1 coordinates are
    fixed one at a time over a frontier of prefixes, and the last one is
    counted through a table of its values for each linear coefficient that
    occurs.
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
#
# Q(u x) = u^2 Q(x), so every count below is constant on the orbits of
# Z/ell^a under multiplication by the unit squares.  r = ell^v w, w a unit
# mod ell^k, k = a - v, has the orbit ell^v times the class of w modulo the
# unit squares: its quadratic character at odd ell, and w mod 2^min(k, 3) at
# ell = 2, one of c(k) classes; 0 is an orbit alone.  The orbits are labelled
# in the order of the key 4 v + class, so 0 (v = a) comes last.  Every count
# is a closed form on the orbits, and no residue list mod ell^a is built.

def _unit_class(ell, k, w):
    """The unit-square class of the unit w mod ell^k, k >= 1."""
    if ell == 2:
        return w % 2 ** min(k, 3) // 2
    return int(pow(w, (ell - 1) // 2, ell) != 1)


@lru_cache(maxsize=64)
def _orbits(ell, a):
    """The orbits of Z/ell^a under the unit squares, in label order (cached):
    (v, class, least representative, size) for each.

    The orbit (v, c) is ell^v times the phi(ell^k)/c(k) units of class c
    mod ell^k, k = a - v, so its least element is ell^v times the least
    unit of class c: 2c + 1 at ell = 2, and 1 or the least nonresidue.
    """
    orbits = []
    for v in range(a):
        k = a - v
        n = 2 ** min(k - 1, 2) if ell == 2 else 2  # c(k)
        least = [2 * c + 1 for c in range(n)] if ell == 2 else \
            [1, next(w for w in range(2, ell) if _unit_class(ell, k, w))]
        size = (ell - 1) * ell ** (k - 1) // n
        orbits += [(v, c, ell ** v * least[c], size) for c in range(n)]
    orbits.append((a, 0, 0, 1))
    return tuple(orbits)


def _orbit_of(ell, a, r):
    """The label of the orbit of r mod ell^a: the orbits are sorted by (v, class)."""
    r %= ell ** a
    v = valuation(r, ell, a)
    c = _unit_class(ell, a - v, r // ell ** v) if v < a else 0
    return bisect_left(_orbits(ell, a), (v, c))


@lru_cache(maxsize=64)
def _orbit_tensor(ell, a):
    """Structure tensor of the orbits of _orbits(ell, a) (cached).

    Returns (o1, o2, cnt, starts): the nonzero entries
    cnt = T[o3, o1, o2] = #{x in o1 : z - x in o2}, z the representative of
    o3, ordered by o3 with the entries of o3 from starts[o3] on.  T does not
    depend on z within o3: x -> u^2 x maps the x counted for z onto those
    counted for u^2 z.  With v1, v3 the valuations of o1, o3:
      v1, v3 >= 1   dividing by ell maps these orbits one to one onto those
                    of depth a - 1, so the entries are T at depth a - 1 with
                    every label moved past the unit orbits of depth a;
      v1 != v3      z - x has valuation min(v1, v3) and a class fixed by the
                    classes of o1 and o3: all |o1| x land in one orbit;
      v1 = v3 = 0   with D = 1 class digit at odd ell and 3 at ell = 2, the
                    orbit of z - x of valuation below D is fixed by x mod
                    ell^B, B = min(a, 2D - 1), and those x are counted over
                    x mod ell^B; a valuation of D or more means x = z mod
                    ell^D, so o1 = o3, and then z - x runs once over every
                    element of valuation D or more (0 included).
    Each (o3, o1) sums to |o1| over o2, or InvariantError.
    """
    if a == 0:  # Z/1 = {0}, and 0 - 0 = 0
        zero = np.zeros(1, dtype=np.intp)
        return zero, zero, np.ones(1, dtype=object), zero
    orbits = _orbits(ell, a)
    p1, p2, pcnt, pstarts = _orbit_tensor(ell, a - 1)
    units = len(orbits) - len(pstarts)
    digits = 3 if ell == 2 else 1
    mod = ell ** min(a, 2 * digits - 1)
    new = []  # (o3, o1, o2, count), for o1 or o3 a unit orbit
    for o3, (_, _, z, _) in enumerate(orbits):
        for o1 in range(len(orbits) if o3 < units else units):
            _, c1, x1, size = orbits[o1]
            row = {}  # o2 -> count
            if o3 >= units or o1 >= units:
                row[_orbit_of(ell, a, z - x1)] = size
            else:
                for x in range(1, mod):
                    y = (z - x) % mod
                    if x % ell and _unit_class(ell, a, x) == c1 and y and \
                            valuation(y, ell, 0) < digits:
                        o2 = _orbit_of(ell, a, y)
                        row[o2] = row.get(o2, 0) + ell ** a // mod
                if o1 == o3:
                    row.update((o2, size2) for o2, (v2, _, _, size2) in enumerate(orbits)
                               if v2 >= min(a, digits))
            if sum(row.values()) != size:
                raise InvariantError("a row of the orbit tensor does not sum to its orbit's size")
            new += [(o3, o1, o2, c) for o2, c in row.items()]
    n3, n1, n2, ncnt = zip(*new)
    shifted = np.repeat(np.arange(len(pstarts)), np.diff(pstarts, append=len(pcnt)))
    o3 = np.concatenate((shifted + units, n3))
    order = np.argsort(o3, kind="stable")
    return (np.concatenate((p1 + units, n1))[order], np.concatenate((p2 + units, n2))[order],
            np.concatenate((pcnt, np.array(ncnt, dtype=object)))[order],
            np.searchsorted(o3[order], np.arange(len(orbits))))


def _block_counts(kind, data, ell, a):
    """#{x in (Z/ell^a)^dim : Q(x) = r} for r in each orbit of _orbits(ell, a),
    for one block of lattice.jordan_blocks, in closed form (Python ints).

    A 1x1 block ("1", g) has Q = q x^2, q = g/2 = ell^s u mod ell^a: the
    phi(ell^(a-j)) x of valuation j take Q into the orbit of ell^(s+2j) u,
    and cover it evenly.

    A 2x2 block ("2", (A, B, C)) comes only at ell = 2, with v = v_2(B) and
    2^(v+1) dividing A and C.  Q is Z_2-equivalent to 2^v xy when
    (A/2^(v+1)) (C/2^(v+1)) is even, and to 2^v (x^2 + xy + y^2) otherwise.
    With k = a - v, each element of an orbit of valuation v + t, 0 <= t < k,
    is taken by 4^v (t + 1) 2^(k-1) pairs in the first case: each x = 2^i x'
    with i <= t leaves 2^i values of y.  In the second it is taken by
    4^v 3 2^(k-1) pairs at even t and none at odd t: the norm maps the units
    of the unramified quadratic extension onto the units, fibres of equal
    size.

    The zero orbit takes what is left of ell^(a dim), dim = int(kind);
    InvariantError if that is negative.
    """
    orbits = _orbits(ell, a)
    counts = [0] * len(orbits)
    if kind == "1":
        # the Q-coefficient g/2 mod ell^a (g is even at ell = 2; at odd ell
        # divide by the unit 2)
        if ell == 2:
            if data % 2:
                raise InvariantError("odd 1x1 block at ell = 2")
            q = data % 2 ** (a + 1) // 2
        else:
            q = data * pow(2, -1, ell ** a) % ell ** a
        s = valuation(q, ell, a)
        for j in range((a - s + 1) // 2):
            o = _orbit_of(ell, a, ell ** (s + 2 * j) * (q // ell ** s))
            counts[o] = (ell - 1) * ell ** (a - j - 1) // orbits[o][3]
    else:
        A, B, C = data
        v = valuation(B, ell, a)
        if ell != 2 or A % 2 ** (v + 1) or C % 2 ** (v + 1):
            raise InvariantError("a 2x2 block is not 2^v times a unimodular form")
        hyperbolic = (A >> (v + 1)) * (C >> (v + 1)) % 2 == 0
        for o, (w, _, _, _) in enumerate(orbits[:-1]):
            t = w - v
            if t >= 0 and (hyperbolic or t % 2 == 0):
                counts[o] = 4 ** v * (t + 1 if hyperbolic else 3) * 2 ** (a - v - 1)
    counts[-1] = ell ** (a * int(kind)) - sum(c * o[3] for c, o in zip(counts, orbits))
    if counts[-1] < 0:
        raise InvariantError("a block counts more points than (Z/ell^a)^dim holds")
    return np.array(counts, dtype=object)


@lru_cache(maxsize=256)
def _blockwise_factors(L, ell, a):
    """#{v in (Z/ell^a)^rank : Q(v) = r} for r in each orbit of _orbits (cached).

    Each block count is constant on the orbits (_block_counts), and so is
    the count for a sum of blocks: adding a block with counts h is the exact
    contraction new[o3] = sum of T[o3, o1, o2] merged[o1] h[o2] over the
    structure tensor of _orbit_tensor, in Python ints.  The vector is
    returned read-only.
    """
    o1, o2, cnt, starts = _orbit_tensor(ell, a)
    merged = np.zeros(len(starts), dtype=object)
    merged[-1] = 1  # the empty sum is 0
    for kind, data in jordan_blocks(L, ell, a):
        h = _block_counts(kind, data, ell, a)
        merged = np.add.reduceat(merged[o1] * h[o2] * cnt, starts)
    merged.flags.writeable = False
    return merged


def count_blockwise(L, ell, m, a):
    """#{v in (Z/ell^a)^rank : Q(v) = m}, via block reduction (any depth)."""
    _check_prime(ell)
    return _blockwise_factors(L, ell, a)[_orbit_of(ell, a, m)]


def local_density_blockwise(ell, L, m, a):
    return Fraction(count_blockwise(L, ell, m, a), ell ** (a * (L.rank - 1)))


def stable_depth(ell, m):
    """Depth beyond which the rescaled counts stabilize: v_ell(4m) + 1.

    local_density re-verifies by comparing against depth+1, so this is a
    starting point, not a trusted bound."""
    return valuation(m, ell, 0) + (3 if ell == 2 else 1)


def local_density(ell, L, m):
    """Stabilized local density delta(ell, L, m), exact.

    Uses the blockwise counter at depth stable_depth and verifies agreement
    one level deeper; InvariantError if the two differ.
    """
    a = stable_depth(ell, m)
    d = local_density_blockwise(ell, L, m, a)
    if d != local_density_blockwise(ell, L, m, a + 1):
        raise InvariantError(f"density at ell={ell} did not stabilize at depth {a}")
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
