"""Truncated two-variable arithmetic: power series in t (degree <= T_max)
whose coefficients are truncated Witt vectors over an unramified extension.

A coefficient is stored as (pval, unit-vector): the value p^pval * u(x) with
u a basis vector mod p^R, renormalized so u is not divisible by p.  Series
are dense int64 arrays.

Every product and sum goes through one whole-array kernel (`_block_mul`,
`_fold`): the nonzero terms of both operands are gathered, joined on the
inner index of the (matrix) product, multiplied in bulk a bounded chunk of
term pairs at a time, and folded into the target coefficients.  Adding terms
one at a time with the relative-precision rule below gives, in any order,
(v_min, sum_i u_i p^(v_i - v_min) mod p^R) with v_min the smallest valuation;
the fold computes exactly that, so it is bit-identical to the sequential
accumulation.

Addition of coefficients with far-apart valuations drops the smaller term
once the gap reaches R; this is the truncation semantics (relative precision
R everywhere).
"""

from dataclasses import dataclass

import numpy as np

from .padic import PINF, UnramifiedRing

CHUNK = 1 << 10  # term pairs multiplied and folded at once by _block_mul


@dataclass(frozen=True, eq=False)
class SeriesRing:
    ring: UnramifiedRing
    tmax: int

    def zero_series(self):
        d = self.ring.deg
        pv = np.full(self.tmax + 1, PINF, dtype=np.int64)
        un = np.zeros((self.tmax + 1, d), dtype=np.int64)
        return TSeries(self, pv, un)

    def from_terms(self, terms):
        """terms: iterable of (t_exp, coeff) with coeff a ring element tuple
        or plain int; later terms add."""
        s = self.zero_series()
        for texp, coeff in terms:
            if texp > self.tmax:
                continue
            if isinstance(coeff, int):
                coeff = self.ring.from_int(coeff)
            s = s.add(self.monomial(texp, coeff))
        return s

    def monomial(self, texp, coeff, pshift=0):
        s = self.zero_series()
        if texp > self.tmax:
            return s
        if isinstance(coeff, int):
            coeff = self.ring.from_int(coeff)
        v = self.ring.val(coeff)
        if v >= PINF:
            return s
        M = self.ring.modulus
        unit = tuple((c // self.ring.p ** v) % M for c in coeff)
        s.pval[texp] = v + pshift
        s.unit[texp] = unit
        return s


class TSeries:
    __slots__ = ("sr", "pval", "unit")

    def __init__(self, sr, pval, unit):
        self.sr = sr
        self.pval = pval
        self.unit = unit

    def copy(self):
        return TSeries(self.sr, self.pval.copy(), self.unit.copy())

    def is_zero(self):
        return bool(np.all(self.pval >= PINF))

    def t_valuation(self):
        nz = np.nonzero(self.pval < PINF)[0]
        return int(nz[0]) if nz.size else None

    def coeff(self, texp):
        return int(self.pval[texp]), tuple(int(x) for x in self.unit[texp])

    def terms(self):
        for t in np.nonzero(self.pval < PINF)[0]:
            yield int(t), int(self.pval[t]), tuple(int(x) for x in self.unit[t])

    def add(self, other):
        out = self.copy()
        t = np.flatnonzero(other.pval < PINF)
        _fold(out.pval, out.unit, t, other.pval[t], other.unit[t], self.sr.ring)
        _renormalize(out.pval, out.unit, self.sr.ring.p)
        return out

    def neg(self):
        out = self.copy()
        M = self.sr.ring.modulus
        nz = self.pval < PINF
        out.unit[nz] = (-out.unit[nz]) % M
        return out

    def sub(self, other):
        return self.add(other.neg())

    def pshift(self, k):
        """Multiply by p^k (k may be negative)."""
        out = self.copy()
        nz = out.pval < PINF
        out.pval[nz] += k
        return out

    def scale(self, coeff):
        """Multiply by a ring element."""
        if isinstance(coeff, int):
            coeff = self.sr.ring.from_int(coeff)
        v = self.sr.ring.val(coeff)
        if v >= PINF:
            return self.sr.zero_series()
        mono = self.sr.monomial(0, coeff)
        return self.mul(mono)

    def mul(self, other):
        return series_block_mul(self.sr, [[self]], [[other]])[0][0]

    def sigma_twist(self, k=1):
        """sigma on coefficients and t -> t^p, applied k times."""
        sr = self.sr
        ring = sr.ring
        out = self
        for _ in range(k):
            new = sr.zero_series()
            for t in np.nonzero(out.pval < PINF)[0]:
                t2 = int(t) * ring.p
                if t2 > sr.tmax:
                    continue
                new.pval[t2] = out.pval[t]
                new.unit[t2] = ring.sigma(tuple(int(x) for x in out.unit[t]))
            out = new
        return out

    def __repr__(self):
        parts = []
        for t, pv, un in list(self.terms())[:6]:
            parts.append(f"t^{t}*p^{pv}*{un}")
        return "TSeries(" + " + ".join(parts) + (" + ..." if len(list(self.terms())) > 6 else "") + ")"


# ---------------------------------------------------------------------------
# the whole-array kernel

def _terms(grid):
    """Nonzero terms of a grid (list of lists) of series as arrays
    (cell, t, pval, unit), cells numbered row-major."""
    flat = [s for row in grid for s in row]
    nz = [np.flatnonzero(s.pval < PINF) for s in flat]
    t = np.concatenate(nz)
    cell = np.repeat(np.arange(len(flat)), [i.size for i in nz])
    pv = np.empty(t.size, dtype=np.int64)
    un = np.empty((t.size, flat[0].unit.shape[1]), dtype=np.int64)
    stop = 0
    for s, i in zip(flat, nz):
        start, stop = stop, stop + i.size
        pv[start:stop] = s.pval[i]
        un[start:stop] = s.unit[i]
    return cell, t, pv, un


def _unit_products(ua, ub, ring):
    """Row-wise products of unit vectors in the x-power basis, mod p^R.

    make_ring guarantees deg * (p^R)^2 < 2^62, so each of the d products
    summed into one coefficient, and each reduction dot product, fits int64."""
    d, mod = ring.deg, ring.modulus
    tmp = np.zeros((len(ua), 2 * d - 1), dtype=np.int64)
    for i in range(d):
        tmp[:, i:i + d] += ua[:, i, None] * ub
    tmp %= mod
    if d == 1:
        return tmp
    _, red = ring.as_matrix_int64()
    return (tmp[:, :d] + tmp[:, d:] @ red) % mod


def _strip_p(u, v, p):
    """Divide each row of u (no row zero) by the largest power of p dividing all
    its entries, adding the exponent to v; both in place."""
    rows = np.arange(len(u))
    while rows.size:
        rows = rows[~(u[rows] % p).any(axis=1)]
        u[rows] //= p
        v[rows] += 1


def _fold(pv, un, keys, tv, tu, ring):
    """Add the terms p^tv[i] * tu[i] to the coefficients (pv, un)[keys[i]].

    Each hit coefficient becomes (v_min, sum of u * p^(v - v_min) mod p^R)
    over its terms and what it already held; a term R or more above v_min
    adds nothing.  Products are reduced before summing, so a sum of fewer
    than 2^31 terms stays below 2^62."""
    if not keys.size:
        return
    p, R, mod = ring.p, ring.R, ring.modulus
    order = np.argsort(keys, kind="stable")
    keys, tv, tu = keys[order], tv[order], tu[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    cells = keys[first]
    held = pv[cells]
    vmin = np.minimum(np.minimum.reduceat(tv, first), held)
    pw = np.array([p ** e for e in range(R)] + [0], dtype=np.int64)
    gap = np.minimum(tv - np.repeat(vmin, np.diff(np.r_[first, keys.size])), R)
    total = np.add.reduceat(tu * pw[gap, None] % mod, first, axis=0)
    total += un[cells] * pw[np.minimum(held - vmin, R), None] % mod
    un[cells] = total % mod
    pv[cells] = vmin


def _renormalize(pv, un, p):
    """Strip powers of p from every nonzero coefficient into its valuation;
    a coefficient whose unit cancelled to zero becomes zero."""
    nz = np.flatnonzero(pv < PINF)
    live = un[nz].any(axis=1)
    pv[nz[~live]] = PINF
    nz = nz[live]
    u, v = un[nz], pv[nz]
    _strip_p(u, v, p)
    un[nz], pv[nz] = u, v


def _block_mul(sr, A, B, chunk=CHUNK):
    """Product of grids of series A (n x k) and B (k x m) as a pval block of
    shape (n, m, T+1) and a unit block of shape (n, m, T+1, d).

    Term pairs are enumerated from the nonzero terms of A, chunk pairs at
    a time, against the terms of B with the same inner index and a t-degree
    that keeps the sum within T_max."""
    ring = sr.ring
    n, k, m = len(A), len(B), len(B[0])
    T1 = sr.tmax + 1
    pv = np.full(n * m * T1, PINF, dtype=np.int64)
    un = np.zeros((n * m * T1, ring.deg), dtype=np.int64)
    acell, at, av, au = _terms(A)
    bcell, bt, bv, bu = _terms(B)
    bkey = bcell // m * T1 + bt  # (inner index, t): B's terms are joined in this order
    border = np.argsort(bkey, kind="stable")
    bkey = bkey[border]
    ai, al = acell // k, acell % k
    lo = np.searchsorted(bkey, al * T1)
    cnt = np.searchsorted(bkey, al * T1 + sr.tmax - at, side="right") - lo
    ends = np.cumsum(cnt)
    start = 0
    while start < cnt.size:
        base = ends[start] - cnt[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + chunk, side="right")))
        c = cnt[start:stop]
        npairs = int(ends[stop - 1] - base)
        ia = np.repeat(np.arange(start, stop), c)
        ib = border[np.repeat(lo[start:stop] - (ends[start:stop] - c - base), c)
                    + np.arange(npairs)]
        start = stop
        tu = _unit_products(au[ia], bu[ib], ring)
        keep = tu.any(axis=1)
        ia, ib, tu = ia[keep], ib[keep], tu[keep]
        tv = av[ia] + bv[ib]
        _strip_p(tu, tv, ring.p)
        keys = (ai[ia] * m + bcell[ib] % m) * T1 + at[ia] + bt[ib]
        _fold(pv, un, keys, tv, tu, ring)
    _renormalize(pv, un, ring.p)
    return pv.reshape(n, m, T1), un.reshape(n, m, T1, ring.deg)


def _grid(sr, pv, un):
    """Series views into the blocks returned by _block_mul."""
    return [[TSeries(sr, pv[i, j], un[i, j]) for j in range(pv.shape[1])]
            for i in range(pv.shape[0])]


# ---------------------------------------------------------------------------
# matrices of series

class TSeriesMatrix:
    def __init__(self, sr, entries):
        self.sr = sr
        self.entries = entries  # list of lists of TSeries
        self.dim = len(entries)

    @staticmethod
    def zero(sr, dim):
        return TSeriesMatrix(sr, [[sr.zero_series() for _ in range(dim)]
                                  for _ in range(dim)])

    @staticmethod
    def identity(sr, dim):
        M = TSeriesMatrix.zero(sr, dim)
        for i in range(dim):
            M.entries[i][i] = sr.monomial(0, 1)
        return M

    def copy(self):
        return TSeriesMatrix(self.sr, [[e.copy() for e in row] for row in self.entries])

    def add(self, other):
        return TSeriesMatrix(self.sr, [[a.add(b) for a, b in zip(r1, r2)]
                                       for r1, r2 in zip(self.entries, other.entries)])

    def sub(self, other):
        return TSeriesMatrix(self.sr, [[a.sub(b) for a, b in zip(r1, r2)]
                                       for r1, r2 in zip(self.entries, other.entries)])

    def mul(self, other):
        return TSeriesMatrix(self.sr, series_block_mul(self.sr, self.entries, other.entries))

    def sigma_twist(self, k=1):
        return TSeriesMatrix(self.sr, [[e.sigma_twist(k) for e in row]
                                       for row in self.entries])

    def mul_vector(self, vec):
        """vec: list of TSeries; returns list of TSeries."""
        return [row[0] for row in series_block_mul(self.sr, self.entries,
                                                   [[v] for v in vec])]

    def pshift(self, k):
        return TSeriesMatrix(self.sr, [[e.pshift(k) for e in row] for row in self.entries])

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def min_t_valuation(self):
        vals = [e.t_valuation() for row in self.entries for e in row]
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None

    def block(self, rows, cols):
        return [[self.entries[i][j].copy() for j in cols] for i in rows]


def series_block_mul(sr, A, B):
    """Product of rectangular blocks (lists of lists of TSeries); the
    entries are views into one pval and one unit block."""
    return _grid(sr, *_block_mul(sr, A, B))


def series_block_sigma(block_, k=1):
    return [[e.sigma_twist(k) for e in row] for row in block_]
