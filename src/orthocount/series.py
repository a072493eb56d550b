"""Truncated two-variable arithmetic: power series in t (degree <= T_max)
whose coefficients are truncated Witt vectors over an unramified extension.

A coefficient is stored as (pval, unit-vector): the value p^pval * u(x) with
u a basis vector mod p^R, renormalized so u is not divisible by p.  Series
are two dense int64 blocks, pval (..., T+1) and unit (..., T+1, d): a
`TSeries` has no leading axes, a `TSeriesMatrix` two (rows, cols).  The
elementwise operations are written once, on blocks of any leading shape.

Every product and sum goes through one whole-array kernel (`_block_mul`,
`_fold`).  A product joins its operands once: every pair of nonzero terms
with the same inner index of the (matrix) product is enumerated at once as
integer arrays, and the pairs are sorted by output coefficient once.  The
fold takes each coefficient's least valuation v_min, scales A's unit by
p^(v - v_min) and multiplies it by the d x d multiplication matrix of B's
term, a bounded chunk of pairs at a time, and writes each coefficient once.
The matrices come from the ring's structure tensor S, S[j] the matrix of
x^j: M(u) = sum_j u_j S[j].  A sum is the same fold without matrices.
Adding terms one at a time with the relative-precision rule below gives, in
any order, (v_min, sum_i u_i p^(v_i - v_min) mod p^R); the fold computes
exactly that, so it is bit-identical to the sequential accumulation, also
when it starts from coefficients already held: C + A B is one pass.

Stored units are p-free: `monomial` strips p, `_renormalize` ends every sum
and product on the coefficients the fold wrote (the others were p-free
already), and negation, p-shifts and the twist (sigma is a ring
automorphism) keep a unit a unit.  The residue ring W/p = F_{p^d} is a field
(make_ring checks that f is irreducible mod p), so the product of two such
units is again a nonzero p-free unit, and no term pair of a product needs
its factors of p moved into the valuation.  `_block_mul` checks this
invariant on the units of both operands (and so of the accumulator of
`mul_one_plus`, which is its left operand) and raises InvariantError on a
p-divisible one, also under python -O.

Addition of coefficients with far-apart valuations drops the smaller term
once the gap reaches R; this is the truncation semantics (relative precision
R everywhere).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import InvariantError
from .padic import PINF, UnramifiedRing

CHUNK = 1 << 9  # term pairs multiplied and folded at once by _block_mul


def _zeros(sr, shape):
    """pval and unit blocks of zero series with the given leading shape."""
    T1 = sr.tmax + 1
    return (np.full(shape + (T1,), PINF, dtype=np.int64),
            np.zeros(shape + (T1, sr.ring.deg), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class SeriesRing:
    ring: UnramifiedRing
    tmax: int

    def zero_series(self):
        return TSeries(self, *_zeros(self, ()))

    def from_terms(self, terms):
        """The sum of the monomials (t_exp, coeff, pshift), added in order."""
        s = self.zero_series()
        for texp, coeff, pshift in terms:
            s = s.add(self.monomial(texp, coeff, pshift))
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


class _SeriesBlocks:
    """A pval block (..., T+1) and a unit block (..., T+1, d) over one series
    ring; every operation below acts on all the series of the blocks."""
    __slots__ = ("sr", "pval", "unit")

    def __init__(self, sr, pval, unit):
        self.sr = sr
        self.pval = pval
        self.unit = unit

    def copy(self):
        return type(self)(self.sr, self.pval.copy(), self.unit.copy())

    def t_valuation(self):
        """The smallest t with a nonzero coefficient in any series, or None."""
        live = (self.pval < PINF).reshape(-1, self.pval.shape[-1]).any(axis=0)
        nz = np.flatnonzero(live)
        return int(nz[0]) if nz.size else None

    def add(self, other):
        ring = self.sr.ring
        out = self.copy()
        pv, un = out.pval.reshape(-1), out.unit.reshape(-1, ring.deg)
        opv, oun = other.pval.reshape(-1), other.unit.reshape(-1, ring.deg)
        keys = np.flatnonzero(opv < PINF)
        _renormalize(pv, un, ring.p, _fold(pv, un, keys, opv[keys], (oun, keys), ring))
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

    def _twist(self, k):
        """The coefficient of t^s moves to t^(s p^k) (dropped beyond T_max) and
        its unit u becomes S^k u mod p^R, S the matrix of sigma; make_ring's
        guard deg * (p^R)^2 < 2^62 keeps each product in int64."""
        ring, T1 = self.sr.ring, self.sr.tmax + 1
        step = min(ring.p ** k, T1)
        src = (T1 - 1) // step + 1  # the t with t * p^k <= T_max
        pv, un = _zeros(self.sr, self.pval.shape[:-1])
        pv[..., ::step] = self.pval[..., :src]
        u = self.unit[..., :src, :]
        for _ in range(k % ring.deg):  # sigma^deg is the identity
            u = u @ ring.sigma_int64.T % ring.modulus
        un[..., ::step, :] = u
        return type(self)(self.sr, pv, un)


class TSeries(_SeriesBlocks):
    __slots__ = ()

    def terms(self):
        for t in np.nonzero(self.pval < PINF)[0]:
            yield int(t), int(self.pval[t]), tuple(int(x) for x in self.unit[t])

    def mul(self, other):
        pv, un = _block_mul(self.sr, self.pval[None, None], self.unit[None, None],
                            other.pval[None, None], other.unit[None, None])
        return TSeries(self.sr, pv[0, 0], un[0, 0])

    def sigma_twist(self, k=1):
        """sigma on coefficients and t -> t^p, applied k times."""
        return self._twist(k)

    def __repr__(self):
        parts = []
        for t, pv, un in list(self.terms())[:6]:
            parts.append(f"t^{t}*p^{pv}*{un}")
        return "TSeries(" + " + ".join(parts) + (" + ..." if len(list(self.terms())) > 6 else "") + ")"


# ---------------------------------------------------------------------------
# the whole-array kernel

def _terms(pv, un):
    """Nonzero terms of a (rows, cols, T+1) block as arrays (cell, t, pval,
    unit), cells numbered row-major."""
    T1, d = pv.shape[-1], un.shape[-1]
    flat = np.flatnonzero(pv < PINF)
    cell, t = np.divmod(flat, T1)
    return cell, t, pv.reshape(-1)[flat], np.take(un.reshape(-1, d), flat, axis=0)


def _mul_matrices(u, ring):
    """The d x d matrix of multiplication by each unit vector u[b]: row k is
    x^k u[b], so a row vector w times it is the product w u[b].  It is
    sum_j u[b, j] S[j] (transposed), S the ring's structure tensor; make_ring
    guarantees deg * (p^R)^2 < 2^62, so each sum of d products fits int64."""
    return np.einsum("bj,jik->bki", u, ring.mul_tensor_int64) % ring.modulus


def _fold(pv, un, keys, tv, left, ring, right=None, chunk=CHUNK):
    """Add term i, p^tv[i] times the unit units[idx[i]] of left = (units,
    idx), and times the matrix mats[jdx[i]] of right = (mats, jdx) when
    given, to the coefficient (pv, un)[keys[i]], keys sorted; return the hit
    coefficients.

    Each hit coefficient becomes (v_min, sum of u * p^(v - v_min) mod p^R)
    over its terms and what it already held, and is written once; a term R
    or more above v_min adds nothing.  The units are gathered, scaled and
    multiplied chunk terms at a time, in chunks cut where a coefficient
    starts (a coefficient with more terms goes alone).  Products are reduced
    before summing, so a sum of fewer than 2^31 terms stays below 2^62."""
    if not keys.size:
        return keys
    R, mod, pw = ring.R, ring.modulus, ring.pow_int64
    starts = np.concatenate(([True], keys[1:] != keys[:-1]))
    first = np.flatnonzero(starts)
    cells, held = keys[first], pv[keys[first]]
    vmin = np.minimum(np.minimum.reduceat(tv, first), held)
    scale = pw[np.minimum(tv - vmin[np.cumsum(starts) - 1], R), None]
    total = np.take(un, cells, axis=0) * pw[np.minimum(held - vmin, R), None] % mod
    ends, g = np.append(first[1:], keys.size), 0
    while g < cells.size:
        lo = first[g]
        h = max(g + 1, int(np.searchsorted(ends, lo + chunk, side="right")))
        hi = ends[h - 1]
        tu = np.take(left[0], left[1][lo:hi], axis=0) * scale[lo:hi] % mod
        if right is not None:
            # each of the d products summed is below p^(2R): deg p^(2R) < 2^62
            tu = np.einsum("pk,pkj->pj", tu, np.take(right[0], right[1][lo:hi], axis=0)) % mod
        total[g:h] += np.add.reduceat(tu, first[g:h] - lo, axis=0)
        g = h
    un[cells] = total % mod
    pv[cells] = vmin
    return cells


def _renormalize(pv, un, p, cells):
    """Strip powers of p from the coefficients cells into their valuations;
    a coefficient whose unit cancelled to zero becomes zero."""
    live = np.take(un, cells, axis=0).any(axis=1)
    pv[cells[~live]] = PINF
    rows = cells[live]
    while rows.size:
        rows = rows[~(np.take(un, rows, axis=0) % p).any(axis=1)]
        un[rows] //= p
        pv[rows] += 1


def _block_mul(sr, apv, aun, bpv, bun, chunk=CHUNK, acc=None):
    """Product of the series matrices (apv, aun) (n x k) and (bpv, bun)
    (k x m), given as pval and unit blocks, as a pval block of shape
    (n, m, T+1) and a unit block of shape (n, m, T+1, d).  With acc, a pair
    of such blocks with p-free units, the product is folded into copies of
    them: the result is acc + A B.

    Every term pair is enumerated at once: each nonzero term of A against
    the terms of B with the same inner index and a t-degree that keeps the
    sum within T_max.  The unit of A's term times the multiplication matrix
    of B's term is the unit product; _fold sums the pairs of each output
    coefficient, chunk pairs at a time.  A unit of A or B divisible by p
    raises InvariantError."""
    ring, p = sr.ring, sr.ring.p
    (n, k), m = apv.shape[:2], bpv.shape[1]
    if bpv.shape[0] != k:
        raise ValueError(f"cannot multiply {n} x {k} by {bpv.shape[0]} x {m} series matrices")
    T1 = sr.tmax + 1
    if acc is None:
        pv = np.full(n * m * T1, PINF, dtype=np.int64)
        un = np.zeros((n * m * T1, ring.deg), dtype=np.int64)
    else:
        pv, un = acc[0].reshape(-1).copy(), acc[1].reshape(-1, ring.deg).copy()
    acell, at, av, au = _terms(apv, aun)
    bcell, bt, bv, bu = _terms(bpv, bun)
    for name, u in (("A", au), ("B", bu)):
        if not (u % p).any(axis=1).all():
            raise InvariantError(f"a unit of {name} is divisible by p = {p}; stored "
                                 "units are p-free")
    # B's terms in (inner index, t) order; A's term (i, l, t) meets the run
    # of them with inner index l and t-degree at most T_max - t
    bkey = bcell // m * T1 + bt
    border = np.argsort(bkey)
    bkey, bout, bv, bu = bkey[border], (bcell % m * T1 + bt)[border], bv[border], bu[border]
    alo = acell % k * T1
    lo = np.searchsorted(bkey, alo)
    cnt = np.searchsorted(bkey, alo + sr.tmax - at, side="right") - lo
    ia = np.repeat(np.arange(cnt.size), cnt)
    ib = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(ia.size)
    keys = np.repeat(acell // k * m * T1 + at, cnt) + bout[ib]
    order = np.argsort(keys)  # the one sort: the pairs of a coefficient side by side
    keys = keys[order]
    ia = ia[order]
    ib = ib[order]
    del order  # one array fewer alive through the fold
    cells = _fold(pv, un, keys, av[ia] + bv[ib], (au, ia), ring,
                  right=(_mul_matrices(bu, ring), ib), chunk=chunk)
    _renormalize(pv, un, p, cells)
    return pv.reshape(n, m, T1), un.reshape(n, m, T1, ring.deg)


# ---------------------------------------------------------------------------
# matrices of series

class TSeriesMatrix(_SeriesBlocks):
    """A rows x cols matrix of series: pval block (rows, cols, T+1), unit
    block (rows, cols, T+1, d).  Write an entry with M[i, j] = s (a copy);
    `entries` holds read-only rows of series views into the blocks."""

    @property
    def dim(self):
        return self.pval.shape[0]

    @staticmethod
    def zero(sr, dim):
        return TSeriesMatrix(sr, *_zeros(sr, (dim, dim)))

    @staticmethod
    def identity(sr, dim):
        M = TSeriesMatrix.zero(sr, dim)
        diag = np.arange(dim)
        M.pval[diag, diag, 0] = 0
        M.unit[diag, diag, 0] = sr.ring.one()
        return M

    @staticmethod
    def of(sr, grid):
        """The matrix whose entries are copies of a list of rows of series."""
        return TSeriesMatrix(sr, np.array([[s.pval for s in row] for row in grid]),
                             np.array([[s.unit for s in row] for row in grid]))

    @cached_property
    def entries(self):
        """Tuple of rows of TSeries views into the blocks; they see later writes."""
        return tuple(tuple(TSeries(self.sr, pv, un) for pv, un in zip(prow, urow))
                     for prow, urow in zip(self.pval, self.unit))

    def __setitem__(self, ij, s):
        self.pval[ij] = s.pval
        self.unit[ij] = s.unit

    def mul(self, other):
        return TSeriesMatrix(self.sr, *_block_mul(self.sr, self.pval, self.unit,
                                                  other.pval, other.unit))

    def mul_one_plus(self, other):
        """self (I + other) for an other with no t^0 term, as self + self other
        in one fold: I + other is then the two blocks side by side, and the
        identity's term pairs give back the terms of self, so the bytes are
        those of self.mul(I.add(other)) (p-free units, as stored here)."""
        if (other.pval[..., 0] < PINF).any():
            raise ValueError("other has a t^0 term, which I + other would sum onto the "
                             "identity; use self.mul(I.add(other))")
        return TSeriesMatrix(self.sr, *_block_mul(self.sr, self.pval, self.unit, other.pval,
                                                  other.unit, acc=(self.pval, self.unit)))

    def sigma_twist(self, k=1):
        """sigma on coefficients and t -> t^p, applied k times to every entry."""
        return self._twist(k)

    def mul_vector(self, vec):
        """vec: list of TSeries; returns list of TSeries."""
        v = TSeriesMatrix.of(self.sr, [[s] for s in vec])
        pv, un = _block_mul(self.sr, self.pval, self.unit, v.pval, v.unit)
        return [TSeries(self.sr, a, b) for a, b in zip(pv[:, 0], un[:, 0])]
