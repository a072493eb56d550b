"""Truncated Witt-vector arithmetic over unramified extensions.

W(F_{p^d})/p^R is realized as Z[x]/(f0(x), p^R) for a monic integer lift f0
of an irreducible degree-d polynomial over F_p.  Elements are coordinate
vectors in the x-power basis with entries mod p^R.  The canonical Frobenius
sigma is the ring automorphism with sigma(x) = x^p mod p, so sigma(x) is the
root of f0 that Hensel's lemma lifts from x^p, and sigma is the Z/p^R-linear
map sending x^j to sigma(x)^j.  The Teichmuller representative tau of x (the
p-adic limit of x^{q^k}) is kept for the Teichmuller units tau^k.

R is capped so that unit products and d-term dot products stay inside int64;
series kernels elsewhere rely on that.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arith import InvariantError, valuation
from .intmat import fp_row_reduce

PINF = 1 << 62  # sentinel p-valuation for the zero coefficient


def _irreducible_poly(p, d):
    """Monic irreducible polynomial of degree d over F_p (integer coeffs)."""
    import random
    rng = random.Random(17 * p + d)
    while True:
        coeffs = [rng.randrange(p) for _ in range(d)] + [1]
        if _is_irreducible(coeffs, p):
            return coeffs


def _polymul_mod(a, b, f, mod):
    """a*b mod (f, mod) for int-coefficient lists, f monic."""
    d = len(f) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % mod
    # reduce by monic f
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(d):
                out[k - d + j] = (out[k - d + j] - c * f[j]) % mod
    out = out[:d]
    return out + [0] * (d - len(out))


def _polypow_mod(a, e, f, mod):
    result = [1] + [0] * (len(f) - 2)
    base = a[:]
    while e:
        if e & 1:
            result = _polymul_mod(result, base, f, mod)
        base = _polymul_mod(base, base, f, mod)
        e >>= 1
    return result


def _mul_matrix(a, f, mod):
    """The matrix of multiplication by a on Z[x]/(f, mod), f monic, in the
    x-power basis: column j holds a * x^j."""
    d = len(f) - 1
    cols = [_polymul_mod(list(a), [0] * j + [1], f, mod) for j in range(d)]
    return [[col[i] for col in cols] for i in range(d)]


def _is_irreducible(f, p):
    """Irreducibility of a monic f of degree d over F_p.

    x^(p^k) - x is the product of the monic irreducibles whose degree divides
    k (Lidl & Niederreiter, Finite Fields, ch. 3), so f is irreducible iff
    x^(p^d) = x mod f and, for every k < d, x^(p^k) - x is a unit mod f: its
    multiplication matrix has full rank over F_p.
    """
    d = len(f) - 1
    x = _polypow_mod([0, 1], 1, f, p)  # x reduced mod f
    xp = x
    for k in range(1, d + 1):
        xp = _polypow_mod(xp, p, f, p)
        diff = [(a - b) % p for a, b in zip(xp, x)]
        if k == d:
            return not any(diff)
        if len(fp_row_reduce(_mul_matrix(diff, f, p), p)[1]) < d:
            return False


@dataclass(frozen=True, eq=False)
class UnramifiedRing:
    """W(F_{p^d}) / p^R in the x-power basis."""
    p: int
    R: int
    deg: int
    minpoly: tuple      # length deg+1, monic, coefficients mod p^R
    sigma_mat: tuple    # deg x deg, columns: sigma(x^j) in x-basis, mod p^R
    tau: tuple = ()     # Teichmuller representative of x, mod p^R (deg > 1)

    @property
    def modulus(self):
        return self.p ** self.R

    def zero(self):
        return (0,) * self.deg

    def one(self):
        return (1,) + (0,) * (self.deg - 1)

    def from_int(self, c):
        return (c % self.modulus,) + (0,) * (self.deg - 1)

    def gen(self):
        if self.deg == 1:
            raise ValueError("prime ring has no generator")
        return (0, 1) + (0,) * (self.deg - 2)

    def add(self, a, b):
        M = self.modulus
        return tuple((x + y) % M for x, y in zip(a, b))

    def sub(self, a, b):
        M = self.modulus
        return tuple((x - y) % M for x, y in zip(a, b))

    def neg(self, a):
        M = self.modulus
        return tuple((-x) % M for x in a)

    def mul(self, a, b):
        out = _polymul_mod(list(a), list(b), list(self.minpoly), self.modulus)
        return tuple(out)

    def pow(self, a, e):
        out = _polypow_mod(list(a), e, list(self.minpoly), self.modulus)
        return tuple(out)

    def sigma(self, a, k=1):
        if self.deg == 1:
            return a
        M = self.modulus
        S = self.sigma_mat
        for _ in range(k % self.deg):
            a = tuple(sum(S[i][j] * a[j] for j in range(self.deg)) % M
                      for i in range(self.deg))
        return a

    def val(self, a):
        """min p-valuation across coordinates; PINF for zero."""
        M = self.modulus
        return min(valuation(c % M, self.p, PINF) for c in a)

    def is_unit(self, a):
        return self.val(a) == 0

    def mul_matrix(self, a):
        """The matrix of multiplication by a in the x-power basis, mod p^R."""
        return _mul_matrix(a, self.minpoly, self.modulus)

    def inv(self, a):
        """Inverse of a unit, by Newton iteration from the mod-p inverse."""
        if not self.is_unit(a):
            raise ZeroDivisionError("not a unit")
        # row-reduce [A | e_0] over F_p, A the multiplication matrix of a; A is
        # invertible mod p, so the last column solves A x = e_0
        rows, _ = fp_row_reduce([row + [int(i == 0)]
                                 for i, row in enumerate(self.mul_matrix(a))], self.p)
        x = tuple(row[self.deg] for row in rows)
        # Newton: x <- x(2 - a x), doubling precision each step
        for _ in range(self.R.bit_length() + 1):
            ax = self.mul(a, x)
            two_minus = self.sub(self.from_int(2), ax)
            x = self.mul(x, two_minus)
        if self.mul(a, x) != self.one():
            raise InvariantError("Newton iteration did not invert the unit")
        return x

    def teichmuller_unit(self, k):
        """tau^k for the Teichmuller representative tau of x (deg > 1)."""
        if self.deg == 1:
            raise ValueError("prime ring has no generator")
        return self.pow(self.tau, k)

    # read-only int64 constants of the series kernels, built once per ring

    @cached_property
    def sigma_int64(self):
        """sigma_mat as an int64 array."""
        return _frozen(self.sigma_mat)

    @cached_property
    def mul_tensor_int64(self):
        """The structure tensor, shape (deg, deg, deg): S[j] is the
        multiplication matrix of x^j, so S[j, i, k] is coordinate i of
        x^(j+k)."""
        return _frozen([self.mul_matrix(tuple(int(i == j) for i in range(self.deg)))
                        for j in range(self.deg)])

    @cached_property
    def pow_int64(self):
        """p^e mod p^R at index min(e, R): p^0, ..., p^(R-1) and then 0."""
        return _frozen([self.p ** e for e in range(self.R)] + [0])


def _frozen(rows):
    a = np.array(rows, dtype=np.int64)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def make_ring(p, R, deg, minpoly_modp=None):
    """Construct W(F_{p^deg})/p^R with its canonical Frobenius.

    minpoly_modp optionally fixes the defining polynomial (tuple of deg+1
    ints); by default a fixed pseudo-random irreducible polynomial is used.
    For deg 2 one may pass (theta, 0, 1)-style X^2 - theta with theta a nonresidue.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    # int64 safety for the downstream series kernels
    if deg * (p ** R) ** 2 >= (1 << 62):
        raise ValueError("p^R too large for int64 kernels")
    mod = p ** R
    if deg == 1:
        return UnramifiedRing(p, R, 1, (0, 1), ((1,),))
    f0 = list(minpoly_modp) if minpoly_modp is not None else _irreducible_poly(p, deg)
    if len(f0) != deg + 1 or f0[deg] % p != 1:
        raise ValueError("minpoly must be monic of degree deg")
    if not _is_irreducible(f0, p):
        raise ValueError("minpoly is not irreducible mod p")
    f = tuple(c % mod for c in f0)
    # tau, for the Teichmuller units
    ring0 = UnramifiedRing(p, R, deg, f, tuple(tuple(int(i == j) for j in range(deg))
                                               for i in range(deg)))
    q = p ** deg
    y = ring0.gen()
    for _ in range(R + 1):
        y = ring0.pow(y, q)
    if ring0.pow(y, q - 1) != ring0.one():
        raise InvariantError("Teichmuller iteration failed")
    tau = y
    # sigma(x) is the root of f that Hensel's lemma lifts from x^p: f is
    # irreducible, hence separable, mod p, so f'(s) is a unit and each Newton
    # step doubles the precision
    def at(coeffs, s):
        acc = ring0.zero()
        for c in reversed(coeffs):
            acc = ring0.add(ring0.mul(acc, s), ring0.from_int(c))
        return acc
    df = [j * f[j] for j in range(1, deg + 1)]
    s = ring0.pow(ring0.gen(), p)
    for _ in range(R.bit_length() + 1):
        s = ring0.sub(s, ring0.mul(at(f, s), ring0.inv(at(df, s))))
    if any(at(f, s)):
        raise InvariantError("sigma(x) must be a root of the minimal polynomial")
    cols = [ring0.one()]
    for _ in range(deg - 1):
        cols.append(ring0.mul(cols[-1], s))
    sigma_mat = tuple(tuple(col[i] for col in cols) for i in range(deg))
    ring = UnramifiedRing(p, R, deg, f, sigma_mat, tau)
    # sanity: sigma is a ring map lifting Frobenius, sigma^deg = id
    g = ring.gen()
    if ring.sigma(ring.mul(g, g)) != ring.mul(ring.sigma(g), ring.sigma(g)):
        raise InvariantError("sigma must be multiplicative")
    if any(c % p for c in ring.sub(ring.sigma(g), ring.pow(g, p))):
        raise InvariantError("sigma must lift the p-power Frobenius")
    acc = g
    for _ in range(deg):
        acc = ring.sigma(acc)
    if acc != g:
        raise InvariantError("sigma^deg must be the identity")
    return ring

