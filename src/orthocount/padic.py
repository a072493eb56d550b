"""Truncated Witt-vector arithmetic over unramified extensions.

W(F_{p^d})/p^R is realized as Z[x]/(f0(x), p^R) for a monic integer lift f0
of an irreducible degree-d polynomial over F_p.  Elements are coordinate
vectors in the x-power basis with entries mod p^R.  The canonical Frobenius
sigma is computed from the Teichmuller representative tau of x (the p-adic
limit of x^{q^k}), for which sigma(tau) = tau^p holds exactly; sigma is then
a Z/p^R-linear map in the x-basis.

R is capped so that unit products and d-term dot products stay inside int64;
series kernels elsewhere rely on that.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import InvariantError
from .intmat import fp_row_reduce

PINF = 1 << 62  # sentinel p-valuation for the zero coefficient


def _irreducible_poly(p, d, seed=0):
    """Monic irreducible polynomial of degree d over F_p (integer coeffs)."""
    if d == 1:
        return [0, 1]  # x
    import random
    rng = random.Random(seed * 1000003 + 17 * p + d)
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


def _is_irreducible(f, p):
    """Irreducibility over F_p via x^{p^k} folding."""
    d = len(f) - 1
    x = [0, 1]
    xp = x[:]
    for k in range(1, d):
        xp = _polypow_mod(xp, p, f, p)
        # gcd(x^{p^k} - x, f) must be 1
        diff = [(a - b) % p for a, b in
                zip(xp + [0] * 2, x + [0] * (len(xp) - 1))][:len(xp)]
        if _polygcd_deg(diff, f, p) > 0:
            return False
    xp = _polypow_mod(xp, p, f, p)
    diff = [(a - b) % p for a, b in zip(xp + [0] * 2, x + [0] * (len(xp) - 1))][:len(xp)]
    return _poly_iszero(diff, p)


def _poly_iszero(a, p):
    return all(c % p == 0 for c in a)


def _polygcd_deg(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]

    def deg(x):
        for i in range(len(x) - 1, -1, -1):
            if x[i] % p:
                return i
        return -1

    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[deg(b)], -1, p)
        f = a[da] * inv % p
        shift = da - db
        a = [(c - f * (b[i - shift] if 0 <= i - shift <= db else 0)) % p
             for i, c in enumerate(a)]
    return deg(a)


@dataclass(frozen=True, eq=False)
class UnramifiedRing:
    """W(F_{p^d}) / p^R in the x-power basis."""
    p: int
    R: int
    deg: int
    minpoly: tuple      # length deg+1, monic, coefficients mod p^R
    sigma_mat: tuple    # deg x deg, columns: sigma(x^j) in x-basis, mod p^R
    red_rows: tuple     # rows k=0..deg-2: x^{deg+k} in x-basis, mod p^R

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
        best = PINF
        for c in a:
            c %= self.modulus
            if c == 0:
                continue
            v = 0
            while c % self.p == 0:
                c //= self.p
                v += 1
            best = min(best, v)
        return best

    def is_unit(self, a):
        return self.val(a) == 0

    def inv(self, a):
        """Inverse of a unit, by Newton iteration from the mod-p inverse."""
        if not self.is_unit(a):
            raise ZeroDivisionError("not a unit")
        # invert mod p by linear algebra over F_p
        p = self.p
        d = self.deg
        # matrix of multiplication by a, mod p
        cols = []
        for j in range(d):
            e = tuple(int(i == j) for i in range(d))
            cols.append(self.mul(a, e))
        # row-reduce [A | e_0]; A is invertible, so the last column solves A x = e_0
        rows, _ = fp_row_reduce(
            [[cols[j][i] for j in range(d)] + [int(i == 0)] for i in range(d)], p)
        x = tuple(row[d] for row in rows)
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
        return self.pow(self._tau(), k)

    def _tau(self):
        return _teichmuller_cache(self)

    def as_matrix_int64(self):
        sig = np.array(self.sigma_mat, dtype=np.int64)
        red = np.array(self.red_rows, dtype=np.int64) if self.deg > 1 else \
            np.zeros((0, 1), dtype=np.int64)
        return sig, red


_TAU_CACHE = {}


def _teichmuller_cache(ring):
    key = (ring.p, ring.R, ring.deg, ring.minpoly)
    if key not in _TAU_CACHE:
        q = ring.p ** ring.deg
        y = ring.gen()
        for _ in range(ring.R + 1):
            y = ring.pow(y, q)
        if ring.pow(y, q - 1) != ring.one():
            raise InvariantError("Teichmuller iteration failed")
        _TAU_CACHE[key] = y
    return _TAU_CACHE[key]


@lru_cache(maxsize=None)
def make_ring(p, R, deg, minpoly_modp=None, seed=0):
    """Construct W(F_{p^deg})/p^R with its canonical Frobenius.

    minpoly_modp optionally fixes the defining polynomial (tuple of deg+1
    ints); by default a seeded irreducible polynomial is used.  For deg 2
    one may pass (theta, 0, 1)-style X^2 - theta with theta a nonresidue.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    # int64 safety for the downstream series kernels
    if deg * (p ** R) ** 2 >= (1 << 62):
        raise ValueError("p^R too large for int64 kernels")
    mod = p ** R
    if deg == 1:
        ring = UnramifiedRing(p, R, 1, (0, 1), ((1,),), ())
        return ring
    f0 = list(minpoly_modp) if minpoly_modp is not None else _irreducible_poly(p, deg, seed)
    if len(f0) != deg + 1 or f0[deg] % p != 1:
        raise ValueError("minpoly must be monic of degree deg")
    if not _is_irreducible(f0, p):
        raise ValueError("minpoly is not irreducible mod p")
    f = tuple(c % mod for c in f0)
    # reduction rows for x^{deg+k}
    red = []
    cur = [(-f[j]) % mod for j in range(deg)]  # x^deg
    red.append(tuple(cur))
    for _ in range(deg - 2):
        cur = _polymul_mod(cur, [0, 1], list(f), mod)
        red.append(tuple(cur))
    # tau and sigma
    ring0 = UnramifiedRing(p, R, deg, f, tuple(tuple(int(i == j) for j in range(deg))
                                               for i in range(deg)), tuple(red))
    q = p ** deg
    y = ring0.gen()
    for _ in range(R + 1):
        y = ring0.pow(y, q)
    if ring0.pow(y, q - 1) != ring0.one():
        raise InvariantError("Teichmuller iteration failed")
    tau = y
    # basis-change T: columns are tau^k in x-basis; sigma_x = T P T^{-1}
    taup = ring0.pow(tau, p)
    Tcols = []
    Pcols = []
    cur = ring0.one()
    curp = ring0.one()
    for k in range(deg):
        Tcols.append(cur)
        Pcols.append(curp)
        cur = ring0.mul(cur, tau)
        curp = ring0.mul(curp, taup)
    # sigma(x^j): write x^j = sum c_k tau^k, then sigma(x^j) = sum c_k tau^{pk}
    # solve T c = e_j mod p^R (T invertible: tau = x mod p)
    Tmat = [[Tcols[k][i] for k in range(deg)] for i in range(deg)]
    Tinv = _invert_mod_prime_power(Tmat, p, R)
    sig_cols = []
    for j in range(deg):
        c = [Tinv[k][j] for k in range(deg)]
        img = ring0.zero()
        for k in range(deg):
            img = ring0.add(img, tuple(c[k] * Pcols[k][i] % mod for i in range(deg)))
        sig_cols.append(img)
    sigma_mat = tuple(tuple(sig_cols[j][i] for j in range(deg)) for i in range(deg))
    ring = UnramifiedRing(p, R, deg, f, sigma_mat, tuple(red))
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


def _invert_mod_prime_power(A, p, R):
    """Inverse of an integer matrix mod p^R; InvariantError if it is singular mod p."""
    n = len(A)
    mod = p ** R
    # the mod-p inverse: row-reduce [A | I] once
    rows, pivots = fp_row_reduce([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(A)], p)
    if pivots != list(range(n)):
        raise InvariantError("matrix is singular mod p")
    B = [row[n:] for row in rows]
    # Newton lifting: B <- B(2I - AB) mod p^R
    for _ in range(R.bit_length() + 1):
        AB = [[sum(A[i][k] * B[k][j] for k in range(n)) % mod for j in range(n)]
              for i in range(n)]
        C = [[(2 * int(i == j) - AB[i][j]) % mod for j in range(n)] for i in range(n)]
        B = [[sum(B[i][k] * C[k][j] for k in range(n)) % mod for j in range(n)]
             for i in range(n)]
    # verify
    AB = [[sum(A[i][k] * B[k][j] for k in range(n)) % mod for j in range(n)]
          for i in range(n)]
    if any(AB[i][j] != int(i == j) for i in range(n) for j in range(n)):
        raise InvariantError("Newton lifting did not invert the matrix")
    return B
