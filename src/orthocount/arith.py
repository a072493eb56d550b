"""Characters, divisor sums and Dirichlet L-values.

L-values are evaluated two ways: closed forms (Bernoulli numbers, exact
rational times a power of pi) whenever the character parity matches the
argument, and tail-bounded direct summation otherwise.  The summation path
is also kept as an independent numeric oracle for the closed forms.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


class InvariantError(ArithmeticError):
    """A mathematical invariant that the code relies on does not hold.

    Raised by explicit checks instead of bare asserts, so that it also fires
    under `python -O`; the CLI maps it, like every ArithmeticError, to exit
    code 2."""


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n):
    """Sorted list of (prime, exponent) for n >= 1."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n):
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def moebius(n):
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def squarefree_part(n):
    """(s, f) with n = s * f^2 and s squarefree."""
    s, f = 1, 1
    for p, e in factorize(n):
        if e % 2:
            s *= p
        f *= p ** (e // 2)
    return s, f


def kronecker(D, a):
    """Kronecker symbol (D/a) with the standard conventions at 2, 0 and -1."""
    if D == 0 and a == 0:
        raise ValueError("(0/0) is undefined")
    if a == 0:
        return 1 if D in (1, -1) else 0
    sign = 1
    if a < 0:
        a = -a
        if D < 0:
            sign = -sign
    if a % 2 == 0:
        if D % 2 == 0:
            return 0
        # (D/2): 0 if D even, 1 if D = +-1 mod 8, -1 if D = +-3 mod 8
        t = 0
        while a % 2 == 0:
            a //= 2
            t += 1
        if t % 2 == 1 and D % 8 in (3, 5):
            sign = -sign
    # now a odd positive; Jacobi symbol (D/a) by reciprocity
    D %= a
    while D != 0:
        while D % 2 == 0:
            D //= 2
            if a % 8 in (3, 5):
                sign = -sign
        D, a = a, D
        if D % 4 == 3 and a % 4 == 3:
            sign = -sign
        D %= a
    return sign if a == 1 else 0


def chi_d(D, a):
    """The character chi_D(a) = (D/a); D must be 0 or 1 mod 4."""
    if D % 4 not in (0, 1):
        raise ValueError("chi_D needs D = 0 or 1 mod 4")
    return kronecker(D, a)


def sigma_s_chi(m, s, D=None):
    """sigma_s(m, chi) = sum_{d | m} chi(d) d^s.

    Exact Fraction for integer s; float for non-integer s.  D=None means the
    trivial character.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = Fraction(0) if float(s).is_integer() else 0.0
    s_int = int(s) if float(s).is_integer() else None
    for d in divisors(m):
        c = 1 if D is None else chi_d(D, d)
        if c == 0:
            continue
        if s_int is not None:
            total += c * Fraction(d) ** s_int
        else:
            total += c * float(d) ** float(s)
    return total


@lru_cache(maxsize=None)
def bernoulli(n):
    """Exact Bernoulli number B_n, with the B_1 = -1/2 convention."""
    if n == 0:
        return Fraction(1)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
    total = Fraction(0)
    for j in range(n):
        total += math.comb(n + 1, j) * bernoulli(j)
    return -total / (n + 1)


def zeta_even_over_pi(s):
    """zeta(s)/pi^s as an exact Fraction, for even s >= 2."""
    if s < 2 or s % 2:
        raise ValueError("closed form only at even s >= 2")
    B = bernoulli(s)
    val = (-1) ** (s // 2 + 1) * B * Fraction(2) ** (s - 1) / math.factorial(s)
    if val <= 0:
        raise InvariantError(f"zeta({s})/pi^{s} = {val} is not positive")
    return val


def fundamental_discriminant(D):
    """(D0, g) with D = D0 * g^2, D0 the fundamental discriminant of chi_D.

    D must be a nonzero integer = 0, 1 mod 4; D0 = 1 means the character is
    principal (modulo the primes dividing g).
    """
    if D == 0 or D % 4 not in (0, 1):
        raise ValueError("need D nonzero, D = 0 or 1 mod 4")
    s, f = squarefree_part(abs(D))
    s = s if D > 0 else -s
    if s % 4 in (0, 1):
        d0 = s
    else:
        d0 = 4 * s
    g2 = D // d0
    if g2 <= 0:
        raise InvariantError(f"D = {D} and D0 = {d0} differ in sign")
    g = math.isqrt(g2)
    if g * g != g2:
        raise InvariantError(f"D / D0 = {D} / {d0} is not a square")
    return d0, g


def gen_bernoulli(n, D0):
    """Generalized Bernoulli number B_{n, chi_{D0}} for fundamental D0, exact."""
    f = abs(D0) if D0 != 1 else 1
    # B_{n,chi} = f^{n-1} sum_{a=1..f} chi(a) B_n(a/f)
    total = Fraction(0)
    for a in range(1, f + 1):
        c = chi_d(D0, a) if D0 != 1 else (1 if f == 1 else 0)
        if c == 0:
            continue
        x = Fraction(a, f)
        poly = sum(Fraction(math.comb(n, k)) * bernoulli(k) * x ** (n - k)
                   for k in range(n + 1))
        total += c * poly
    return Fraction(f) ** (n - 1) * total


def lvalue_closed_form(s, D):
    """L(s, chi_D) as (rational, pi_power, sqrt_denominator) when it exists.

    Returns (q, s, d) meaning L = q * pi^s / sqrt(d), or None when the parity
    of chi_D does not match s (no elementary closed form).  Imprimitive
    characters are reduced to the fundamental one with Euler factors.
    """
    if s < 1:
        return None
    D0, g = fundamental_discriminant(D)
    parity = 0 if D0 > 0 else 1
    if s % 2 != parity:
        return None
    if D0 == 1:
        if s % 2 or s == 0:
            return None
        q = zeta_even_over_pi(s)
        d = 1
    else:
        f = abs(D0)
        B = gen_bernoulli(s, D0)
        # L(s, chi) = (-1)^{1 + s(s-...)} ... use the standard evaluation:
        # for chi primitive mod f with chi(-1) = (-1)^s,
        #   L(s, chi) = (-1)^{1 + floor(s/2)}? -- fixed instead by positivity:
        # |L| = (2 pi / f)^s * sqrt(f) * |B_{s,chi}| / (2 * s!) and L(s) > 0
        # for s >= 1 (Euler product / positivity of partial sums at real s>1).
        q = Fraction(2) ** s * abs(B) / (2 * math.factorial(s) * Fraction(f) ** s)
        d = f
        # L = q * pi^s * sqrt(f) / f = q * pi^s / sqrt(f) after folding
        q = q * f
    # imprimitive correction: chi_D = chi_{D0} on integers prime to D, but the
    # modulus includes the primes of g (and of D0 if doubled); remove their
    # Euler factors
    extra = {p for p, _ in factorize(abs(D))} - {p for p, _ in factorize(abs(D0) if D0 != 1 else 1)}
    for p in sorted(extra):
        q *= (1 - Fraction(chi_d(D0, p) if D0 != 1 else 1, p ** s))
    return q, s, d


def dirichlet_L(s, D=None, eps=1e-12):
    """L(s, chi_D) (or zeta(s) for D=None) to absolute error <= eps, s > 1.

    Principal/zeta tails use int_N^inf x^{-s} dx; non-principal characters use
    Abel summation, giving a 2*Mchi*(N+1)^{-s} tail with Mchi the max partial
    sum of the character over a period.
    """
    s = float(s)
    if s <= 1:
        raise ValueError("need s > 1")
    if D is not None and D % 4 not in (0, 1):
        raise ValueError("need D = 0 or 1 mod 4")
    principal = D is None or fundamental_discriminant(D)[0] == 1
    if principal:
        # strip the zero classes: sum over n coprime to D when D is given
        if D is None:
            N = int((1.0 / (eps * (s - 1))) ** (1.0 / (s - 1))) + 2
            return _partial_power_sum(1, N, s) + _zeta_tail(N, s)
        # zeta times finite Euler factors, evaluated recursively
        base = dirichlet_L(s, None, eps / 2)
        for p in sorted({p for p, _ in factorize(abs(D))}):
            base *= 1 - p ** (-s)
        return base
    period = abs(D)
    vals = np.array([kronecker(D, a) for a in range(period)], dtype=np.float64)
    mchi = float(np.max(np.abs(np.cumsum(vals))))
    N = int((2 * mchi / eps) ** (1.0 / s)) + period + 2
    total = 0.0
    for start in range(1, N + 1, 1 << 16):
        stop = min(N, start + (1 << 16) - 1)
        n = np.arange(start, stop + 1, dtype=np.int64)
        total += float(np.sum(vals[n % period] * np.asarray(n, np.float64) ** (-s)))
    return total


def _partial_power_sum(start, stop, s):
    total = 0.0
    for a in range(start, stop + 1, 1 << 16):
        b = min(stop, a + (1 << 16) - 1)
        n = np.arange(a, b + 1, dtype=np.float64)
        total += float(np.sum(n ** (-s)))
    return total


def _zeta_tail(N, s):
    # Euler-Maclaurin style midpoint: int_{N+1/2}^inf x^-s dx is accurate to
    # O(N^{-s-2}); the plain integral bound would need no correction but this
    # halves the required N
    return (N + 0.5) ** (1.0 - s) / (s - 1.0)
