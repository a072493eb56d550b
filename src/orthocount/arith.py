"""Characters, divisor sums and Dirichlet L-values.

L-values are exact closed forms (generalized Bernoulli numbers: an exact
rational times a power of pi over a square root) whenever the parity of the
character matches the argument, which is every L-value the Eisenstein
coefficients need; there is no numeric evaluation.
"""

import math
from fractions import Fraction
from functools import lru_cache

CHARACTER_GUARD = 10 ** 6  # |D| of the largest character table; more is refused


class InvariantError(ArithmeticError):
    """A mathematical invariant that the code relies on does not hold.

    Raised by explicit checks instead of bare asserts, so that it also fires
    under `python -O`; the CLI maps it, as it maps a VerificationFailure, to
    exit code 2, and every other ArithmeticError to exit code 1."""


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


def valuation(n, p, zero):
    """v_p(n), the exponent of p in n, for n != 0; `zero` for n = 0."""
    if n == 0:
        return zero
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


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
    """sigma_s(m, chi) = sum_{d | m} chi(d) d^s as an exact Fraction, for
    integer s: for s < 0 the integer sum_{d | m} chi(d) (m/d)^(-s) over
    m^(-s).  D=None means the trivial character.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    chi = (lambda d: 1) if D is None else (lambda d: chi_d(D, d))
    if s >= 0:
        return Fraction(sum(chi(d) * d ** s for d in divisors(m)))
    return Fraction(sum(chi(d) * (m // d) ** -s for d in divisors(m)), m ** -s)


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


def _character_table(D):
    """[chi_D(1), ..., chi_D(|D|)]: one Kronecker symbol per prime a <= |D|,
    the rest by complete multiplicativity over a prime-factor sieve."""
    if D % 4 not in (0, 1):
        raise ValueError("chi_D needs D = 0 or 1 mod 4")
    f = abs(D)
    if f > CHARACTER_GUARD:
        raise ValueError(f"a table of chi_{D} has {f} entries, "
                         f"more than the {CHARACTER_GUARD:.3g} guard")
    factor = [0] * (f + 1)  # a prime factor of each composite a <= f
    for q in range(2, math.isqrt(f) + 1):
        if factor[q] == 0:
            factor[q * q::q] = [q] * len(range(q * q, f + 1, q))
    chi = [0, 1]
    for a in range(2, f + 1):
        q = factor[a]
        chi.append(kronecker(D, a) if q == 0 else chi[q] * chi[a // q])
    return chi[1:]


@lru_cache(maxsize=1024)
def gen_bernoulli(n, D0):
    """Generalized Bernoulli number B_{n, chi_{D0}} for fundamental D0, exact.

    With f = |D0| and B_n(x) = sum_k C(n, k) B_k x^(n-k),
      B_{n,chi} = f^(n-1) sum_{a=1..f} chi(a) B_n(a/f)
                = sum_{k=0..n} C(n, k) B_k f^(k-1) S_(n-k),
    where S_j = sum_{a=1..f} chi(a) a^j is an exact integer (Washington,
    Introduction to Cyclotomic Fields, Prop. 4.1).  D0 = 1 is the trivial
    character mod 1, so the result is B_n(1).
    """
    f = abs(D0)
    sums = [0] * (n + 1)
    for a, c in enumerate(_character_table(D0), start=1):
        if c == 0:
            continue
        term = c
        for j in range(n + 1):
            sums[j] += term
            term *= a
    # f * B_{n,chi} = sum_k C(n, k) f^k S_(n-k) B_k, integer weights
    total = sum(math.comb(n, k) * f ** k * sums[n - k] * bernoulli(k)
                for k in range(n + 1))
    return Fraction(total, f)


@lru_cache(maxsize=256)  # bounded: a run of Eisenstein coefficients asks for few (s, D)
def lvalue_closed_form(s, D):
    """L(s, chi_D) as (rational, pi_power, sqrt_denominator) when it exists.

    Returns (q, s, d) meaning L = q * pi^s / sqrt(d), or None when the parity
    of chi_D does not match s (no elementary closed form).  Imprimitive
    characters are reduced to the fundamental one with Euler factors.
    """
    if s < 1:
        return None
    D0, g = fundamental_discriminant(D)
    if s % 2 != (D0 < 0):  # chi_D0(-1) = (-1)^s: even for D0 > 0, odd for D0 < 0
        return None
    f = abs(D0)
    B = gen_bernoulli(s, D0)
    if B == 0:
        raise InvariantError(f"B_({s}, chi_{D0}) = 0, but L({s}, chi_{D0}) > 0")
    # For chi primitive mod f with chi(-1) = (-1)^s, the functional equation
    # turns L(1 - s, chi) = -B_{s,chi}/s (Washington, Thm. 4.2) into
    #   |L(s, chi)| = (2 pi / f)^s * sqrt(f) * |B_{s,chi}| / (2 * s!),
    # since a real character has Gauss sum sqrt(f) (even) or i sqrt(f) (odd).
    # D0 = 1 is the trivial character mod 1 and B_s(1) = B_s: zeta(s).  The
    # sign is fixed by L(s, chi) > 0 at real s >= 1 (the Euler product for
    # s > 1, the class number formula at s = 1), so B_{s,chi} != 0.
    # Folding sqrt(f) = f / sqrt(f) gives L = q * pi^s / sqrt(f).
    q = Fraction(2) ** s * abs(B) * f / (2 * math.factorial(s) * Fraction(f) ** s)
    # imprimitive correction: chi_D = chi_{D0} on integers prime to D, but the
    # modulus includes the primes of g (and of D0 if doubled); remove their
    # Euler factors
    extra = {p for p, _ in factorize(abs(D))} - {p for p, _ in factorize(abs(D0))}
    for p in sorted(extra):
        q *= (1 - Fraction(chi_d(D0, p), p ** s))
    return q, s, f
