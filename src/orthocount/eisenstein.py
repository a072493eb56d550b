"""Closed-form Fourier coefficients of the weight 1+b/2 Eisenstein series
attached to a signature-(b,2) lattice, and of the Eisenstein part of theta
series of positive definite lattices in the fixed genus chain.

Every coefficient is an exact `Fraction`.  By Siegel-Weil it is a weighted
average of representation numbers, hence rational, and for det L > 0 the
closed form (Bruinier & Kuss, Manuscripta Math. 106, 2001) shows this factor
by factor:

- every L-value has the parity of its argument, so it is a rational times
  pi^s / sqrt(|D0|) (Washington, Thm. 4.2).  For even b it is
  L(1+b/2, chi_D) with D = (-1)^(1+b/2) 4 det L; for odd b,
  L((b+1)/2, chi_D) and zeta(b+1);
- the powers of pi cancel identically;
- the one radicand is |D0|/disc (even b) or 2 m0/(disc |D0|) (odd b), a
  rational square exactly when disc = det L p^k with k even.

Each coefficient is assembled in one pass over integers: a numerator and a
denominator, the exponent of sqrt(pi) and one radicand.  The assembly raises
InvariantError unless every L-value had a closed form, the pi exponent is 0
and the radicand is a rational square; `EisensteinContext` refuses
det L <= 0 and `eis_coeff_theta` an odd k up front.  The closed-form
L-values are cached per (s, D); each twisted divisor sum is an integer sum
over the divisors of m.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .arith import (
    InvariantError,
    chi_d,
    divisors,
    factorize,
    is_prime,
    lvalue_closed_form,
    moebius,
    sigma_s_chi,
    valuation,
)
from .density import local_density
from .lattice import det_and_disc_group, p_diagonalize, theta_table


class Coefficient(Fraction):
    """An Eisenstein coefficient: a plain exact Fraction.

    The four read-only names below exist only for the correctness check of
    the benchmark in `perfbench/workloads.py`, which reads a coefficient
    through them; they are constants, and nothing else should read them.
    """
    __slots__ = ()
    is_exact = True
    pi_half = 0
    sqrt_arg = 1

    def exact_fraction(self):
        return Fraction(self)


def _m_free(b):
    """2^(1+b/2) pi^(1+b/2) / Gamma(1+b/2) as (rational, pi_half, radicand):
    rational * pi^(pi_half/2) * sqrt(radicand)."""
    # 2^(1+b/2) = 2^n sqrt(2^(b%2)) with n = b//2 + 1
    n = b // 2 + 1
    if b % 2 == 0:
        return Fraction(2 ** n, math.factorial(n - 1)), b + 2, 1
    # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
    return Fraction(8 ** n * math.factorial(n), math.factorial(2 * n)), b + 1, 2


def _rational_sqrt(q):
    """sqrt(q) for the square q of a positive rational; InvariantError
    otherwise."""
    if q <= 0:
        raise InvariantError(f"sqrt({q}) of a non-positive rational")
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        raise InvariantError(f"sqrt({q}) is not rational")
    return Fraction(num, den)


@dataclass(frozen=True)
class EisensteinContext:
    """Ambient data feeding the coefficient formulas:
    EisensteinContext(b, p, detL).

    b >= 3 (weight is 1 + b/2), p an odd prime >= 5 where the lattice is
    self-dual, detL > 0 the determinant of the ambient gram (neither the
    signature (b, 2) lattice nor its positive definite companion has a
    negative one).  The order of the discriminant group is detL itself, and
    badPrimes, the primes dividing 2 detL, is computed from it.
    """
    b: int
    p: int
    detL: int
    badPrimes: frozenset = field(init=False)

    def __post_init__(self):
        if self.b < 3:
            raise ValueError("b must be >= 3")
        if self.p < 5 or not is_prime(self.p):
            raise ValueError("p must be an odd prime >= 5")
        if self.detL <= 0:
            raise ValueError("detL must be positive")
        object.__setattr__(self, "badPrimes",
                           frozenset(p for p, _ in factorize(2 * self.detL)))
        if self.p in self.badPrimes:
            raise ValueError("p must not divide 2 detL (self-duality at p)")

    @staticmethod
    def from_lattice(L, b, p):
        det, _ = det_and_disc_group(L)
        return EisensteinContext(b=b, p=p, detL=det)


def split_m0_f(m, two_det):
    """m = m0 * f^2 with gcd(f, 2 detL) = 1 and v_ell(m0) <= 1 off 2 detL."""
    f = 1
    for ell, e in factorize(m):
        if two_det % ell != 0:
            f *= ell ** (e // 2)
    return m // (f * f), f


def _character_d(b, m0, detL):
    if b % 2 == 0:
        return (-1) ** (1 + b // 2) * 4 * detL
    # Odd b: the exponent (b+1)/2 is forced by enumeration cross-checks on
    # class-number-one genera (rank-7 root and cubic lattices); it reflects
    # the sign the determinant carries in the source convention where the
    # lattice has two positive directions rather than two negative ones.
    D = (-1) ** ((b + 1) // 2) * 2 * m0 * detL
    if D % 4 not in (0, 1):
        # unreachable for genuinely even lattices of odd rank (their gram
        # determinant is always even), kept as a loud guard
        raise ValueError(
            f"character discriminant {D} is not 0 or 1 mod 4; the odd-b "
            "formula is outside its stated domain for this input")
    return D


def _coeff_common(b, m, detL, disc_order, densities, sign):
    """Shared assembly of the even/odd coefficient formulas, in one pass.

    densities: {ell: Fraction} over the primes dividing 2 detL.
    """
    const, pi_half, rad_num = _m_free(b)
    num, den, rad_den = sign * const.numerator, const.denominator, disc_order
    for d in densities.values():
        num, den = num * d.numerator, den * d.denominator
    if b % 2 == 0:
        D = _character_d(b, None, detL)
        sig = sigma_s_chi(m, -b // 2, D)
        # m^(b/2) sigma_{-b/2}(m, chi_D)
        num *= m ** (b // 2) * sig.numerator
        den *= sig.denominator
        lvalues = ((1 + b // 2, D, -1),)
    else:
        m0, f = split_m0_f(m, 2 * detL)
        D = _character_d(b, m0, detL)
        # f^b sum_{d | f} mu(d) chi_D(d) d^(-(b+1)/2) sigma_{-b}(f/d), since
        # f^b d^(-(b+1)/2) sigma_{-b}(f/d) = d^((b-1)/2) sigma_b(f/d)
        h = b // 2
        mob = sum(moebius(d) * chi_d(D, d) * d ** h * sigma_s_chi(f // d, b).numerator
                  for d in divisors(f))
        # m^(b/2) = m^h f sqrt(m0); the Moebius sum carries 1/f^b
        num *= mob * m ** h * f
        den *= f ** b
        rad_num *= m0
        # zeta(b+1) in the denominator, with the bad-prime Euler corrections
        lvalues = (((b + 1) // 2, D, 1), (b + 1, 1, -1))
        for ell in densities:
            num, den = num * ell ** (1 + b), den * (ell ** (1 + b) - 1)
    for s, D, e in lvalues:
        cf = lvalue_closed_form(s, D)
        if cf is None:
            raise InvariantError(f"L({s}, chi_{D}) has no closed form: the parity "
                                 "of chi_D differs from s")
        q, spow, d = cf
        if e > 0:
            num, den, rad_den = num * q.numerator, den * q.denominator, rad_den * d
        else:
            num, den, rad_num = num * q.denominator, den * q.numerator, rad_num * d
        pi_half += 2 * spow * e
    if pi_half != 0:
        raise InvariantError(f"pi^({Fraction(pi_half, 2)}) survives in a coefficient")
    root = _rational_sqrt(Fraction(rad_num, rad_den))
    return Coefficient(num * root.numerator, den * root.denominator)


def eis_coeff_global(ctx, local_densities, m):
    """Signed coefficient q_L(m) of the signature (b,2) Eisenstein series.

    local_densities maps each prime ell | 2 detL to delta(ell, L, m); the
    constant-term normalization makes the sign negative.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    missing = set(ctx.badPrimes) - set(local_densities)
    if missing:
        raise ValueError(f"missing local densities at {sorted(missing)}")
    dens = {ell: Fraction(local_densities[ell]) for ell in ctx.badPrimes}
    return _coeff_common(ctx.b, m, ctx.detL, ctx.detL, dens, sign=-1)


@lru_cache(maxsize=64)  # bounded: one entry per lattice, reused for every m
def _det_and_disc(L):
    return det_and_disc_group(L)


def eis_coeff_theta(ctx, Lprime, m):
    """Coefficient q_{L'}(m) of the Eisenstein part of theta(L').

    L' must be positive definite of rank b+2 and agree with the ambient
    lattice away from p, so det L' = det L p^k with k even (ValueError
    otherwise);
    its local densities at the bad primes of the ambient determinant are
    computed at stabilized depth.  Positive sign.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not Lprime.positive_definite:
        raise ValueError("L' must be positive definite")
    if Lprime.rank != ctx.b + 2:
        raise ValueError(f"L' must have rank b+2 = {ctx.b + 2}")
    det_p, disc_p = _det_and_disc(Lprime)
    # off p the determinant must be the ambient's: det L' = det L p^k
    k = valuation(det_p, ctx.p, 0)
    if det_p != ctx.detL * ctx.p ** k:
        raise ValueError(f"L' disagrees with the ambient away from p={ctx.p}: "
                         f"det L' = {det_p}, det L = {ctx.detL}")
    # at a prime ell != p where p is a non-square unit, det L' / det L = p^k
    # must be a square for L' and L to agree there
    if k % 2:
        raise ValueError(f"L' disagrees with the ambient away from p={ctx.p}: "
                         f"det L' / det L = {ctx.p}^{k} is an odd power of p")
    dens = {ell: local_density(ell, Lprime, m) for ell in ctx.badPrimes}
    if k > 0:
        dens[ctx.p] = local_density(ctx.p, Lprime, m)
    return _coeff_common(ctx.b, m, ctx.detL, disc_p, dens, sign=+1)


@dataclass
class CuspPart:
    residuals: list  # g(m) = r(m) - q_{L'}(m), m = 1..M, exact Fractions
    exponent: float | None  # fitted slope of log|g| vs log m, None if cusp-free
    cusp_free: bool
    bound: float  # (b+2)/4 + 0.25


def cusp_part(Lprime, ctx, M):
    """Residuals r(m) - q_{L'}(m) for m <= M and their fitted growth rate."""
    if Lprime.rank != ctx.b + 2:
        raise ValueError(f"rank(L') = {Lprime.rank} but b+2 = {ctx.b + 2}")
    table = theta_table(Lprime, M)
    residuals = [Fraction(table[m]) - eis_coeff_theta(ctx, Lprime, m)
                 for m in range(1, M + 1)]
    # the exact residuals decide; only the log-log fit is in floats
    pts = [(math.log(m), math.log(abs(g.numerator)) - math.log(g.denominator))
           for m, g in enumerate(residuals, start=1) if g != 0]
    bound = (ctx.b + 2) / 4 + 0.25
    if not pts:
        return CuspPart(residuals, None, True, bound)
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom if denom else 0.0
    return CuspPart(residuals, slope, False, bound)


@dataclass
class DensmRatio:
    ratio_sq: Fraction  # (q_{L'_n}(m) / |q_L(m)|)^2, exact
    bound_sq: Fraction  # squared right side of the sharpest applicable bound
    superspecial_branch: bool
    disc_p_val: int  # v_p of |(L'_n x Z_p)^dual / (L'_n x Z_p)|

    @property
    def holds(self):
        return self.ratio_sq <= self.bound_sq


def densm_ratio(ctx, Lprime_n, m):
    """Ratio q_{L'_n}(m)/|q_L(m)| against its decay bound, via the p-local
    quotient (all factors away from p cancel between the two formulas)."""
    if m % ctx.p == 0:
        raise ValueError("requires p not dividing m")
    p, b = ctx.p, ctx.b
    diag = p_diagonalize(Lprime_n, p, 2)
    disc_val = sum(v for _, v in diag)
    delta_p = local_density(p, Lprime_n, m)
    if b % 2 == 0:
        D = _character_d(b, None, ctx.detL)
        chi_p = chi_d(D, p)
        quotient = delta_p / (1 - chi_p * Fraction(1, p ** (1 + b // 2)))
    else:
        m0, _ = split_m0_f(m, 2 * ctx.detL)
        D = _character_d(b, m0, ctx.detL)
        chi_p = chi_d(D, p)
        quotient = delta_p * (1 - chi_p * Fraction(1, p ** ((b + 1) // 2))) \
            / (1 - Fraction(1, p ** (1 + b)))
    # quotient already includes everything except 1/sqrt(disc_p)
    ratio_sq = quotient ** 2 / Fraction(p ** disc_val)
    denom = 1 - Fraction(1, p ** ((b + 2) // 2))
    superspecial = disc_val == 2
    if superspecial:
        bound_sq = ((1 + Fraction(1, p)) / (p * denom)) ** 2
    else:
        bound_sq = (Fraction(2) / denom) ** 2 / Fraction(p ** disc_val)
    out = DensmRatio(ratio_sq, bound_sq, superspecial, disc_val)
    if not out.holds:
        raise InvariantError(f"squared density ratio {out.ratio_sq} exceeds its bound "
                             f"{out.bound_sq} (superspecial: {out.superspecial_branch})")
    return out


def e8_check(e8_lattice, mmax=20, b=6, p=7):
    """The end-to-end identity: theta coefficients of the rank-8 root lattice
    equal its representation numbers exactly."""
    ctx = EisensteinContext.from_lattice(e8_lattice, b=b, p=p)
    table = theta_table(e8_lattice, mmax)
    rows = []
    ok = True
    for m in range(1, mmax + 1):
        q = eis_coeff_theta(ctx, e8_lattice, m)
        rows.append((m, q, table[m]))
        ok = ok and q == table[m]
    return ok, rows
