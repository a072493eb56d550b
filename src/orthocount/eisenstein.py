"""Closed-form Fourier coefficients of the weight 1+b/2 Eisenstein series
attached to a signature-(b,2) lattice, and of the Eisenstein part of theta
series of positive definite lattices in the fixed genus chain.

Coefficients are *structured*: an exact rational times a half-integer power
of pi times the square root of an exact rational, with any L-value that has
no elementary closed form carried along symbolically and only resolved when
a float is requested.  This keeps identities like the rank-8 root-lattice
theta check exact rather than float-tolerant.
"""

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .arith import (
    InvariantError,
    chi_d,
    dirichlet_L,
    divisors,
    factorize,
    lvalue_closed_form,
    moebius,
    sigma_s_chi,
    squarefree_part,
)
from .density import local_density
from .lattice import det_and_disc_group, p_diagonalize, theta_table


@dataclass(frozen=True)
class MFValue:
    """sign * rat * pi^(pi_half/2) * sqrt(sqrt_arg) * prod L(s,chi_D)^e."""
    sign: int
    rat: Fraction
    pi_half: int = 0
    sqrt_arg: Fraction = Fraction(1)
    lfactors: tuple = ()  # ((s, D, exponent), ...) unresolved L-values

    @staticmethod
    def zero():
        return MFValue(0, Fraction(0))

    @property
    def is_zero(self):
        return self.sign == 0

    @property
    def is_exact(self):
        return not self.lfactors

    def exact_fraction(self):
        if not self.is_exact or self.pi_half != 0 or self.sqrt_arg != 1:
            raise ValueError("value is not a plain rational")
        return self.sign * self.rat

    def approx(self, eps=1e-12):
        if self.is_zero:
            return 0.0
        val = float(self.rat) * math.pi ** (self.pi_half / 2.0) * math.sqrt(self.sqrt_arg)
        for s, D, e in self.lfactors:
            val *= dirichlet_L(s, D, eps) ** e
        return self.sign * val

    def abs(self):
        return replace(self, sign=abs(self.sign))

    def _mul_rat(self, q):
        q = Fraction(q)
        if q == 0:
            return MFValue.zero()
        sign = self.sign * (1 if q > 0 else -1)
        return replace(self, sign=sign, rat=self.rat * abs(q))

    def _mul_sqrt(self, q):
        """Multiply by sqrt(q) for positive rational q, folding out squares."""
        q = Fraction(q)
        if q <= 0:
            raise InvariantError(f"sqrt({q}) of a non-positive rational")
        sn, fn = squarefree_part(q.numerator)
        sd, fd = squarefree_part(q.denominator)
        arg = self.sqrt_arg * Fraction(sn, sd)
        # arg may itself now contain squares across num/den; fold once more
        sn2, fn2 = squarefree_part(arg.numerator)
        sd2, fd2 = squarefree_part(arg.denominator)
        return replace(self, rat=self.rat * Fraction(fn, fd) * Fraction(fn2, fd2),
                       sqrt_arg=Fraction(sn2, sd2))

    def _mul_pi(self, half):
        return replace(self, pi_half=self.pi_half + half)

    def _mul_lvalue(self, s, D, exponent):
        """Multiply by L(s, chi_D)^exponent, folding a closed form if any."""
        cf = lvalue_closed_form(s, D)
        if cf is None:
            return replace(self, lfactors=self.lfactors + ((s, D, exponent),))
        q, spow, d = cf
        out = self._mul_rat(q ** exponent)._mul_pi(2 * spow * exponent)
        return out._mul_sqrt(Fraction(1, d) if exponent > 0 else Fraction(d))


def _gamma_half(n2):
    """Gamma(n2/2) as (rational, pi_half): Gamma = rational * pi^(pi_half/2)."""
    if n2 % 2 == 0:
        return Fraction(math.factorial(n2 // 2 - 1)), 0
    n = (n2 - 1) // 2  # Gamma(n + 1/2)
    return Fraction(math.factorial(2 * n), 4 ** n * math.factorial(n)), 1


@dataclass(frozen=True)
class EisensteinContext:
    """Ambient data feeding the coefficient formulas.

    b >= 3 (weight is 1 + b/2), p an odd prime >= 5 where the lattice is
    self-dual, detL the determinant of the ambient gram, discOrder the order
    of its discriminant group.
    """
    b: int
    p: int
    detL: int
    discOrder: int
    badPrimes: frozenset = field(default=None)

    def __post_init__(self):
        if self.b < 3:
            raise ValueError("b must be >= 3")
        if self.p < 5 or self.p % 2 == 0:
            raise ValueError("p must be an odd prime >= 5")
        if self.detL == 0:
            raise ValueError("detL must be nonzero")
        bad = frozenset(p for p, _ in factorize(2 * abs(self.detL)))
        if self.badPrimes is None:
            object.__setattr__(self, "badPrimes", bad)
        elif frozenset(self.badPrimes) != bad:
            raise ValueError("badPrimes must be the primes dividing 2 detL")
        if self.p in self.badPrimes:
            raise ValueError("p must not divide 2 detL (self-duality at p)")
        if self.discOrder != abs(self.detL):
            raise ValueError("discOrder must equal |detL|")

    @staticmethod
    def from_lattice(L, b, p):
        det, order = det_and_disc_group(L)
        return EisensteinContext(b=b, p=p, detL=det, discOrder=order)


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
    """Shared assembly of the even/odd coefficient formulas.

    densities: {ell: Fraction} over the primes dividing 2 detL.
    """
    val = MFValue(sign, Fraction(1))
    # 2^{1+b/2}: for odd b this is 2^{(b+1)/2} sqrt(2)
    if b % 2 == 0:
        val = val._mul_rat(Fraction(2) ** (1 + b // 2))
    else:
        val = val._mul_rat(Fraction(2) ** ((b + 1) // 2))._mul_sqrt(2)
    val = val._mul_pi(b + 2)
    # m^{b/2}
    val = val._mul_rat(Fraction(m) ** (b // 2))
    if b % 2:
        val = val._mul_sqrt(m)
    g_rat, g_pi = _gamma_half(b + 2)
    val = val._mul_rat(1 / g_rat)._mul_pi(-g_pi)
    val = val._mul_sqrt(Fraction(1, disc_order))
    for ell in sorted(densities):
        d = densities[ell]
        if d == 0:
            return MFValue.zero()
        val = val._mul_rat(d)
    if b % 2 == 0:
        D = _character_d(b, None, detL)
        sig = sigma_s_chi(m, -b // 2, D)
        if sig == 0:
            return MFValue.zero()
        val = val._mul_rat(sig)
        val = val._mul_lvalue(1 + b // 2, D, -1)
    else:
        m0, f = split_m0_f(m, 2 * abs(detL))
        D = _character_d(b, m0, detL)
        mob = Fraction(0)
        for d in divisors(f):
            mob += moebius(d) * chi_d(D, d) * Fraction(1, d ** ((b + 1) // 2)) \
                * sigma_s_chi(f // d, -b)
        if mob == 0:
            return MFValue.zero()
        val = val._mul_rat(mob)
        val = val._mul_lvalue((b + 1) // 2, D, 1)
        # zeta(b+1) in the denominator, with the bad-prime Euler corrections
        val = val._mul_lvalue(b + 1, 1, -1)
        for ell in sorted(densities):
            val = val._mul_rat(1 / (1 - Fraction(1, ell ** (1 + b))))
    return val


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
    return _coeff_common(ctx.b, m, ctx.detL, ctx.discOrder, dens, sign=-1)


def eis_coeff_theta(ctx, Lprime, m):
    """Coefficient q_{L'}(m) of the Eisenstein part of theta(L').

    L' must be positive definite of rank b+2 and agree with the ambient
    lattice away from p; its local densities at the bad primes of the
    ambient determinant are computed at stabilized depth.  Positive sign.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not Lprime.positive_definite:
        raise ValueError("L' must be positive definite")
    if Lprime.rank != ctx.b + 2:
        raise ValueError(f"L' must have rank b+2 = {ctx.b + 2}")
    det_p, disc_p = det_and_disc_group(Lprime)
    # off p, the determinant valuations must match the ambient's
    for ell in ctx.badPrimes:
        va = _val(abs(ctx.detL), ell)
        vp = _val(abs(det_p), ell)
        if va != vp:
            raise ValueError(f"L' disagrees with the ambient at ell={ell}")
    dens = {ell: local_density(ell, Lprime, m) for ell in ctx.badPrimes}
    if _val(abs(det_p), ctx.p) > 0:
        dens[ctx.p] = local_density(ctx.p, Lprime, m)
    return _coeff_common(ctx.b, m, ctx.detL, disc_p, dens, sign=+1)


def _val(n, p):
    v = 0
    while n % p == 0 and n:
        n //= p
        v += 1
    return v


@dataclass
class CuspPart:
    residuals: list  # g(m) = r(m) - q_{L'}(m), m = 1..M (Fraction or float)
    exponent: float | None  # fitted slope of log|g| vs log m, None if cusp-free
    cusp_free: bool
    bound: float  # (b+2)/4 + 0.25


def cusp_part(Lprime, ctx, M):
    """Residuals r(m) - q_{L'}(m) for m <= M and their fitted growth rate."""
    if Lprime.rank != ctx.b + 2:
        raise ValueError(f"rank(L') = {Lprime.rank} but b+2 = {ctx.b + 2}")
    table = theta_table(Lprime, M)
    residuals = []
    for m in range(1, M + 1):
        q = eis_coeff_theta(ctx, Lprime, m)
        if q.is_exact and q.pi_half == 0 and q.sqrt_arg == 1:
            residuals.append(Fraction(table[m]) - q.exact_fraction())
        else:
            residuals.append(table[m] - q.approx())
    pts = [(math.log(m), math.log(abs(float(g))))
           for m, g in enumerate(residuals, start=1)
           if abs(float(g)) > 1e-6]
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
        m0, _ = split_m0_f(m, 2 * abs(ctx.detL))
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


def representable_surrogate(ctx, L, m):
    """Desk-scale surrogate for global representability: m is p-free and
    every local density at the bad primes and at p is positive.  (For rank
    b+2 >= 5 maximal lattices this captures all large m.)"""
    if m % ctx.p == 0:
        return False
    for ell in sorted(ctx.badPrimes) + [ctx.p]:
        if local_density(ell, L, m) == 0:
            return False
    return True


def e8_check(e8_lattice, mmax=20, b=6, p=7):
    """The end-to-end identity: theta coefficients of the rank-8 root lattice
    equal its representation numbers exactly."""
    ctx = EisensteinContext.from_lattice(e8_lattice, b=b, p=p)
    table = theta_table(e8_lattice, mmax)
    rows = []
    ok = True
    for m in range(1, mmax + 1):
        q = eis_coeff_theta(ctx, e8_lattice, m)
        qe = q.exact_fraction()
        rows.append((m, qe, table[m]))
        ok = ok and qe == table[m]
    return ok, rows
