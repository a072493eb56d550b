import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

import orthocount.arith as arith
import orthocount.eisenstein as eisenstein
from conftest import E8_GRAM, assert_fires_under_python_O
from orthocount.arith import (
    InvariantError,
    chi_d,
    divisors,
    factorize,
    lvalue_closed_form,
    moebius,
    sigma_s_chi,
    squarefree_part,
)
from orthocount.density import local_density
from orthocount.eisenstein import (
    Coefficient,
    CuspPart,
    EisensteinContext,
    _character_d,
    _rational_sqrt,
    cusp_part,
    densm_ratio,
    e8_check,
    eis_coeff_global,
    eis_coeff_theta,
    split_m0_f,
)
from orthocount.lattice import QuadLattice, det_and_disc_group, theta_table
from test_arith import dirichlet_L


def sigma3(m):
    return sum(d ** 3 for d in range(1, m + 1) if m % d == 0)


D8_GRAM = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, -1],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, 0, -1, 0, 2],
]

E6_GRAM = [
    [2, -1, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0],
    [0, -1, 2, -1, 0, -1],
    [0, 0, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, 0],
    [0, 0, -1, 0, 0, 2],
]

E7_GRAM = [
    [2, -1, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, -1, 0, 0, 2],
]


# reference: the step-by-step assembly that the one-pass _coeff_common
# replaced, kept verbatim as functions on MFValue; each step folds its own
# square root and carries an L-value without a closed form symbolically, so
# it also shows what an input outside the formula's domain would produce


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

    def exact_fraction(self):
        if self.lfactors or self.pi_half != 0 or self.sqrt_arg != 1:
            raise ValueError("value is not a plain rational")
        return self.sign * self.rat


def ref_mul_rat(v, q):
    q = Fraction(q)
    if q == 0:
        return MFValue.zero()
    sign = v.sign * (1 if q > 0 else -1)
    return replace(v, sign=sign, rat=v.rat * abs(q))


def ref_mul_sqrt(v, q):
    """Multiply by sqrt(q) for positive rational q, folding out squares."""
    q = Fraction(q)
    if q <= 0:
        raise InvariantError(f"sqrt({q}) of a non-positive rational")
    sn, fn = squarefree_part(q.numerator)
    sd, fd = squarefree_part(q.denominator)
    arg = v.sqrt_arg * Fraction(sn, sd)
    # arg may itself now contain squares across num/den; fold once more
    sn2, fn2 = squarefree_part(arg.numerator)
    sd2, fd2 = squarefree_part(arg.denominator)
    return replace(v, rat=v.rat * Fraction(fn, fd) * Fraction(fn2, fd2),
                   sqrt_arg=Fraction(sn2, sd2))


def ref_mul_pi(v, half):
    return replace(v, pi_half=v.pi_half + half)


def ref_mul_lvalue(v, s, D, exponent):
    """Multiply by L(s, chi_D)^exponent, folding a closed form if any."""
    cf = lvalue_closed_form(s, D)
    if cf is None:
        return replace(v, lfactors=v.lfactors + ((s, D, exponent),))
    q, spow, d = cf
    out = ref_mul_pi(ref_mul_rat(v, q ** exponent), 2 * spow * exponent)
    return ref_mul_sqrt(out, Fraction(1, d) if exponent > 0 else Fraction(d))


def ref_gamma_half(n2):
    """Gamma(n2/2) as (rational, pi_half): Gamma = rational * pi^(pi_half/2)."""
    if n2 % 2 == 0:
        return Fraction(math.factorial(n2 // 2 - 1)), 0
    n = (n2 - 1) // 2  # Gamma(n + 1/2)
    return Fraction(math.factorial(2 * n), 4 ** n * math.factorial(n)), 1


def ref_coeff_common(b, m, detL, disc_order, densities, sign):
    val = MFValue(sign, Fraction(1))
    # 2^{1+b/2}: for odd b this is 2^{(b+1)/2} sqrt(2)
    if b % 2 == 0:
        val = ref_mul_rat(val, Fraction(2) ** (1 + b // 2))
    else:
        val = ref_mul_sqrt(ref_mul_rat(val, Fraction(2) ** ((b + 1) // 2)), 2)
    val = ref_mul_pi(val, b + 2)
    # m^{b/2}
    val = ref_mul_rat(val, Fraction(m) ** (b // 2))
    if b % 2:
        val = ref_mul_sqrt(val, m)
    g_rat, g_pi = ref_gamma_half(b + 2)
    val = ref_mul_pi(ref_mul_rat(val, 1 / g_rat), -g_pi)
    val = ref_mul_sqrt(val, Fraction(1, disc_order))
    for ell in sorted(densities):
        d = densities[ell]
        if d == 0:
            return MFValue.zero()
        val = ref_mul_rat(val, d)
    if b % 2 == 0:
        D = _character_d(b, None, detL)
        sig = sigma_s_chi(m, -b // 2, D)
        if sig == 0:
            return MFValue.zero()
        val = ref_mul_rat(val, sig)
        val = ref_mul_lvalue(val, 1 + b // 2, D, -1)
    else:
        m0, f = split_m0_f(m, 2 * abs(detL))
        D = _character_d(b, m0, detL)
        mob = Fraction(0)
        for d in divisors(f):
            mob += moebius(d) * chi_d(D, d) * Fraction(1, d ** ((b + 1) // 2)) \
                * sigma_s_chi(f // d, -b)
        if mob == 0:
            return MFValue.zero()
        val = ref_mul_rat(val, mob)
        val = ref_mul_lvalue(val, (b + 1) // 2, D, 1)
        # zeta(b+1) in the denominator, with the bad-prime Euler corrections
        val = ref_mul_lvalue(val, b + 1, 1, -1)
        for ell in sorted(densities):
            val = ref_mul_rat(val, 1 / (1 - Fraction(1, ell ** (1 + b))))
    return val


class TestContext:
    def test_from_lattice(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        assert ctx.badPrimes == frozenset({2})

    def test_rejects_p_bad(self, z8):
        with pytest.raises(ValueError):
            EisensteinContext(b=6, p=5, detL=25)

    @pytest.mark.parametrize("p", [9, 15, 25, 49])
    def test_rejects_odd_composite_p(self, p):
        with pytest.raises(ValueError, match="p must be an odd prime >= 5"):
            EisensteinContext(b=6, p=p, detL=4)

    @pytest.mark.parametrize("det", [-4, -1, 0])
    def test_rejects_non_positive_det(self, det):
        with pytest.raises(ValueError, match="detL must be positive"):
            EisensteinContext(b=6, p=7, detL=det)
        indefinite = QuadLattice.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 2]])
        with pytest.raises(ValueError, match="detL must be positive"):
            EisensteinContext.from_lattice(indefinite, b=3, p=7)


class TestSplit:
    def test_split(self):
        assert split_m0_f(12, 2) == (12, 1)  # 2 | 2 detL stays in m0
        assert split_m0_f(18, 2) == (2, 3)
        assert split_m0_f(9, 6) == (9, 1)
        assert split_m0_f(50, 2) == (2, 5)


class TestThetaCoeff:
    def test_e8_flagship(self, e8):
        ok, rows = e8_check(e8, mmax=8)
        assert ok
        for m, q, r in rows:
            assert q == 240 * sigma3(m) == r

    def test_z8_pure_eisenstein(self, z8):
        # the genus of the odd unimodular rank-8 lattice has one class, so
        # residuals vanish identically
        ctx = EisensteinContext.from_lattice(z8, b=6, p=7)
        table = theta_table(z8, 12)
        for m in range(1, 13):
            q = eis_coeff_theta(ctx, z8, m)
            assert q == table[m]

    def test_e7_odd_b_numeric(self):
        # rank 7: b = 5, det 2; the genus again has one class, so the odd-b
        # formula must reproduce rep counts exactly: chi_D is odd and s = 3
        # is odd, so L(3, chi_D) has a closed form through B_{3,chi}
        L = QuadLattice.from_rows(E7_GRAM, positive_definite=True)
        ctx = EisensteinContext.from_lattice(L, b=5, p=7)
        table = theta_table(L, 8)
        for m in range(1, 9):
            q = eis_coeff_theta(ctx, L, m)
            assert isinstance(q, Fraction), m
            assert q == table[m], m

    def test_e7_character_table_guard(self):
        # D0 = -(10^6 + 3) at m = 10^6 + 3: its character table would pass
        # the guard by three entries, so the call is refused up front
        import time
        L = QuadLattice.from_rows(E7_GRAM, positive_definite=True)
        ctx = EisensteinContext.from_lattice(L, b=5, p=7)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than the 1e\\+06 guard"):
            eis_coeff_theta(ctx, L, 10 ** 6 + 3)
        assert time.perf_counter() - start < 0.5

    def test_determinant_read_once_per_lattice(self, monkeypatch):
        # det and discriminant group of L' come from one Smith form per
        # lattice; the valuation check against the ambient runs on every call
        calls = []
        real = eisenstein.det_and_disc_group
        monkeypatch.setattr(eisenstein, "det_and_disc_group",
                            lambda L: calls.append(L) or real(L))
        eisenstein._det_and_disc.cache_clear()
        L = QuadLattice.from_rows(D8_GRAM, positive_definite=True)
        for m in range(1, 6):
            eis_coeff_theta(EisensteinContext(b=6, p=7, detL=4), L, m)
        assert calls == [L]
        with pytest.raises(ValueError, match="disagrees"):
            eis_coeff_theta(EisensteinContext(b=6, p=7, detL=1), L, 1)
        assert calls == [L]

    def test_lvalue_computed_once_per_context(self, monkeypatch):
        # for even b the one L-value is L(1 + b/2, chi_D) with D = 4 det L;
        # each evaluation of lvalue_closed_form reduces D once
        calls = []
        real = arith.fundamental_discriminant
        monkeypatch.setattr(arith, "fundamental_discriminant",
                            lambda D: calls.append(D) or real(D))
        arith.lvalue_closed_form.cache_clear()
        L = QuadLattice.from_rows(D8_GRAM, positive_definite=True)
        ctx = EisensteinContext.from_lattice(L, b=6, p=7)
        theta = theta_table(L, 20)
        for m in range(1, 21):
            assert eis_coeff_theta(ctx, L, m) == theta[m]
        assert calls == [16]
        arith.lvalue_closed_form.cache_clear()

    def test_rejects_determinant_off_p(self, e8):
        # E6 + A2 has det 9: besides 7 it carries the prime 3, where E8 is
        # unimodular and no 3-adic density would be computed
        n = 6
        e6 = [[2 if i == j else -1 if abs(i - j) == 1 and max(i, j) < 5 else 0
               for j in range(n)] for i in range(n)]
        e6[2][5] = e6[5][2] = -1
        G = [[0] * 8 for _ in range(8)]
        for i in range(n):
            G[i][:n] = e6[i]
        G[6][6:], G[7][6:] = [2, -1], [-1, 2]
        L = QuadLattice.from_rows(G, positive_definite=True)
        assert det_and_disc_group(L) == (9, 9)
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        with pytest.raises(ValueError, match="disagrees with the ambient away from p=7"):
            eis_coeff_theta(ctx, L, 1)
        # a scaling by a power of p is allowed
        L7 = QuadLattice.from_rows([[7 * x for x in row] for row in e8.gram_rows()],
                                   positive_definite=True)
        assert eis_coeff_theta(ctx, L7, 1) == 0

    def test_rejects_wrong_rank(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        with pytest.raises(ValueError):
            eis_coeff_theta(ctx, QuadLattice.from_rows([[2]], positive_definite=True), 1)

    def test_rejects_indefinite(self):
        L = QuadLattice.from_rows([[0, 1], [1, 0]])
        ctx = EisensteinContext(b=3, p=5, detL=4)
        with pytest.raises(ValueError, match="L' must be positive definite"):
            eis_coeff_theta(ctx, L, 1)

    @pytest.mark.parametrize("r", [6, 7, 8])
    def test_rejects_odd_power_of_p(self, r):
        # 2 I_r and diag(2, ..., 2, 2 5^k) agree away from 5 only for even k:
        # for odd k, det L' / det L = 5^k is a non-square at every prime
        # where 5 is a non-residue, and the formula would return a surd
        ctx = EisensteinContext(b=r - 2, p=5, detL=2 ** r)
        for k in (1, 2, 3):
            L = QuadLattice.from_rows(
                [[2 * (i == j) * (5 ** k if i == r - 1 else 1) for j in range(r)]
                 for i in range(r)], positive_definite=True)
            for m in range(1, 13):
                if k % 2:
                    with pytest.raises(ValueError, match="disagrees with the ambient "
                                       "away from p=5: .* odd power of p"):
                        eis_coeff_theta(ctx, L, m)
                elif r % 2:
                    # odd b: the p-adic factor of L' has no independent check yet
                    with pytest.raises(ValueError, match="odd b = 5 with p = 5 dividing "
                                       "det L' is not supported"):
                        eis_coeff_theta(ctx, L, m)
                else:
                    assert isinstance(eis_coeff_theta(ctx, L, m), Fraction)

    @pytest.mark.parametrize("name, b, p, ms", [
        ("E8", 6, 5, list(range(1, 21)) + [25, 50, 125]),
        ("E8", 6, 7, range(1, 21)),
        ("D8", 6, 5, range(1, 21)),
        ("E6", 4, 5, range(1, 21)),
    ], ids=["5E8", "7E8", "5D8", "5E6"])
    def test_p_scaled_one_class_genus(self, name, b, p, ms):
        # p L is alone in its genus when L is, so theta(p L) = E exactly; with
        # p | det(p L) the density at p replaces the p-factor the formula
        # carries for a unimodular lattice, which counted p twice: 5 E8 at
        # m = 5 gave 240 * delta_5(E8, 5) = 240 * 78624/78125
        gram = {"E8": E8_GRAM, "D8": D8_GRAM, "E6": E6_GRAM}[name]
        L = QuadLattice.from_rows(gram, positive_definite=True)
        ctx = EisensteinContext.from_lattice(L, b=b, p=p)
        pL = QuadLattice.from_rows([[p * x for x in row] for row in gram],
                                   positive_definite=True)
        theta = theta_table(pL, max(ms))
        assert [eis_coeff_theta(ctx, pL, m) for m in ms] == [theta[m] for m in ms]
        assert theta[p] > 0

    def test_density_ratio_is_the_coefficient_ratio(self):
        # densm_ratio is the p-local quotient of q_{L'_n}(m) by |q_L(m)|: on
        # the levels of the formal curve (rank 6, b = 4, indices 1, 5^3, 5^6,
        # 5^9) it must equal the ratio of the two exact coefficients
        from orthocount.budget import formal_curve_sequence
        seq = formal_curve_sequence(5, 3, 1, 1, 1).sequence
        ctx = EisensteinContext.from_lattice(seq.ambient, b=4, p=5)
        ratios = []
        for m in (1, 2, 3, 6):
            dens = {ell: local_density(ell, seq.ambient, m) for ell in ctx.badPrimes}
            q = abs(eis_coeff_global(ctx, dens, m))
            for _, basis in seq.levels:
                L = basis.as_lattice()
                ratio = eis_coeff_theta(ctx, L, m) / q
                assert densm_ratio(ctx, L, m).ratio_sq == ratio ** 2, m
                ratios.append(ratio)
        assert ratios[:4] == [1, Fraction(1, 155), Fraction(1, 19375), Fraction(1, 2421875)]


class TestGlobalCoeff:
    def test_zero_density_kills(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        q = eis_coeff_global(ctx, {2: Fraction(0)}, 5)
        assert q == 0

    def test_sign_negative(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        q = eis_coeff_global(ctx, {2: Fraction(15, 16)}, 1)
        assert q < 0
        assert abs(q) == 240

    def test_missing_density_rejected(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        with pytest.raises(ValueError):
            eis_coeff_global(ctx, {}, 1)

    def test_growth_band(self, e8):
        # |q_L(m)| / m^{b/2} within a two-sided band for a principal character
        from orthocount.density import local_density
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        ratios = []
        for m in range(1, 201):
            q = eis_coeff_global(ctx, {2: local_density(2, e8, m)}, m)
            assert q != 0
            ratios.append(abs(q) / Fraction(m) ** 3)
        assert max(ratios) / min(ratios) < 3

    def test_recomputation_oracle_odd_b(self):
        # odd-b branch against a literal one-line re-evaluation
        L = QuadLattice.from_rows(E7_GRAM, positive_definite=True)
        ctx = EisensteinContext.from_lattice(L, b=5, p=11)
        for m in (1, 2, 4, 9, 18):
            dens = {ell: local_density(ell, L, m) for ell in ctx.badPrimes}
            q = eis_coeff_global(ctx, dens, m)
            m0, f = split_m0_f(m, 2 * abs(ctx.detL))
            D = (-1) ** 3 * 2 * m0 * ctx.detL
            mob = sum(moebius(d) * chi_d(D, d) * d ** -3.0
                      * float(sum(Fraction(1, e ** 5) for e in divisors(f // d)))
                      for d in divisors(f))
            zeta6 = math.pi ** 6 / 945
            expect = -(2 ** 3 * math.sqrt(2) * math.pi ** 3.5 * m ** 2.5
                       * dirichlet_L(3, D, 1e-11) * mob
                       / (math.gamma(3.5) * math.sqrt(2) * zeta6)
                       * float(dens[2]) / (1 - 2.0 ** -6))
            assert float(q) == pytest.approx(expect, rel=1e-9), m


class TestCuspPart:
    def test_e8_cusp_free(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        out = cusp_part(e8, ctx, 12)
        assert out.cusp_free and out.exponent is None
        assert all(g == 0 for g in out.residuals)

    def test_d8_also_cusp_free(self):
        # D8 is alone in its genus as well; short check at small M
        L = QuadLattice.from_rows(D8_GRAM, positive_definite=True)
        ctx = EisensteinContext.from_lattice(L, b=6, p=7)
        out = cusp_part(L, ctx, 10)
        assert out.cusp_free

    def test_genuine_cusp(self):
        # diag(1,1,1,1,1,16) has class number > 1: nonzero exact residuals
        rows = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
        rows[5][5] = 32
        L = QuadLattice.from_rows(rows, positive_definite=True)
        ctx = EisensteinContext.from_lattice(L, b=4, p=7)
        out = cusp_part(L, ctx, 60)
        assert not out.cusp_free
        assert any(g != 0 for g in out.residuals)
        assert all(isinstance(g, Fraction) for g in out.residuals)
        assert out.exponent <= out.bound

    def test_tiny_exact_residual_is_a_cusp(self, e8, monkeypatch):
        # q(3) = r(3) - 10^-9: the exact residual 10^-9 is not zero
        import orthocount.eisenstein as eisenstein
        exact = eisenstein.eis_coeff_theta
        monkeypatch.setattr(eisenstein, "eis_coeff_theta", lambda ctx, L, m: exact(
            ctx, L, m) - (Fraction(1, 10 ** 9) if m == 3 else 0))
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        out = cusp_part(e8, ctx, 4)
        assert out.residuals == [0, 0, Fraction(1, 10 ** 9), 0]
        assert not out.cusp_free and out.exponent is not None

    def test_rank_mismatch(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        with pytest.raises(ValueError):
            cusp_part(QuadLattice.from_rows([[2]], positive_definite=True), ctx, 5)


class TestDensmRatio:
    def test_self_dual_case(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        out = densm_ratio(ctx, e8, 3)
        assert out.disc_p_val == 0 and not out.superspecial_branch
        assert out.holds
        # disc factor 1: bound is exactly 2/(1 - p^-[(b+2)/2])
        denom = 1 - Fraction(1, 7 ** 4)
        assert out.bound_sq == (2 / denom) ** 2

    def test_superspecial_case(self, e8):
        # ambient with the t_P = 2 local block glued on: rank b+2 with p^2 det
        p = 5
        rows = [[0] * 8 for _ in range(8)]
        for i in range(6):
            rows[i][i] = 2
        rows[6][6] = 2 * p
        rows[7][7] = 2 * 2 * p  # lam^2 = 2 nonresidue mod 5
        L = QuadLattice.from_rows(rows, positive_definite=True)
        ctx = EisensteinContext(b=6, p=5, detL=1)
        out = densm_ratio(ctx, L, 1)
        assert out.superspecial_branch and out.disc_p_val == 2
        assert out.holds
        denom = 1 - Fraction(1, 5 ** 4)
        assert out.bound_sq == ((1 + Fraction(1, 5)) / (5 * denom)) ** 2

    def test_p_scaled_part(self):
        # rank-5 lattice with a 3-dimensional p-divisible block
        rows = [[0] * 5 for _ in range(5)]
        for i in range(3):
            rows[i][i] = 2 * 5
        rows[3][3] = 2
        rows[4][4] = 2
        Lx = QuadLattice.from_rows(rows, positive_definite=True)
        ctx = EisensteinContext(b=3, p=5, detL=2)
        out = densm_ratio(ctx, Lx, 3)
        assert out.disc_p_val == 3
        assert out.holds

    def test_rejects_p_dividing_m(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        with pytest.raises(ValueError):
            densm_ratio(ctx, e8, 14)


    def test_self_dual_bound_is_checked(self, e8, monkeypatch):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        monkeypatch.setattr(eisenstein, "local_density", lambda p, L, m: Fraction(3))
        with pytest.raises(InvariantError, match="superspecial: False"):
            densm_ratio(ctx, e8, 3)

    def test_superspecial_bound_is_checked(self, monkeypatch):
        p = 5
        rows = [[0] * 8 for _ in range(8)]
        for i in range(6):
            rows[i][i] = 2
        rows[6][6] = 2 * p
        rows[7][7] = 2 * 2 * p
        L = QuadLattice.from_rows(rows, positive_definite=True)
        ctx = EisensteinContext(b=6, p=5, detL=1)
        monkeypatch.setattr(eisenstein, "local_density", lambda p, L, m: Fraction(3))
        with pytest.raises(InvariantError, match="superspecial: True"):
            densm_ratio(ctx, L, 1)


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


class TestRepresentableSurrogate:
    def test_e8_all_units_representable(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        for m in range(1, 30):
            assert representable_surrogate(ctx, e8, m) == (m % 7 != 0)

    def test_local_obstruction(self):
        # x^2 + y^2 + 9(z^2 + w^2 + u^2): sums of two squares miss 3 mod 9,
        # so m = 3 is locally obstructed at the bad prime 3
        rows = [[0] * 5 for _ in range(5)]
        rows[0][0] = rows[1][1] = 2
        for i in (2, 3, 4):
            rows[i][i] = 18
        L = QuadLattice.from_rows(rows, positive_definite=True)
        det = 2 * 2 * 18 * 18 * 18
        ctx = EisensteinContext(b=3, p=7, detL=det)
        assert not representable_surrogate(ctx, L, 3)
        assert representable_surrogate(ctx, L, 1)
        assert not representable_surrogate(ctx, L, 7)  # p | m excluded


class TestExactRoot:
    def test_square_radicands(self):
        # sqrt(8) sqrt(2) = 4 comes from the one radicand 16
        assert _rational_sqrt(Fraction(8 * 2)) == 4
        assert _rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
        assert _rational_sqrt(Fraction(8, 18)) == Fraction(2, 3)
        assert _rational_sqrt(Fraction(1, 100)) == Fraction(1, 10)

    def test_sqrt_of_non_positive_raises(self):
        for q in (Fraction(0), Fraction(-3), Fraction(-1, 2)):
            with pytest.raises(InvariantError, match="non-positive"):
                _rational_sqrt(q)

    def test_surd_raises(self):
        for q in (Fraction(2), Fraction(8, 27), Fraction(1, 50), Fraction(4, 5)):
            with pytest.raises(InvariantError, match="is not rational"):
                _rational_sqrt(q)

    def test_non_positive_radicand_fires_under_python_O(self):
        # a negative discriminant order puts -1/4 under the square root
        assert_fires_under_python_O(
            "from fractions import Fraction\n"
            "from orthocount.eisenstein import _coeff_common\n"
            "assert False, 'asserts are live'\n",
            "_coeff_common(6, 1, 4, -4, {2: Fraction(1)}, 1)\n")

    def test_surd_radicand_fires_under_python_O(self):
        # disc = det L * 7: an odd power of p leaves sqrt(7) in the radicand
        assert_fires_under_python_O(
            "from fractions import Fraction\n"
            "from orthocount.eisenstein import _coeff_common\n"
            "assert False, 'asserts are live'\n",
            "_coeff_common(6, 1, 4, 4 * 7, {2: Fraction(1)}, 1)\n")

    def test_pi_power_fires_under_python_O(self):
        # an L-value reporting the wrong power of pi leaves a power of pi over
        assert_fires_under_python_O(
            "from fractions import Fraction\n"
            "import orthocount.eisenstein as E\n"
            "assert False, 'asserts are live'\n"
            "real = E.lvalue_closed_form\n"
            "def shifted(s, D):\n"
            "    q, spow, d = real(s, D)\n"
            "    return q, spow + 1, d\n"
            "E.lvalue_closed_form = shifted\n",
            "E._coeff_common(6, 1, 4, 4, {2: Fraction(1)}, 1)\n")

    def test_missing_closed_form_raises(self, monkeypatch):
        monkeypatch.setattr(eisenstein, "lvalue_closed_form", lambda s, D: None)
        with pytest.raises(InvariantError, match="no closed form"):
            eisenstein._coeff_common(6, 1, 4, 4, {2: Fraction(1)}, 1)


def _theta_densities(ctx, L, m):
    """The local densities eis_coeff_theta feeds to the assembly."""
    dens = {ell: local_density(ell, L, m) for ell in ctx.badPrimes}
    if det_and_disc_group(L)[0] % ctx.p == 0:
        dens[ctx.p] = local_density(ctx.p, L, m)
    return dens


def _random_inputs(rng, in_domain):
    """Arguments of _coeff_common.  In domain: detL > 0, even for odd b as
    for every even lattice of odd rank, and disc = detL p^(2j).  Off domain:
    detL < 0 ("det") or disc = detL p^(2j+1) ("odd power")."""
    b = rng.randint(3, 10)
    m = rng.randint(1, 40)
    detL = rng.randint(1, 12) * (2 if b % 2 else rng.randint(1, 2))
    primes = [ell for ell, _ in factorize(2 * detL)]
    if rng.random() < 0.3:
        primes.append(rng.choice([5, 7, 11]))
    dens = {ell: Fraction(rng.randint(-2, 40), rng.choice([1, 2, 3, 4, 8, 9, 25, 27, 49]))
            for ell in primes}
    kind, disc = "in", detL * rng.choice([1, 1, 1, 25, 49])
    if not in_domain:
        kind = rng.choice(["det", "odd power"])
        if kind == "det":
            detL = -detL
        else:
            disc *= rng.choice([5, 7, 125])
    return kind, (b, m, detL, disc, dens, rng.choice([-1, 1]))


class TestAssemblyAgainstReference:
    @pytest.mark.parametrize("name", ["D8", "E7", "E8", "Z8"])
    def test_root_lattices_match_reference(self, name):
        gram, b = {"D8": (D8_GRAM, 6), "E7": (E7_GRAM, 5), "E8": (E8_GRAM, 6),
                   "Z8": ([[2 * (i == j) for j in range(8)] for i in range(8)], 6)}[name]
        L = QuadLattice.from_rows(gram, positive_definite=True)
        ctx = EisensteinContext.from_lattice(L, b=b, p=7)
        for m in range(1, 121):
            q = eis_coeff_theta(ctx, L, m)
            ref = ref_coeff_common(b, m, ctx.detL, ctx.detL,
                                   _theta_densities(ctx, L, m), +1)
            assert type(q) is Coefficient, (name, m)
            assert q == ref.exact_fraction(), (name, m)

    def test_odd_det_with_odd_b_is_refused(self):
        # no even lattice of odd rank has an odd determinant: chi_D would
        # need D = -6, which is not a discriminant; the reference agrees
        args = (5, 1, 3, 3, {2: Fraction(1), 3: Fraction(1)}, 1)
        for assemble in (eisenstein._coeff_common, ref_coeff_common):
            with pytest.raises(ValueError, match="-6 is not 0 or 1 mod 4"):
                assemble(*args)

    def test_random_inputs_match_reference(self):
        rng = random.Random(20261019)
        kinds = set()
        for i in range(400):
            kind, args = _random_inputs(rng, in_domain=i % 2 == 0)
            want = ref_coeff_common(*args)
            if kind == "in":
                got = eisenstein._coeff_common(*args)
                assert type(got) is Coefficient, args
                assert got == want.exact_fraction(), args
                kinds.add((kind, want.sign))
                continue
            # the reference shows the value is not rational (or is zero);
            # the one exact path refuses it
            assert want.sign == 0 or want.lfactors or want.sqrt_arg != 1, args
            with pytest.raises(InvariantError):
                eisenstein._coeff_common(*args)
            kinds.add(kind)
        # both signs and zeros in domain, both kinds of draw off it
        assert {("in", 1), ("in", -1), ("in", 0), "det", "odd power"} <= kinds, kinds
