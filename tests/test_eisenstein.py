import math
from fractions import Fraction

import pytest

import orthocount.eisenstein as eisenstein
from orthocount.arith import InvariantError
from orthocount.eisenstein import (
    CuspPart,
    EisensteinContext,
    MFValue,
    cusp_part,
    densm_ratio,
    e8_check,
    eis_coeff_global,
    eis_coeff_theta,
    split_m0_f,
)
from orthocount.lattice import QuadLattice, theta_table


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

E7_GRAM = [
    [2, -1, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, -1, 0, 0, 2],
]


class TestContext:
    def test_from_lattice(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        assert ctx.badPrimes == frozenset({2})

    def test_rejects_p_bad(self, z8):
        with pytest.raises(ValueError):
            EisensteinContext(b=6, p=5, detL=25, discOrder=25)

    def test_rejects_disc_mismatch(self):
        with pytest.raises(ValueError):
            EisensteinContext(b=6, p=7, detL=4, discOrder=8)


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
            assert q.exact_fraction() == table[m]

    def test_e7_odd_b_numeric(self):
        # rank 7: b = 5, det 2; the genus again has one class, so the odd-b
        # formula must reproduce rep counts (floats here: L has no closed form)
        L = QuadLattice.from_rows(E7_GRAM, positive_definite=True)
        ctx = EisensteinContext.from_lattice(L, b=5, p=7)
        table = theta_table(L, 8)
        for m in range(1, 9):
            q = eis_coeff_theta(ctx, L, m)
            assert q.approx(1e-10) == pytest.approx(table[m], rel=1e-8), m

    def test_rejects_wrong_rank(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        with pytest.raises(ValueError):
            eis_coeff_theta(ctx, QuadLattice.from_rows([[2]], positive_definite=True), 1)

    def test_rejects_indefinite(self):
        L = QuadLattice.from_rows([[0, 1], [1, 0]])
        ctx = EisensteinContext(b=3, p=5, detL=-1, discOrder=1)
        with pytest.raises(ValueError):
            eis_coeff_theta(ctx, L, 1)


class TestGlobalCoeff:
    def test_zero_density_kills(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        q = eis_coeff_global(ctx, {2: Fraction(0)}, 5)
        assert q.is_zero

    def test_sign_negative(self, e8):
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        q = eis_coeff_global(ctx, {2: Fraction(15, 16)}, 1)
        assert q.sign == -1
        assert q.abs().exact_fraction() == 240

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
            assert not q.is_zero
            ratios.append(q.abs().exact_fraction() / Fraction(m) ** 3)
        assert max(ratios) / min(ratios) < 3

    def test_recomputation_oracle_odd_b(self):
        # odd-b branch against a literal one-line re-evaluation
        L = QuadLattice.from_rows(E7_GRAM, positive_definite=True)
        ctx = EisensteinContext.from_lattice(L, b=5, p=11)
        from orthocount.arith import chi_d, dirichlet_L, divisors, moebius
        from orthocount.density import local_density
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
            assert q.approx(1e-11) == pytest.approx(expect, rel=1e-9), m


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
        assert isinstance(out.residuals[0], Fraction)  # exact L-value folding
        assert out.exponent <= out.bound

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
        ctx = EisensteinContext(b=6, p=5, detL=1, discOrder=1)
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
        ctx = EisensteinContext(b=3, p=5, detL=2, discOrder=2)
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
        ctx = EisensteinContext(b=6, p=5, detL=1, discOrder=1)
        monkeypatch.setattr(eisenstein, "local_density", lambda p, L, m: Fraction(3))
        with pytest.raises(InvariantError, match="superspecial: True"):
            densm_ratio(ctx, L, 1)


class TestRepresentableSurrogate:
    def test_e8_all_units_representable(self, e8):
        from orthocount.eisenstein import representable_surrogate
        ctx = EisensteinContext.from_lattice(e8, b=6, p=7)
        for m in range(1, 30):
            assert representable_surrogate(ctx, e8, m) == (m % 7 != 0)

    def test_local_obstruction(self):
        from orthocount.eisenstein import representable_surrogate
        # x^2 + y^2 + 9(z^2 + w^2 + u^2): sums of two squares miss 3 mod 9,
        # so m = 3 is locally obstructed at the bad prime 3
        rows = [[0] * 5 for _ in range(5)]
        rows[0][0] = rows[1][1] = 2
        for i in (2, 3, 4):
            rows[i][i] = 18
        L = QuadLattice.from_rows(rows, positive_definite=True)
        det = 2 * 2 * 18 * 18 * 18
        ctx = EisensteinContext(b=3, p=7, detL=det, discOrder=det)
        assert not representable_surrogate(ctx, L, 3)
        assert representable_surrogate(ctx, L, 1)
        assert not representable_surrogate(ctx, L, 7)  # p | m excluded


class TestMFValue:
    def test_sqrt_folding(self):
        v = MFValue(1, Fraction(1))._mul_sqrt(8)._mul_sqrt(2)
        assert v.rat == 4 and v.sqrt_arg == 1

    def test_sqrt_of_non_positive_raises(self):
        for q in (0, -3, Fraction(-1, 2)):
            with pytest.raises(InvariantError, match="non-positive"):
                MFValue(1, Fraction(1))._mul_sqrt(q)

    def test_not_exact_raises(self):
        v = MFValue(1, Fraction(1), pi_half=2)
        with pytest.raises(ValueError):
            v.exact_fraction()
