import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthocount.arith as arith
from orthocount.arith import (
    InvariantError,
    bernoulli,
    chi_d,
    dirichlet_L,
    divisors,
    factorize,
    fundamental_discriminant,
    kronecker,
    lvalue_closed_form,
    moebius,
    sigma_s_chi,
    squarefree_part,
    zeta_even_over_pi,
)


def jacobi_oracle(D, a):
    """Kronecker by definition: multiplicative over the factorization of a."""
    if a == 0:
        return 1 if D in (1, -1) else 0
    out = 1
    if a < 0:
        a = -a
        out = -1 if D < 0 else 1
    for p, e in factorize(a) if a > 1 else []:
        if p == 2:
            s = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
        else:
            s = pow(D, (p - 1) // 2, p)
            s = {0: 0, 1: 1, p - 1: -1}[s]
        out *= s ** e
    return out


class TestKronecker:
    def test_examples(self):
        assert kronecker(-4, 1) == 1
        assert kronecker(-4, 3) == -1
        assert kronecker(-4, 2) == 0

    def test_against_oracle(self):
        for D in range(-30, 31):
            for a in range(-30, 31):
                if D == 0 and a == 0:
                    continue
                assert kronecker(D, a) == jacobi_oracle(D, a), (D, a)

    def test_chi_requires_discriminant(self):
        with pytest.raises(ValueError):
            chi_d(2, 3)

    def test_periodicity(self):
        # chi_D is |D|-periodic on positive integers for D = 0,1 mod 4
        for D in (-4, -3, 5, 8, 12, -7, 21):
            for a in range(1, 4 * abs(D)):
                assert chi_d(D, a) == chi_d(D, a + abs(D))

    @given(st.integers(-200, 200), st.integers(-80, 80), st.integers(-80, 80))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_in_bottom(self, D, a, b):
        if D == 0 or a * b == 0:
            return
        assert kronecker(D, a * b) == kronecker(D, a) * kronecker(D, b)

    @given(st.integers(-120, 120), st.integers(-120, 120), st.integers(-80, 80))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_in_top(self, D1, D2, a):
        if D1 == 0 or D2 == 0 or (D1 * D2 == 0 and a == 0):
            return
        assert kronecker(D1 * D2, a) == kronecker(D1, a) * kronecker(D2, a)


class TestDivisorSums:
    def test_unit(self):
        assert sigma_s_chi(1, 5) == 1
        assert sigma_s_chi(1, -3, -4) == 1

    def test_sigma_minus3_of_6(self):
        assert sigma_s_chi(6, -3) == Fraction(252, 216)

    def test_character_kills(self):
        assert sigma_s_chi(3, 0, -4) == 0  # 1 + chi_{-4}(3) = 0

    def test_moebius(self):
        assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_squarefree_part(self):
        assert squarefree_part(72) == (2, 6)

    @given(st.integers(1, 3000), st.integers(1, 3000), st.integers(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_sigma_multiplicative_on_coprime(self, m, n, s):
        if math.gcd(m, n) != 1:
            return
        assert sigma_s_chi(m * n, s) == sigma_s_chi(m, s) * sigma_s_chi(n, s)
        assert sigma_s_chi(m * n, s, -4) == \
            sigma_s_chi(m, s, -4) * sigma_s_chi(n, s, -4)


class TestBernoulli:
    def test_small(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_zeta_even(self):
        assert zeta_even_over_pi(2) == Fraction(1, 6)
        assert zeta_even_over_pi(4) == Fraction(1, 90)
        assert zeta_even_over_pi(6) == Fraction(1, 945)


class TestFundamentalDiscriminant:
    def test_square(self):
        assert fundamental_discriminant(4) == (1, 2)
        assert fundamental_discriminant(1024) == (1, 32)

    def test_fundamental(self):
        assert fundamental_discriminant(-4) == (-4, 1)
        assert fundamental_discriminant(5) == (5, 1)
        assert fundamental_discriminant(-3) == (-3, 1)

    def test_composite(self):
        assert fundamental_discriminant(-16) == (-4, 2)
        assert fundamental_discriminant(45) == (5, 3)


class TestLValues:
    def test_zeta4(self):
        v = dirichlet_L(4, None, 1e-12)
        assert abs(v - math.pi ** 4 / 90) < 1e-11

    def test_catalan(self):
        v = dirichlet_L(2, -4, 1e-10)
        assert abs(v - 0.915965594177219015) < 1e-9

    def test_dominated_by_one(self):
        v = dirichlet_L(10, -4, 1e-10)
        assert 1 - 1e-2 < v < 1

    def test_rejects_s_at_most_1(self):
        with pytest.raises(ValueError):
            dirichlet_L(1, -4)

    def test_closed_form_matches_sum_odd_character(self):
        # L(3, chi_{-4}) = pi^3/32
        cf = lvalue_closed_form(3, -4)
        assert cf is not None
        q, s, d = cf
        assert q * math.pi ** s / math.sqrt(d) == pytest.approx(math.pi ** 3 / 32, rel=1e-12)
        assert dirichlet_L(3, -4, 1e-11) == pytest.approx(math.pi ** 3 / 32, abs=1e-10)

    def test_closed_form_matches_sum_even_character(self):
        # L(2, chi_5) = 4 pi^2 / (25 sqrt 5)
        cf = lvalue_closed_form(2, 5)
        q, s, d = cf
        val = float(q) * math.pi ** s / math.sqrt(d)
        assert val == pytest.approx(4 * math.pi ** 2 / (25 * math.sqrt(5)), rel=1e-12)
        assert dirichlet_L(2, 5, 1e-10) == pytest.approx(val, abs=1e-9)

    def test_parity_mismatch_is_none(self):
        assert lvalue_closed_form(2, -4) is None
        assert lvalue_closed_form(3, 5) is None

    def test_principal_closed_form(self):
        # L(4, chi_4) = (1 - 2^-4) zeta(4)
        q, s, d = lvalue_closed_form(4, 4)
        assert d == 1 and s == 4
        assert q == Fraction(15, 16) * Fraction(1, 90)
        assert dirichlet_L(4, 4, 1e-12) == pytest.approx(float(q) * math.pi ** 4, abs=1e-11)

    def test_imprimitive_euler_factors(self):
        # chi_{-16} = chi_{-4} away from 2 (2 already divides -4: no factor),
        # chi_{45} = chi_5 with the 3-factor removed
        q45, s, d = lvalue_closed_form(2, 45)
        q5 = lvalue_closed_form(2, 5)[0]
        assert d == 5 and q45 == q5 * (1 - Fraction(chi_d(5, 3), 9))
        assert dirichlet_L(2, 45, 1e-10) == pytest.approx(float(q45) * math.pi ** 2 / math.sqrt(5), abs=1e-9)


class TestTypedFailures:
    """Each broken invariant raises InvariantError."""

    def test_zeta_even_positive(self, monkeypatch):
        monkeypatch.setattr(arith, "bernoulli", lambda n: Fraction(0))
        with pytest.raises(InvariantError, match="is not positive"):
            zeta_even_over_pi(4)

    def test_fundamental_discriminant_sign(self, monkeypatch):
        # a negative "squarefree part" of |D| makes D0 < 0 < D
        monkeypatch.setattr(arith, "squarefree_part", lambda n: (-5, 1))
        with pytest.raises(InvariantError, match="differ in sign"):
            fundamental_discriminant(5)

    def test_fundamental_discriminant_square(self, monkeypatch):
        monkeypatch.setattr(arith, "squarefree_part", lambda n: (1, 1))
        with pytest.raises(InvariantError, match="is not a square"):
            fundamental_discriminant(5)
