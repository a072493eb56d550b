import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthocount.arith as arith
from orthocount.arith import (
    InvariantError,
    bernoulli,
    chi_d,
    divisors,
    factorize,
    fundamental_discriminant,
    gen_bernoulli,
    kronecker,
    lvalue_closed_form,
    moebius,
    sigma_s_chi,
    squarefree_part,
    valuation,
)
from conftest import assert_fires_under_python_O


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


class TestValuation:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10 ** 30, 10 ** 30).filter(bool), st.integers(0, 40),
           st.sampled_from([2, 3, 5, 7, 11]))
    def test_exact_power(self, u, k, p):
        n = u * p ** k
        v = valuation(n, p, -1)
        assert v >= k and n % p ** v == 0 and n % p ** (v + 1) != 0

    def test_zero_maps_to_argument(self):
        assert [valuation(0, 3, z) for z in (0, 8)] == [0, 8]
        assert valuation(-2 * 3 ** 40, 3, 0) == 40


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
        # zeta(2k) is the trivial-character L-value, L = q pi^s / sqrt(1)
        assert lvalue_closed_form(2, 1) == (Fraction(1, 6), 2, 1)
        assert lvalue_closed_form(4, 1) == (Fraction(1, 90), 4, 1)
        assert lvalue_closed_form(6, 1) == (Fraction(1, 945), 6, 1)
        assert lvalue_closed_form(1, 1) is None  # the pole
        assert [zeta_even_over_pi(s) for s in (2, 4, 6)] == \
            [Fraction(1, 6), Fraction(1, 90), Fraction(1, 945)]


def ref_gen_bernoulli(n, D0):
    """B_{n,chi} as f^(n-1) sum_a chi(a) B_n(a/f), one Fraction polynomial
    per a: the former implementation, kept as the oracle."""
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


def per_a_gen_bernoulli(n, D0):
    """B_{n,chi} through S_j = sum_a chi(a) a^j with one Kronecker symbol per
    a <= |D0|: the former implementation."""
    f = abs(D0)
    sums = [0] * (n + 1)
    for a in range(1, f + 1):
        c = chi_d(D0, a)
        term = c
        for j in range(n + 1):
            sums[j] += term
            term *= a
    total = sum(math.comb(n, k) * f ** k * sums[n - k] * bernoulli(k)
                for k in range(n + 1))
    return Fraction(total, f)


def class_number(D):
    """h(D) for D < 0 by counting reduced forms (a, b, c), b^2 - 4ac = D."""
    h = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                h += 1
        a += 1
    return h


def fundamental_discriminants(bound):
    return [D for D in range(-bound, bound + 1)
            if D != 0 and D % 4 in (0, 1) and fundamental_discriminant(D) == (D, 1)]


class TestGenBernoulli:
    def test_matches_fraction_polynomial_reference(self):
        ds = fundamental_discriminants(60)
        assert 1 in ds and -59 in ds and 60 in ds
        for D0 in ds:
            for n in range(7):
                got = gen_bernoulli(n, D0)
                assert isinstance(got, Fraction)
                assert got == ref_gen_bernoulli(n, D0), (n, D0)

    def test_class_number_formula(self):
        # h(D) = -(w/2) B_{1,chi_D} for D < 0, w the number of units
        expected = {-3: Fraction(-1, 3), -4: Fraction(-1, 2), -7: -1, -8: -1,
                    -15: -2, -23: -3, -39: -4, -47: -5, -71: -7}
        for D, b1 in expected.items():
            assert gen_bernoulli(1, D) == b1, D
        for D in fundamental_discriminants(300):
            if D < 0:
                w = {-3: 6, -4: 4}.get(D, 2)
                assert -Fraction(w, 2) * gen_bernoulli(1, D) == class_number(D), D

    def test_fixed_values(self):
        assert gen_bernoulli(2, 5) == Fraction(4, 5)
        assert gen_bernoulli(3, -4) == Fraction(3, 2)
        # trivial character mod 1: B_{n,1} = B_n(1)
        assert gen_bernoulli(1, 1) == Fraction(1, 2)
        for n in range(13):
            assert gen_bernoulli(n, 1) == sum(math.comb(n, k) * bernoulli(k)
                                              for k in range(n + 1)), n

    def test_character_table_by_multiplicativity(self):
        # the sieve's values at composite a are products of Kronecker symbols
        # at primes; the per-a evaluation is the former implementation
        ds = fundamental_discriminants(400)
        assert 1 in ds and -399 in ds and 389 in ds
        for D0 in ds:
            assert arith._character_table(D0) == [chi_d(D0, a) for a in range(1, abs(D0) + 1)]
            for n in range(9):
                assert gen_bernoulli.__wrapped__(n, D0) == per_a_gen_bernoulli(n, D0), (n, D0)

    def test_character_table_guard(self, monkeypatch):
        # |D| at the guard is built, one past it is refused
        monkeypatch.setattr(arith, "CHARACTER_GUARD", 399)
        assert len(arith._character_table(-399)) == 399
        with pytest.raises(ValueError, match="chi_-403 has 403 entries"):
            arith._character_table(-403)

    def test_cache_repeat(self):
        first = gen_bernoulli(5, -31)
        hits = gen_bernoulli.cache_info().hits
        assert gen_bernoulli(5, -31) == first == ref_gen_bernoulli(5, -31)
        assert gen_bernoulli.cache_info().hits == hits + 1


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


def dirichlet_L(s, D=None, eps=1e-12):
    """L(s, chi_D) (or zeta(s) for D=None) to absolute error <= eps, s > 1,
    by direct summation: the numeric oracle for the closed forms.

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
        if D is None:
            N = int((1.0 / (eps * (s - 1))) ** (1.0 / (s - 1))) + 2
            total = 0.0
            for a in range(1, N + 1, 1 << 16):
                n = np.arange(a, min(N, a + (1 << 16) - 1) + 1, dtype=np.float64)
                total += float(np.sum(n ** (-s)))
            # Euler-Maclaurin style midpoint: int_{N+1/2}^inf x^-s dx is
            # accurate to O(N^{-s-2}), which halves the required N
            return total + (N + 0.5) ** (1.0 - s) / (s - 1.0)
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


def zeta_even_over_pi(s):
    """zeta(s)/pi^s as an exact Fraction, for even s >= 2, from B_s alone."""
    if s < 2 or s % 2:
        raise ValueError("closed form only at even s >= 2")
    B = bernoulli(s)
    val = (-1) ** (s // 2 + 1) * B * Fraction(2) ** (s - 1) / math.factorial(s)
    if val <= 0:
        raise InvariantError(f"zeta({s})/pi^{s} = {val} is not positive")
    return val


def ref_lvalue_closed_form(s, D):
    """The two-route lvalue_closed_form it replaced: zeta_even_over_pi for a
    principal D0 = 1, the generalized Bernoulli number otherwise."""
    if s < 1:
        return None
    D0, g = fundamental_discriminant(D)
    parity = 0 if D0 > 0 else 1
    if s % 2 != parity:
        return None
    if D0 == 1:
        q = zeta_even_over_pi(s)
        d = 1
    else:
        f = abs(D0)
        B = gen_bernoulli(s, D0)
        q = Fraction(2) ** s * abs(B) / (2 * math.factorial(s) * Fraction(f) ** s)
        d = f
        q = q * f
    extra = {p for p, _ in factorize(abs(D))} - {p for p, _ in factorize(abs(D0))}
    for p in sorted(extra):
        q *= (1 - Fraction(chi_d(D0, p), p ** s))
    return q, s, d


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

    def test_matches_two_route_reference(self):
        Ds = (1, 4, 9, 16, 25, 36, 64, 100, 144, 5, -4, -3, 8, 12, -20, 45, -16)
        pairs = [(s, D) for s in range(1, 21) for D in Ds]
        assert len(pairs) == 340
        for s, D in pairs:
            assert lvalue_closed_form(s, D) == ref_lvalue_closed_form(s, D), (s, D)
        # parity: a closed form at even s for D > 0, at odd s for D < 0
        assert sum(lvalue_closed_form(s, D) is not None for s, D in pairs) == 170

    def test_imprimitive_euler_factors(self):
        # chi_{-16} = chi_{-4} away from 2 (2 already divides -4: no factor),
        # chi_{45} = chi_5 with the 3-factor removed
        q45, s, d = lvalue_closed_form(2, 45)
        q5 = lvalue_closed_form(2, 5)[0]
        assert d == 5 and q45 == q5 * (1 - Fraction(chi_d(5, 3), 9))
        assert dirichlet_L(2, 45, 1e-10) == pytest.approx(float(q45) * math.pi ** 2 / math.sqrt(5), abs=1e-9)


class TestTypedFailures:
    """Each broken invariant raises InvariantError."""

    @staticmethod
    def refuses_vanishing_bernoulli(monkeypatch, s, D):
        monkeypatch.setattr(arith, "gen_bernoulli", lambda n, D0: Fraction(0))
        arith.lvalue_closed_form.cache_clear()
        try:
            with pytest.raises(InvariantError, match="= 0, but L"):
                lvalue_closed_form(s, D)
        finally:
            arith.lvalue_closed_form.cache_clear()

    def test_zeta_even_positive(self, monkeypatch):
        # zeta(4) = L(4, chi_1): a vanishing B_4 is caught
        self.refuses_vanishing_bernoulli(monkeypatch, 4, 1)

    @pytest.mark.parametrize("s,D", [(6, 16), (2, 5), (3, -4)])
    def test_lvalue_positive(self, monkeypatch, s, D):
        # every other character, imprimitive (16), even (5) and odd (-4)
        self.refuses_vanishing_bernoulli(monkeypatch, s, D)

    def test_lvalue_positive_under_python_O(self):
        assert_fires_under_python_O(
            "from fractions import Fraction\n"
            "import orthocount.arith as arith\n"
            "assert False, 'asserts are live'\n"
            "arith.gen_bernoulli = lambda n, D0: Fraction(0)\n",
            "arith.lvalue_closed_form(4, 1)\n")

    def test_fundamental_discriminant_sign(self, monkeypatch):
        # a negative "squarefree part" of |D| makes D0 < 0 < D
        monkeypatch.setattr(arith, "squarefree_part", lambda n: (-5, 1))
        with pytest.raises(InvariantError, match="differ in sign"):
            fundamental_discriminant(5)

    def test_fundamental_discriminant_square(self, monkeypatch):
        monkeypatch.setattr(arith, "squarefree_part", lambda n: (1, 1))
        with pytest.raises(InvariantError, match="is not a square"):
            fundamental_discriminant(5)
