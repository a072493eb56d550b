import dataclasses
import math
import time
from fractions import Fraction

import pytest

import orthocount.budget as budget
from orthocount.arith import InvariantError, is_prime
from orthocount.budget import (
    ContradictionShape,
    CurveBudget,
    NestedLatticeSequence,
    certify_membership,
    contradiction_shape,
    formal_curve_sequence,
    g_P,
    local_intersection,
    ssmain_bound,
    truncation_cap,
)
from orthocount.lattice import QuadLattice, SublatticeBasis, identity_basis, rep_count

from conftest import assert_fires_under_python_O
from orthocount.cli import main

X2Y2 = QuadLattice.from_rows([[2, 0], [0, 2]], positive_definite=True)


def worked_sequence():
    """L1 = Z^2 (x^2+y^2); L2 = span{(0,1),(5,0)} from n=2; L3 = span{(0,5),(5,0)}."""
    b1 = identity_basis(X2Y2)
    b2 = SublatticeBasis.from_cols(X2Y2, [[0, 5], [1, 0]])
    b3 = SublatticeBasis.from_cols(X2Y2, [[0, 5], [5, 0]])
    return NestedLatticeSequence(X2Y2, ((1, b1), (2, b2), (3, b3)))


class TestLocalIntersection:
    def test_worked_example(self):
        seq = worked_sequence()
        # m=1: 4 (level 1) + 2 (level 2) + 0 (levels 3..10)
        assert local_intersection(seq, 1, 10) == 6

    def test_unrepresented(self):
        seq = worked_sequence()
        assert local_intersection(seq, 3, 10) == 0

    def test_constant_sequence(self):
        seq = NestedLatticeSequence(X2Y2, ((1, identity_basis(X2Y2)),))
        assert local_intersection(seq, 1, 7) == 4 * 7

    def test_monotone_under_shrinkage(self):
        seq = worked_sequence()
        smaller = NestedLatticeSequence(
            X2Y2, ((1, seq.levels[0][1]), (2, seq.levels[2][1]),
                   (3, seq.levels[2][1])))
        for m in (1, 2, 4, 5):
            assert local_intersection(smaller, m, 10) <= local_intersection(seq, m, 10)

    def test_rejects_noncontaining(self):
        b1 = SublatticeBasis.from_cols(X2Y2, [[2, 0], [0, 1]])
        b2 = SublatticeBasis.from_cols(X2Y2, [[3, 0], [0, 1]])  # not inside b1
        with pytest.raises(ValueError):
            NestedLatticeSequence(X2Y2, ((1, b1), (2, b2)))


class TestCaps:
    def test_scaling(self):
        assert truncation_cap(1, 4, 100) == 40000
        a, b = truncation_cap(1, 4, 50), truncation_cap(1, 4, 100)
        assert abs(b - 4 * a) <= 4

    def test_odd_b_exact(self):
        # (2X)^(b/2) is irrational for odd b; rounding it through floats gave
        # 9 and 33 for these two
        assert truncation_cap(1, 3, 2) == 8
        assert truncation_cap(1, 5, 2) == 32
        for c1 in (1, 3, Fraction(1, 3), Fraction(7, 2)):
            for b in range(1, 10):
                for X in (1, 2, 3, 8, Fraction(1, 2), 10 ** 6 + 1):
                    n = truncation_cap(c1, b, X)
                    square = Fraction(c1) ** 2 * Fraction(2 * X) ** b
                    assert n * n >= square > (n - 1) ** 2, (c1, b, X)

    def test_no_vectors_beyond_cap(self):
        seq = worked_sequence()
        X = 2
        cap = truncation_cap(Fraction(5), 2, X)
        last = seq.levels[-1][1].as_lattice()
        # the last level represents nothing <= 2X once mu_1^2 > 2X;
        # here mu_1^2 = 25 > 4, so the deep tail is empty
        for m in range(0, 2 * X + 1):
            if m:
                assert rep_count(last, m) == 0


class TestGP:
    def test_arithmetic(self):
        assert g_P(4, 5, 100) == 100
        assert g_P(0, 5, 12345) == 0

    def test_ledger_identity(self):
        pts = (("P1", 4, "superspecial"), ("P2", 8, "nonss-supersingular"),
               ("Q", 0, "ordinary"))
        budget = CurveBudget(5, Fraction(3), pts)
        assert budget.is_complete()  # 12 = 4 * 3
        total, target, ok = budget.ledger_identity(Fraction(100))
        assert ok and total == target == 300

    def test_incomplete_ledger(self):
        budget = CurveBudget(5, Fraction(3), (("P1", 5, "superspecial"),))
        assert not budget.is_complete()
        _, _, ok = budget.ledger_identity(Fraction(7))
        assert not ok

    def test_type_validation(self):
        with pytest.raises(ValueError):
            CurveBudget(5, Fraction(1), (("P", 1, "ordinary"),))


class TestSsmain:
    def test_printed_values_p5(self):
        val, ceil = ssmain_bound(5, 6, "nonss")
        assert val == Fraction(7, 20) and ceil == Fraction(11, 12)
        val, ceil = ssmain_bound(5, 6, "ssp1")
        assert val == Fraction(61, 62) == ceil
        val, ceil = ssmain_bound(5, 6, "ssp2")
        assert val == Fraction(17, 20) == ceil

    def test_b3_branch(self):
        val, ceil = ssmain_bound(5, 3, "ssp1")
        assert ceil == Fraction(11, 12) and val <= ceil

    def test_all_primes_under_ceiling(self):
        primes = [q for q in range(5, 98) if is_prime(q)]
        for case in ("nonss", "ssp1", "ssp2"):
            vals = [ssmain_bound(q, 6, case)[0] for q in primes]
            ceil = ssmain_bound(5, 6, case)[1]
            assert all(v <= ceil for v in vals)
            # strictly decreasing in p
            assert all(a > b for a, b in zip(vals, vals[1:])), case

    def test_equality_exactly_at_p5(self):
        for case in ("ssp1", "ssp2"):
            v5, ceil = ssmain_bound(5, 6, case)
            assert v5 == ceil
            v7, _ = ssmain_bound(7, 6, case)
            assert v7 < ceil

    def test_ceiling_is_checked(self, monkeypatch):
        monkeypatch.setitem(budget.SSMAIN_CEILINGS, "ssp2", Fraction(1, 2))
        with pytest.raises(InvariantError, match="exceeds its ceiling 1/2"):
            ssmain_bound(5, 6, "ssp2")
        assert ssmain_bound(5, 6, "nonss")[1] == Fraction(11, 12)

    def test_ceiling_fires_under_python_O(self):
        assert_fires_under_python_O(
            "from fractions import Fraction\n"
            "import orthocount.budget as budget\n"
            "assert False, 'asserts are live'\n"
            "budget.SSMAIN_CEILINGS['nonss'] = Fraction(0)\n",
            "budget.ssmain_bound(5, 6, 'nonss')\n")

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            ssmain_bound(3, 6, "nonss")


def sserror_bound(T, b, X, c3):
    """Float oracle: the leading error term c3 X^{(b+2)/2} / T^{2/b} of the
    deep-level tail, with the subleading scale X^{(b+1)/2} alongside."""
    if T < 1 or X < 1:
        raise ValueError("T and X must be positive")
    lead = float(c3) * X ** ((b + 2) / 2) / T ** (2 / b)
    return lead, X ** ((b + 1) / 2)


def solve_T_for_target(target, b, X, c3):
    """Float oracle: the minimal T making the leading error term <= target,
    by a float estimate and a search around it.  Near the boundary the
    estimate can land one low and the search then steps back one integer
    at a time; call it only where rounding cannot decide."""
    if target <= 0:
        raise ValueError("target must be positive")
    T = max(1, math.ceil((float(c3) * X ** ((b + 2) / 2) / target) ** (b / 2)))
    while sserror_bound(T, b, X, c3)[0] > target:
        T *= 2
    while T > 1 and sserror_bound(T - 1, b, X, c3)[0] <= target:
        T -= 1
    return T


def shape_for_target(target, b, X, c3):
    """contradiction_shape at the G whose target (alpha' - alpha) G is target
    (non-superspecial case, p = 5)."""
    alpha, _ = ssmain_bound(5, b, "nonss")
    return contradiction_shape(5, b, "nonss", Fraction(target) / ((1 - alpha) / 2), X, c3)


def assert_least(shape, target, b, X, c3):
    """T^4 target^{2b} >= c3^{2b} X^{b(b+2)} > (T-1)^4 target^{2b}, and the
    shape holds exactly when the first comparison is strict."""
    lead = Fraction(c3) ** (2 * b) * Fraction(X) ** (b * (b + 2))
    bound = Fraction(target) ** (2 * b)
    T = shape.T
    assert T ** 4 * bound >= lead, (target, b, X, c3)
    assert T == 1 or lead > (T - 1) ** 4 * bound, (target, b, X, c3)
    assert shape.holds == (lead < T ** 4 * bound)


def float_oracle_T(T, target, b, X, c3):
    """The float oracle's least T, or None where the float error at T or at
    T - 1 lies within rounding (relative 1e-9) of the target."""
    target = float(target)

    def near(t):
        return abs(sserror_bound(t, b, X, float(c3))[0] / target - 1) < 1e-9
    if near(T) or T > 1 and near(T - 1):
        return None
    return solve_T_for_target(target, b, X, float(c3))


class TestSsError:
    def test_limit(self):
        a, _ = sserror_bound(10 ** 6, 4, 100, 1)
        b, _ = sserror_bound(10 ** 9, 4, 100, 1)
        assert b < a
        # a smaller target needs a deeper truncation
        assert shape_for_target(Fraction(1, 10), 4, 100, 1).T \
            > shape_for_target(10, 4, 100, 1).T

    def test_printed_arithmetic(self):
        lead, _ = sserror_bound(32, 4, 16, 1)
        assert lead == pytest.approx(4096 / 32 ** 0.5, rel=1e-12)
        # 4096 / T^{1/2} <= 64 from T = 4096 on, with equality there
        shape = shape_for_target(64, 4, 16, 1)
        assert shape.T == 4096 == solve_T_for_target(64.0, 4, 16, 1)
        assert not shape.holds

    def test_solve_roundtrip(self):
        for target in (10.0, 123.4, 5e6):
            shape = shape_for_target(target, 4, 100, 1)
            assert_least(shape, target, 4, 100, 1)
            assert shape.T == solve_T_for_target(target, 4, 100, 1)

    @pytest.mark.parametrize("target, b, X, c3, T", [
        (Fraction(1, 2), 3, 1, 2, 8),
        (10, 3, 100, 1, 10 ** 6),
        (Fraction(1, 1000), 4, 100, 1, 10 ** 18),
        (Fraction(1, 1000), 6, 1, 1, 10 ** 9),
    ])
    def test_float_boundaries(self, target, b, X, c3, T):
        # the float search returned 9, 1000001 and 999999999999999680 for the
        # first three, and does not finish on the fourth: each boundary is
        # an exact equality
        shape = shape_for_target(target, b, X, c3)
        assert shape.T == T and not shape.holds
        assert_least(shape, target, b, X, c3)

    def test_least_on_a_grid(self):
        compared = 0
        for b in (1, 2, 3, 4, 6):
            for X in (1, 2, Fraction(7, 2), 100):
                for c3 in (Fraction(1, 3), 1, 2):
                    for target in (Fraction(1, 1000), Fraction(1, 2), 10,
                                   Fraction(1234, 10), 5 * 10 ** 6):
                        shape = shape_for_target(target, b, X, c3)
                        assert_least(shape, target, b, X, c3)
                        oracle = float_oracle_T(shape.T, target, b, X, c3)
                        if oracle is not None:
                            assert shape.T == oracle, (target, b, X, c3)
                            compared += 1
        assert compared >= 200

    def test_input_checks(self):
        for G, X, c3, b in ((0, 100, 1, 6), (-1, 100, 1, 6), (1, Fraction(1, 2), 1, 6),
                            (1, 100, -1, 6), (1, 100, 1, 0)):
            with pytest.raises(ValueError):
                contradiction_shape(5, b, "nonss", G, X, c3)


class TestFormalCurve:
    def test_published_numbers(self):
        curve = formal_curve_sequence(5, 1, 1, 1, j_max=1)
        assert curve.n_seq[:3] == [0, 1, 25]
        assert curve.m_values[0] == 2      # Q(e + f)
        assert curve.m_values[1] == 37     # Q(e + 6f), mu = 1 + 5 mod 5^25
        assert curve.ip_exponents == [1, 25]

    def test_membership_certificates(self):
        curve = formal_curve_sequence(5, 1, 1, 1, j_max=1)
        m0, e0 = certify_membership(curve, 0)
        assert (m0, e0) == (2, 1)
        m1, e1 = certify_membership(curve, 1)
        assert (m1, e1) == (37, 25)

    def test_membership_failure_is_typed(self):
        curve = formal_curve_sequence(5, 1, 1, 1, j_max=1)
        broken = dataclasses.replace(curve, mu_partial=[curve.mu_partial[0],
                                                        curve.mu_partial[1] + 5])
        assert certify_membership(broken, 0) == (2, 1)
        with pytest.raises(InvariantError, match="level exponent 2"):
            certify_membership(broken, 1)

    @staticmethod
    def membership_by_loop(curve, j):
        """Oracle: check every level exponent k <= n_{j+1} in turn."""
        p, nj1, mu_j = curve.p, curve.n_seq[j + 1], curve.mu_partial[j]
        for k in range(1, nj1 + 1):
            if (mu_j - sum(p ** n for n in curve.n_seq if n < k)) % p ** k != 0:
                raise InvariantError(f"membership fails at level exponent {k}")
        return curve.m_values[j], nj1

    @pytest.mark.parametrize("raise_by, k", [(2, 1), (5, 2), (5 ** 3, 4), (5 ** 24, 25)])
    def test_membership_matches_the_loop(self, raise_by, k):
        curve = formal_curve_sequence(5, 1, 1, 1, j_max=1)
        broken = dataclasses.replace(curve, mu_partial=[curve.mu_partial[0],
                                                        curve.mu_partial[1] + raise_by])
        messages = []
        for check in (certify_membership, self.membership_by_loop):
            with pytest.raises(InvariantError) as err:
                check(broken, 1)
            messages.append(str(err.value))
        assert messages == [f"membership fails at level exponent {k}"] * 2

    def test_membership_sweep(self):
        for p in (5, 7):
            curve = formal_curve_sequence(p, 1, 1, 1, j_max=1)
            for delta in range(-60, 61):
                broken = dataclasses.replace(curve, mu_partial=[
                    mu + delta for mu in curve.mu_partial])
                for j in (0, 1):
                    try:
                        want = self.membership_by_loop(broken, j)
                    except InvariantError as e:
                        with pytest.raises(InvariantError, match=f"{e}$"):
                            certify_membership(broken, j)
                    else:
                        assert certify_membership(broken, j) == want

    def test_jmax2_is_quick(self, capsys):
        t0 = time.perf_counter()
        assert main(["budget", "formal-curve", "--jmax", "2"]) == 0
        assert time.perf_counter() - t0 < 1
        rows = capsys.readouterr().out.splitlines()
        assert rows[-1].startswith(f"2,{5 ** 50},") and rows[-1].endswith(f",5^{5 ** 50}")

    def test_exponential_growth_shape(self):
        # log m_j ~ 2 n_j log p while the intersection exponent is n_{j+1} = p^{2 n_j}
        curve = formal_curve_sequence(5, 1, 1, 1, j_max=2)
        for j in (0, 1):
            n_j, n_j1 = curve.n_seq[j], curve.n_seq[j + 1]
            assert n_j1 == 5 ** (2 * n_j)
            assert curve.m_values[j] <= 4 * 5 ** (2 * n_j)

    def test_explicit_levels_consistent(self):
        curve = formal_curve_sequence(5, 1, 1, 1, j_max=1)
        seq = curve.sequence
        # v = e + 6f of norm 37 is in every materialized level up to n = 26
        v = [1, 6]
        for start, basis in seq.levels:
            if start <= 26:
                assert basis.contains(v), start
        # and the level count certifies i_P(Z(37)) >= 26 within the window
        assert local_intersection(seq, 37, 26) >= 26

    def test_p_power_indices(self):
        curve = formal_curve_sequence(5, 2, 1, 2, j_max=0)
        for _, basis in curve.sequence.levels:
            idx = basis.index_in_ambient()
            while idx % 5 == 0:
                idx //= 5
            assert idx == 1

    def test_digit_budget_guard(self):
        with pytest.raises(ValueError):
            formal_curve_sequence(5, 1, 1, 1, j_max=3)


class TestContradictionShape:
    def test_each_case_contradicts(self):
        for case in ("nonss", "ssp1", "ssp2"):
            shape = contradiction_shape(5, 6, case, global_sum=Fraction(10 ** 9),
                                        X=100, c3=1)
            assert shape.alpha < shape.alpha_prime < 1
            assert shape.holds, case

    def test_fields_are_exact(self):
        assert [f.name for f in dataclasses.fields(ContradictionShape)] == \
            ["alpha", "alpha_prime", "T", "holds"]
        shape = contradiction_shape(5, 6, "ssp2", Fraction(10 ** 9), 100, 1)
        assert (shape.alpha, shape.alpha_prime) == (Fraction(17, 20), Fraction(37, 40))
        assert type(shape.T) is int and type(shape.holds) is bool

    def test_error_absorbed_by_T(self):
        shape = contradiction_shape(5, 6, "ssp2", Fraction(10 ** 9), 100, 1)
        target = (shape.alpha_prime - shape.alpha) * 10 ** 9
        assert sserror_bound(shape.T, 6, 100, 1)[0] <= float(target)
        assert sserror_bound(shape.T - 1, 6, 100, 1)[0] > float(target)

    def test_large_T_is_quick(self):
        t0 = time.perf_counter()
        shape = contradiction_shape(5, 6, "ssp2", Fraction(1000), 100, 1)
        assert time.perf_counter() - t0 < 1
        # 10^8 / T^{1/3} <= 75 from T = (4/3 10^6)^3 = 2370370370370370370.37... on
        assert shape.T == 2370370370370370371 and shape.holds
