import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import orthocount
import orthocount.budget as budget
from orthocount.arith import InvariantError, is_prime
from orthocount.budget import (
    CurveBudget,
    NestedLatticeSequence,
    certify_membership,
    counting_bound,
    firstmin_check,
    formal_curve_sequence,
    g_P,
    local_intersection,
    solve_T_for_target,
    sserror_bound,
    ssmain_bound,
    truncation_cap,
)
from orthocount.lattice import QuadLattice, SublatticeBasis, identity_basis, rep_count

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
        from orthocount.budget import constant_sequence
        seq = constant_sequence(X2Y2)
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

    def test_counting_bound(self):
        seq = worked_sequence()
        out = counting_bound(seq, 25, n_cap=10)
        assert out.empirical <= 4 * out.majorant
        assert out.fitted_K <= 4

    def test_counting_bound_rank1(self):
        L = QuadLattice.from_rows([[2]], positive_definite=True)
        seq = NestedLatticeSequence(L, ((1, identity_basis(L)),))
        X = 40
        out = counting_bound(seq, X)
        true_count = 2 * int((2 * X) ** 0.5)
        assert out.empirical == true_count
        assert out.majorant >= true_count / 3

    def test_x_zero(self):
        seq = worked_sequence()
        out = counting_bound(seq, 0, n_cap=3)
        assert out.empirical == 0
        assert out.majorant >= 3  # the i=0 term counts levels


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
        src = os.path.dirname(os.path.dirname(orthocount.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("from fractions import Fraction\n"
                "import orthocount.budget as budget\n"
                "from orthocount.arith import InvariantError\n"
                "assert False, 'asserts are live'\n"
                "budget.SSMAIN_CEILINGS['nonss'] = Fraction(0)\n"
                "try:\n"
                "    budget.ssmain_bound(5, 6, 'nonss')\n"
                "except InvariantError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        r = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 0, r.stderr

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            ssmain_bound(3, 6, "nonss")


class TestSsError:
    def test_limit(self):
        a, _ = sserror_bound(10 ** 6, 4, 100, 1)
        b, _ = sserror_bound(10 ** 9, 4, 100, 1)
        assert b < a

    def test_printed_arithmetic(self):
        lead, _ = sserror_bound(32, 4, 16, 1)
        assert lead == pytest.approx(4096 / 32 ** 0.5, rel=1e-12)

    def test_solve_roundtrip(self):
        for target in (10.0, 123.4, 5e6):
            T = solve_T_for_target(target, 4, 100, 1)
            assert sserror_bound(T, 4, 100, 1)[0] <= target
            if T > 1:
                assert sserror_bound(T - 1, 4, 100, 1)[0] > target


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

    def test_exponential_growth_shape(self):
        # log m_j ~ 2 n_j log p while the intersection exponent is n_{j+1} = p^{2 n_j}
        curve = formal_curve_sequence(5, 1, 1, 1, j_max=2)
        for j in (0, 1):
            n_j, n_j1 = curve.n_seq[j], curve.n_seq[j + 1]
            assert n_j1 == 5 ** (2 * n_j)
            assert curve.m_values[j] <= 4 * 5 ** (2 * n_j)

    def test_explicit_levels_consistent(self):
        curve = formal_curve_sequence(5, 1, 1, 1, j_max=1, explicit_level_cap=30)
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
        from orthocount.budget import contradiction_shape
        for case in ("nonss", "ssp1", "ssp2"):
            shape = contradiction_shape(5, 6, case, global_sum=Fraction(10 ** 9),
                                        X=100, c3=1)
            assert shape.alpha < shape.alpha_prime < 1
            assert shape.holds, case

    def test_error_absorbed_by_T(self):
        from orthocount.budget import contradiction_shape, sserror_bound
        shape = contradiction_shape(5, 6, "ssp2", Fraction(10 ** 9), 100, 1)
        err = sserror_bound(shape.T, 6, 100, 1)[0]
        assert float(shape.alpha_prime - shape.alpha) * shape.global_term >= err


class TestFirstMin:
    def test_degenerate_constant(self):
        seq = NestedLatticeSequence(X2Y2, ((1, identity_basis(X2Y2)),))
        rep = firstmin_check(seq)
        assert rep.degenerate and rep.implied_constant is None

    def test_worked_sequence_positive(self):
        rep = firstmin_check(worked_sequence(), b=2)
        assert not rep.degenerate
        assert rep.implied_constant > 0

    def test_formal_curve_positive(self):
        curve = formal_curve_sequence(5, 1, 1, 1, j_max=1, explicit_level_cap=30)
        rep = firstmin_check(curve.sequence, b=2)
        assert rep.implied_constant > 0
