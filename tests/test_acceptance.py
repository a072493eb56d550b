"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its measured runtime.  Tolerances and runtime budgets are pinned
here from the statements themselves, nothing deferred.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import E8_GRAM
from orthocount.lattice import QuadLattice

E8 = QuadLattice.from_rows(E8_GRAM, positive_definite=True)
Z8 = QuadLattice.from_rows([[2 if i == j else 0 for j in range(8)] for i in range(8)],
                           positive_definite=True)


def _report(num, desc, ok, elapsed, limit=None):
    status = "PASS" if ok else "FAIL"
    budget = f" (runtime {elapsed:.2f}s" + (f" < {limit}s)" if limit else ")")
    print(f"ACCEPTANCE {num:2d} [{status}] {desc}{budget}")
    assert ok, f"criterion {num} failed"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Run each hot kernel once on a tiny input so runtime budgets measure
    the algorithms, not first-call costs (imports and first-use caches)."""
    from orthocount.density import local_density, local_density_naive
    from orthocount.lattice import theta_table
    small = QuadLattice.from_rows([[2, 0], [0, 2]], positive_definite=True)
    theta_table(small, 3)
    local_density_naive(3, small, 1, 1)
    local_density(2, small, 1)
    from orthocount.crystal import superspecial_ring
    from orthocount.series import SeriesRing
    ring = superspecial_ring(5, 8)
    sr = SeriesRing(ring, 10)
    sr.monomial(0, 1).mul(sr.monomial(1, 1))


def test_criterion_01_e8_identity():
    """E8 end-to-end: theta coefficients equal representation counts exactly."""
    from orthocount.eisenstein import e8_check
    t0 = time.perf_counter()
    ok, rows = e8_check(E8, mmax=20, b=6, p=7)
    sigma3 = lambda m: sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
    ok = ok and all(q == r == 240 * sigma3(m) for m, q, r in rows)
    elapsed = time.perf_counter() - t0
    _report(1, "E8 theta coefficient == rep count, m <= 20, exact", ok, elapsed, 5)


def test_criterion_02_density_cross_oracle():
    """Recursive == naive local densities on 200 seeded lattices + bounds."""
    from orthocount.density import local_density_naive, local_density_recursive
    from orthocount.lattice import p_diagonalize
    from conftest import random_posdef_gram
    rng = random.Random(17)
    t0 = time.perf_counter()
    cases = 0
    mismatches = 0
    bound_violations = 0
    while cases < 200:
        p = rng.choice([3, 5, 7])
        rank = rng.randint(1, 6)
        G = random_posdef_gram(rng, rank, spread=2)
        if rng.random() < 0.35:
            scale = [p if i < rng.randint(1, rank) else 1 for i in range(rank)]
            G = [[G[i][j] * scale[i] * scale[j] for j in range(rank)] for i in range(rank)]
        L = QuadLattice.from_rows(G, positive_definite=True)
        m = rng.randint(1, 60)
        if m % p == 0:
            continue
        drec = local_density_recursive(p, L, m)
        dnaive = local_density_naive(p, L, m, 1)
        if drec != dnaive:
            mismatches += 1
        if drec > 2:
            bound_violations += 1
        unit_rank = sum(1 for _, v in p_diagonalize(L, p, 2) if v == 0)
        if unit_rank >= 3 and drec > 1 + Fraction(1, p):
            bound_violations += 1
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and bound_violations == 0
    _report(2, f"local density cross-oracle, {cases} cases, 0 mismatches",
            ok, elapsed, 60)


def test_criterion_03_minval_verification():
    """Minimal-set properties (1)-(5) on 200 seeded valuation profiles."""
    from orthocount.valcomb import ValuationProfile, verify_minval
    rng = random.Random(23)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        prof = ValuationProfile(n=n, p=rng.choice([5, 7]),
                                a=tuple(rng.randint(1, 12) for _ in range(n + 1)))
        rep = verify_minval(prof, r_max=6)
        violations += len(rep.violations)
    elapsed = time.perf_counter() - t0
    _report(3, "minimal-set properties on 200 profiles, n<=4, r<=6",
            violations == 0, elapsed, 60)


def test_criterion_04_ssmain_constants():
    """Exact geometric-series constants and their printed ceilings."""
    from orthocount.arith import is_prime
    from orthocount.budget import ssmain_bound
    t0 = time.perf_counter()
    ok = True
    v, c = ssmain_bound(5, 6, "nonss")
    ok &= v == Fraction(7, 20) and c == Fraction(11, 12)
    v, c = ssmain_bound(5, 6, "ssp1")
    ok &= v == Fraction(61, 62) == c
    v, c = ssmain_bound(5, 6, "ssp2")
    ok &= v == Fraction(17, 20) == c
    for q in range(5, 98):
        if not is_prime(q):
            continue
        for case in ("nonss", "ssp1", "ssp2"):
            val, ceil = ssmain_bound(q, 6, case)
            ok &= val <= ceil
            if q > 5 and case in ("ssp1", "ssp2"):
                ok &= val < ceil
    elapsed = time.perf_counter() - t0
    _report(4, "ssmain constants: 7/20, 61/62, 17/20 at p=5; ceilings to p=97",
            bool(ok), elapsed, 1)


def test_criterion_05_nonordinary_equation():
    """Non-ordinary locus equation derived from p*Frob on gr_{-1}."""
    from orthocount.crystal import nonordinary_equation, q_polynomial
    from orthocount.poly import Poly
    t0 = time.perf_counter()
    ok = True
    for m in range(0, 4):
        if m >= 1:
            ok &= nonordinary_equation(1, m, p=5) == q_polynomial(1, m)
        for n in (2, 3, 4):
            ok &= nonordinary_equation(n, m, p=5) == Poly.var("y1")
    elapsed = time.perf_counter() - t0
    _report(5, "non-ordinary equation: Q at n=1, y1 at n in {2,3,4}, m in 0..3",
            bool(ok), elapsed)


def test_criterion_06_superspecial_decay_trace():
    """Case-1 decay trace at p=5, a=1, h=2, h'=13, T_max = 701."""
    from orthocount.crystal import (f_infinity_partial, first_nonintegral_order,
                                    integral_basis_matrix, monomial_substitution,
                                    ssp_s0prime, superspecial_ring)
    from orthocount.series import SeriesRing
    from orthocount.valcomb import (SuperspecialProfile, schedule_hprime,
                                    ssp_min_valuation)
    t0 = time.perf_counter()
    p, a, h, hp = 5, 1, 2, 13
    ring = superspecial_ring(p, 8)
    sr = SeriesRing(ring, 701)
    # first pair carries units (lam, 1): sigma(lam) = -lam makes its two
    # cross terms in R cancel exactly, so h' comes from the second pair
    units = {"x1": ring.gen(), "y1": 1,
             "x2": ring.teichmuller_unit(3), "y2": ring.teichmuller_unit(7)}
    coords = monomial_substitution(sr, "superspecial", 1, 2,
                                   {"x1": a, "y1": h - a, "x2": hp - 2 * p, "y2": 2},
                                   units=units)
    assert coords.q_series().t_valuation() == h
    assert coords.r_series().t_valuation() == hp
    from orthocount.crystal import superspecial_F
    F = superspecial_F(coords)
    finf = f_infinity_partial(F, 5)  # 5^5 = 3125 > 701
    _, sinv = ssp_s0prime(ring)
    basis = integral_basis_matrix(sr, sinv, 1, 2 * coords.m)
    prof = SuperspecialProfile(p=p, h=h, hprime=hp, a=a)
    hps = schedule_hprime(h, p, 3, a)
    fp1 = 2 + coords.m
    ok = True
    for r in (0, 1):
        exp1, _ = ssp_min_valuation(1, r, prof)
        for w_base in ([1, 0], [0, 1], [1, 1]):
            w = w_base + [0] * (2 * coords.m)
            probe = first_nonintegral_order(finf, w, r, basis, components=[fp1])
            ok &= probe.status == "detected" and probe.nu == exp1
            ok &= probe.decay_bound <= hps[r + 1] + 1
        exp2, _ = ssp_min_valuation(2, r, prof)
        w = [0, 0, 1] + [0] * (2 * coords.m - 1)
        probe = first_nonintegral_order(finf, w, r, basis, components=[fp1])
        ok &= probe.status == "detected" and probe.nu == exp2
        ok &= probe.decay_bound <= hps[r + 1] + 1
    elapsed = time.perf_counter() - t0
    _report(6, "superspecial decay trace matches the candidate-set minima, r in {0,1}",
            bool(ok), elapsed, 300)


def test_criterion_07_generic_cross_module():
    """Minimal t-valuation at p-valuation -r in F_inf(1) equals nu_r."""
    from orthocount.crystal import (crystal_ring, f_infinity_partial, frobenius_F,
                                    min_tval_at_pval, monomial_substitution,
                                    synthesize_s0prime)
    from orthocount.series import SeriesRing
    from orthocount.valcomb import min_set
    rng = random.Random(31)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    profiles = []
    for k in range(20):
        n = 2 if k % 3 else 3
        m = 1 if n == 2 else 0
        profiles.append((n, m, k))
    for n, m, seed in profiles:
        names = [f"x{i}" for i in range(1, n)] + [f"y{i}" for i in range(1, n)] \
            + [f"xp{j}" for j in range(1, m + 1)] + [f"yp{j}" for j in range(1, m + 1)]
        exps = {nm: rng.randint(1, 3) for nm in names}
        tmax = 160
        ring = crystal_ring(5, 8, n)
        sr = SeriesRing(ring, tmax)
        coords = monomial_substitution(sr, "generic", n, m, exps)
        s0, s0inv = synthesize_s0prime(ring, n, seed=seed + 1)
        F = frobenius_F(coords, s0, s0inv)
        finf = f_infinity_partial(F, 4)  # 5^4 = 625 > 160
        prof = coords.valuation_profile()
        for r in (1, 2, 3):
            nu_r, _ = min_set(r, prof)
            got = min_tval_at_pval(finf, r, rows=range(2 * n), cols=range(2 * n))
            if nu_r > tmax:
                ok &= got is None or got > tmax
            else:
                ok &= got == nu_r
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(7, f"generic F_inf(1) minimal valuations == nu_r ({checked} checks, 20 profiles)",
            bool(ok), elapsed)


def test_criterion_08_formal_curve_growth():
    """i_P(Z(37)) >= 5^25 by explicit membership in every level."""
    from orthocount.budget import certify_membership, formal_curve_sequence
    t0 = time.perf_counter()
    curve = formal_curve_sequence(5, 1, 1, 1, j_max=1)
    m1, expo = certify_membership(curve, 1)
    ok = m1 == 37 and expo == 25
    # the explicit small levels agree with the symbolic certificate
    v = [1, 6]
    for start, basis in curve.sequence.levels:
        ok &= basis.contains(v)
    elapsed = time.perf_counter() - t0
    _report(8, "formal curve: m_1 = 37 with i_P >= 5^25 certified levelwise",
            bool(ok), elapsed, 10)


def test_criterion_09_cusp_growth():
    """Cusp residual growth for Z^8 with Q = sum x_i^2, m <= 200."""
    from orthocount.eisenstein import EisensteinContext, cusp_part
    t0 = time.perf_counter()
    ctx = EisensteinContext.from_lattice(Z8, b=6, p=7)
    out = cusp_part(Z8, ctx, 200)
    # the odd unimodular rank-8 genus has one class: the theta series is
    # pure Eisenstein and the residuals vanish identically (cusp-free),
    # which satisfies the growth bound vacuously
    ok = out.cusp_free or out.exponent <= 2.25
    elapsed = time.perf_counter() - t0
    label = "cusp-free" if out.cusp_free else f"slope {out.exponent:.3f}"
    _report(9, f"Z^8 cusp residual growth <= 2.25 ({label})", bool(ok), elapsed, 120)


def test_criterion_10_moore_kernel_bound():
    """Kernel dimension <= n for 50 coefficient vectors, n <= 3, p in {5,7}."""
    from orthocount.crystal import moore_checks
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        for p in (5, 7):
            rep = moore_checks(n, p, trials=50, seed=11)
            ok &= rep.ok
    elapsed = time.perf_counter() - t0
    _report(10, "Moore-matrix kernel bound dim <= n, 50 samples per (n, p)",
            bool(ok), elapsed)
