import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from orthocount.crystal import (
    CurveSubstitution,
    _int_to_elt,
    _unipotent_layout,
    b0_sym,
    crystal_ring,
    embed_s0,
    f_infinity_partial,
    first_nonintegral_order,
    frobenius_F,
    integral_basis_matrix,
    min_tval_at_pval,
    monomial_substitution,
    moore_checks,
    nonordinary_equation,
    q_polynomial,
    superspecial_F,
    superspecial_ring,
    ssp_s0prime,
    synthesize_s0prime,
    unipotent_series,
    unipotent_sym,
)
from orthocount.intmat import mat_mul, transpose
from orthocount.padic import PINF
from orthocount.poly import Poly
from orthocount.padic import make_ring
from orthocount.series import SeriesRing, TSeriesMatrix
from orthocount.valcomb import SuperspecialProfile, ssp_min_valuation


# ---------------------------------------------------------------------------
# printed constructions the structural identities below compare against

def split_gram_sym(n, m=0):
    """Gram [[0,I],[I,0]] on the 2n block, extended hyperbolically on 2m."""
    dim = 2 * n + 2 * m
    G = [[Poly() for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        G[i][n + i] = G[n + i][i] = Poly.const(1)
    for j in range(m):
        G[2 * n + j][2 * n + m + j] = G[2 * n + m + j][2 * n + j] = Poly.const(1)
    return G


def b0_general(n, p, b):
    """B_0 for coefficients b_1..b_{n-1}: b0_sym (b = 0) with (i, 2n) = p b_{i-1}
    and (n+1, n+i) = -b_i."""
    if len(b) != max(n - 1, 0):
        raise ValueError("need n-1 coefficients")
    B = b0_sym(n, p)
    for i in range(2, n + 1):
        B[i - 1][2 * n - 1] = Poly.const(p * b[i - 2])
    for i in range(1, n):
        B[n][n + i - 1] = Poly.const(-b[i - 1])
    return B


def b0_prime_constant(n):
    """B'_0 for b = 0 as an integer matrix (a cyclic permutation)."""
    B = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(1, 2 * n):
        B[i][i - 1] = 1
    B[0][2 * n - 1] = 1
    return B


def build_Ki(coords, s0, s0inv):
    """K_1..K_{n+1} from the printed single/two-entry A_i matrices."""
    if coords.case != "generic":
        raise ValueError("generic case only")
    n, sring = coords.n, coords.sring
    dim = 2 * n
    left, right = embed_s0(sring, s0, 0), embed_s0(sring, s0inv, 0)
    out = []
    for i in range(1, n + 2):
        A = TSeriesMatrix.zero(sring, dim)
        Yi = coords.y_series(i)
        if i < n:
            A[n - 1, n + i - 1] = Yi.pshift(-1)
            A[i - 1, 2 * n - 1] = Yi.neg().pshift(-1)
        else:
            A[n - 1, 2 * n - 1] = Yi.pshift(-1)
        out.append(left.mul(A).mul(right.sigma_twist() if i == n + 1 else right))
    return out


def mn_matrices(ring):
    """The constant 2x2 matrices M = [[1,-lam],[1/lam,-1]]/2, N = [[1,lam],[1/lam,1]]/2."""
    lam = ring.gen()
    laminv = ring.inv(lam)
    inv2 = ring.inv(ring.from_int(2))
    M = ((inv2, ring.neg(ring.mul(inv2, lam))), (ring.mul(inv2, laminv), ring.neg(inv2)))
    N = ((inv2, ring.mul(inv2, lam)), (ring.mul(inv2, laminv), inv2))
    return M, N


def _block(M, rows, cols):
    """The sub-matrix of M on the given rows and columns."""
    ix = np.ix_(rows, cols)
    return TSeriesMatrix(M.sr, M.pval[ix], M.unit[ix])


class TestSymbolic:
    def test_b0_n1(self):
        B = b0_sym(1, 5)
        assert B[0][1] == Poly.const(5)
        assert B[1][0] == Poly.const(Fraction(1, 5))
        assert not B[0][0] and not B[1][1]

    def test_b0_preserves_gram(self):
        rng = random.Random(2)
        for n in (1, 2, 3):
            for _ in range(3):
                b = [rng.randint(-3, 3) for _ in range(n - 1)]
                B = b0_general(n, 5, b)
                G = split_gram_sym(n)
                # B^T G B = G (sigma fixes integer b_i)
                BT = transpose(B)
                P = mat_mul(mat_mul(BT, G), B)
                assert P == G

    def test_b0_printed_positions(self):
        B = b0_sym(2, 5)
        assert B == b0_general(2, 5, [0])
        nonzero = {(i, j) for i in range(4) for j in range(4) if B[i][j]}
        assert nonzero == {(1, 0), (0, 3), (2, 1), (3, 2)}
        assert B[2][1] == Fraction(1, 5)  # the p^{-1} entry
        # (2, 2n) = p b_1 and (n+1, n+1) = -b_1
        B = b0_general(2, 5, [3])
        nonzero = {(i, j) for i in range(4) for j in range(4) if B[i][j]}
        assert nonzero == {(1, 0), (0, 3), (2, 1), (3, 2), (1, 3), (2, 2)}
        assert B[1][3] == 15 and B[2][2] == -3

    def test_unipotent_orthogonal(self):
        for n, m in ((1, 2), (2, 1), (3, 0), (2, 2)):
            u = unipotent_sym(n, m)
            G = split_gram_sym(n, m)
            P = mat_mul(mat_mul(transpose(u), G), u)
            assert P == G, (n, m)

    def test_unipotent_square_shape(self):
        for n, m in ((2, 1), (3, 2)):
            dim = 2 * n + 2 * m
            u = unipotent_sym(n, m)
            E = [[u[i][j] - Poly.const(int(i == j)) for j in range(dim)]
                 for i in range(dim)]
            E2 = mat_mul(E, E)
            for i in range(dim):
                for j in range(dim):
                    if (i, j) != (n - 1, 2 * n - 1):
                        assert not E2[i][j], (n, m, i, j)
            assert E2[n - 1][2 * n - 1]

    def test_identity_when_coords_vanish(self):
        u = unipotent_sym(2, 1)
        dim = 6
        subbed = [[_sub_zero(u[i][j]) for j in range(dim)] for i in range(dim)]
        for i in range(dim):
            for j in range(dim):
                assert subbed[i][j] == Poly.const(int(i == j))


def _sub_zero(poly):
    out = Poly()
    for m, c in poly.terms.items():
        if not m:
            out = out + Poly.const(c)
    return out


class TestNonordinaryEquation:
    def test_superspecial_branch(self):
        for m in (1, 2, 3):
            eq = nonordinary_equation(1, m, p=5)
            assert eq == q_polynomial(1, m), m

    def test_generic_branch(self):
        for n in (2, 3, 4):
            for m in (0, 1, 2, 3):
                eq = nonordinary_equation(n, m, p=5)
                assert eq == Poly.var("y1"), (n, m)


class TestS0Synthesis:
    @pytest.mark.parametrize("n,p", [(1, 5), (2, 5), (3, 5), (2, 7)])
    def test_sigma_relation(self, n, p):
        ring = crystal_ring(p, 6, n)
        S, Sinv = synthesize_s0prime(ring, n, seed=1)
        sr = SeriesRing(ring, 0)
        S = embed_s0(sr, S, 0)
        assert _same_matrix(S.sigma_twist(), S.mul(embed_s0(sr, b0_prime_constant(n), 0)))

    def test_inverse(self):
        ring = crystal_ring(5, 6, 2)
        S, Sinv = synthesize_s0prime(ring, 2, seed=1)
        sr = SeriesRing(ring, 0)
        prod = embed_s0(sr, S, 0).mul(embed_s0(sr, Sinv, 0))
        assert _same_matrix(prod, TSeriesMatrix.identity(sr, 4))

    def test_frobactionrows(self):
        # rows R_i of the inverse obey the printed recursion with b = 0
        n, p = 2, 5
        ring = crystal_ring(p, 6, n)
        _, Sinv = synthesize_s0prime(ring, n, seed=1)
        rows = [list(r) for r in Sinv]
        sig = lambda row: [ring.sigma(x) for x in row]
        # sigma(R_i) = R_{i+1} for i = 1..2n-1 and sigma(R_2n) = R_1
        for i in range(2 * n - 1):
            assert sig(rows[i]) == rows[i + 1]
        assert sig(rows[2 * n - 1]) == rows[0]


def _same_matrix(A, B):
    return np.array_equal(A.pval, B.pval) and np.array_equal(A.unit, B.unit)


def _ssp_coords(p=5, h=2, hprime=13, a=1, tmax=400, R=8):
    """Monomial superspecial substitution hitting exactly (a, h, h').

    The first pair has units (lam, 1): since sigma(lam) = -lam, its two
    cross terms in R cancel exactly and v_t(R) is set by the second pair,
    which is placed so that x2 sigma(y2) lands at t^{h'}.
    """
    ring = superspecial_ring(p, R)
    sr = SeriesRing(ring, tmax)
    d = a + 1
    c = hprime - p * d
    assert c >= a and p * c + d > hprime, "geometry needs h' >= p(a+1) + a"
    exps = {"x1": a, "y1": h - a, "x2": c, "y2": d}
    units = {"x1": ring.gen(), "y1": 1,
             "x2": ring.teichmuller_unit(3), "y2": ring.teichmuller_unit(7)}
    coords = monomial_substitution(sr, "superspecial", 1, 2, exps, units=units)
    return coords


class TestSuperspecialF:
    def test_zero_coords_give_zero(self):
        ring = superspecial_ring(5, 6)
        sr = SeriesRing(ring, 50)
        series = {k: sr.zero_series() for k in ("x1", "y1")}
        coords = CurveSubstitution("superspecial", 1, 1, sr, series)
        F = superspecial_F(coords)
        assert F.t_valuation() is None

    def test_superspecial_case_has_n_1(self):
        sr = SeriesRing(superspecial_ring(5, 6), 20)
        series = {k: sr.monomial(1, 1) for k in ("x1", "y1")}
        with pytest.raises(ValueError, match="n = 1"):
            CurveSubstitution("superspecial", 2, 1, sr, series)

    def test_block_structure(self):
        coords = _ssp_coords(tmax=100)
        F = superspecial_F(coords)
        m = coords.m
        # bottom-right block vanishes; top-left depends only on Q
        for i in range(2 + 2 * m):
            for j in range(2 + 2 * m):
                if i >= 2 and j >= 2:
                    assert F.entries[i][j].t_valuation() is None

    def test_change_of_basis_relation(self):
        # sigma(S'_0) = S'_0 [[0,1],[1,0]] for the printed superspecial basis
        ring = superspecial_ring(5, 8)
        S, Sinv = ssp_s0prime(ring)
        sr = SeriesRing(ring, 0)
        S = embed_s0(sr, S, 0)
        assert _same_matrix(S.sigma_twist(), S.mul(embed_s0(sr, ((0, 1), (1, 0)), 0)))
        prod = S.mul(embed_s0(sr, Sinv, 0))
        assert _same_matrix(prod, TSeriesMatrix.identity(sr, 2))

    def test_evalproduct_closed_form(self):
        # P_{alpha,beta} = p^-(a+b) prod Q^(i) prod R^(a+2j-1) * M^(1) or N^(1)
        coords = _ssp_coords(p=5, h=2, hprime=13, a=1, tmax=380, R=8)
        sr = coords.sring
        ring = sr.ring
        F = superspecial_F(coords)
        m = coords.m
        Ft = _block(F, range(2), range(2))
        Fr = _block(F, range(2), range(2, 2 + 2 * m))
        Fl = _block(F, range(2, 2 + 2 * m), range(2))
        Q = coords.q_series()
        Rser = coords.r_series()
        M, N = mn_matrices(ring)
        for alpha, beta in [(1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (0, 1), (0, 2), (3, 1)]:
            # build the product prod F_t^(i) prod F_r^(alpha+2j-1) F_l^(alpha+2j)
            prod = TSeriesMatrix.of(sr, [[sr.monomial(0, int(i == j)) for j in range(2)]
                                         for i in range(2)])
            for i in range(1, alpha + 1):
                prod = prod.mul(Ft.sigma_twist(i))
            for j in range(1, beta + 1):
                prod = prod.mul(Fr.sigma_twist(alpha + 2 * j - 1))
                prod = prod.mul(Fl.sigma_twist(alpha + 2 * j))
            # closed form
            scal = sr.monomial(0, 1, pshift=-(alpha + beta))
            for i in range(1, alpha + 1):
                scal = scal.mul(Q.sigma_twist(i))
            for j in range(1, beta + 1):
                scal = scal.mul(Rser.sigma_twist(alpha + 2 * j - 1))
            const = M if alpha % 2 == 1 else N
            const = tuple(tuple(ring.sigma(x) for x in row) for row in const)
            for i in range(2):
                for j in range(2):
                    expect = scal.mul(sr.monomial(0, const[i][j]))
                    got = prod.entries[i][j]
                    diff = got.sub(expect)
                    base = np.minimum(got.pval, expect.pval)
                    ok = np.all((diff.pval >= base + ring.R - 3) | (diff.pval >= PINF))
                    assert ok, (alpha, beta, i, j)


def _printed_superspecial_F(coords):
    """The printed t_P = 2 blocks of F, entry by entry: F_t from Q/2p and
    lam, F_r from x_i/2p and y_i/2p (divided by lam on row 2), F_l with rows
    (-y_i, lam y_i) over e'_i and (-x_i, lam x_i) over f'_i."""
    sr, m = coords.sring, coords.m
    ring = sr.ring
    lam = ring.gen()
    inv2 = ring.inv(ring.from_int(2))
    inv2lam = ring.mul(inv2, ring.inv(lam))
    Q = coords.q_series()
    F = TSeriesMatrix.zero(sr, 2 + 2 * m)
    F[0, 0] = Q.mul(sr.monomial(0, inv2)).pshift(-1)
    F[0, 1] = Q.mul(sr.monomial(0, ring.mul(lam, inv2))).neg().pshift(-1)
    F[1, 0] = Q.mul(sr.monomial(0, inv2lam)).pshift(-1)
    F[1, 1] = Q.mul(sr.monomial(0, inv2)).neg().pshift(-1)
    for i in range(1, m + 1):
        x, y = coords.series[f"x{i}"], coords.series[f"y{i}"]
        F[0, 1 + i] = x.mul(sr.monomial(0, inv2)).pshift(-1)
        F[0, 1 + m + i] = y.mul(sr.monomial(0, inv2)).pshift(-1)
        F[1, 1 + i] = x.mul(sr.monomial(0, inv2lam)).pshift(-1)
        F[1, 1 + m + i] = y.mul(sr.monomial(0, inv2lam)).pshift(-1)
        F[1 + i, 0] = y.neg()
        F[1 + i, 1] = y.mul(sr.monomial(0, lam))
        F[1 + m + i, 0] = x.neg()
        F[1 + m + i, 1] = x.mul(sr.monomial(0, lam))
    return F


class TestCrossEngine:
    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_superspecial_F_matches_printed_blocks(self, p, m):
        ring = superspecial_ring(p, 6)
        sr = SeriesRing(ring, 40)
        rng = random.Random(100 * p + m)
        q = p * p
        coeffs = [ring.gen(), ring.neg(ring.one()), ring.from_int(3 * p)]

        def draw(p_divisible):
            s = sr.zero_series()
            for _ in range(3):
                c = rng.choice(coeffs + [ring.teichmuller_unit(rng.randrange(1, q - 1))])
                s = s.add(sr.monomial(rng.randint(1, 9), c, pshift=int(p_divisible)))
            return s

        # the last substitution has only p-divisible coefficients
        for p_divisible in (False, False, True):
            series = {f"{v}{j}": draw(p_divisible) for v in "xy" for j in range(1, m + 1)}
            coords = CurveSubstitution("superspecial", 1, m, sr, series)
            assert _same_matrix(superspecial_F(coords), _printed_superspecial_F(coords))

    def test_superspecial_F_equals_conjugated_unipotent(self):
        # the t_P = 2 Frobenius correction must coincide with S'(u'-I)S'^{-1}
        # built from a generic-case substitution at n = 1 (primed pairs named
        # (xp_j, yp_j)) with the explicit change of basis
        ring = superspecial_ring(5, 8)
        sr = SeriesRing(ring, 120)
        m = 2
        exps = {"x1": 1, "y1": 1, "x2": 3, "y2": 2}
        units = {"x1": ring.gen(), "y1": 1,
                 "x2": ring.teichmuller_unit(3), "y2": ring.teichmuller_unit(7)}
        ssp = monomial_substitution(sr, "superspecial", 1, m, exps, units=units)
        F_printed = superspecial_F(ssp)
        gen_series = {f"xp{i}": ssp.series[f"x{i}"] for i in range(1, m + 1)}
        gen_series.update({f"yp{i}": ssp.series[f"y{i}"] for i in range(1, m + 1)})
        gen = CurveSubstitution("generic", 1, m, sr, gen_series)
        s0, s0inv = ssp_s0prime(ring)
        F_conj = frobenius_F(gen, s0, s0inv)
        for i in range(2 + 2 * m):
            for j in range(2 + 2 * m):
                a = F_printed.entries[i][j]
                b = F_conj.entries[i][j]
                assert np.all(a.pval == b.pval), (i, j)
                assert np.all(a.unit == b.unit), (i, j)

    def test_generic_n1_has_the_superspecial_Q_and_R(self):
        # the superspecial case is the generic one at n = 1 with its primed
        # pairs renamed; the second and third pairs cancel Q's leading terms
        ring = superspecial_ring(5, 8)
        sr = SeriesRing(ring, 200)
        tau = ring.teichmuller_unit(1)
        units = {"x1": ring.gen(), "y1": 1, "x2": 1, "y2": 1,
                 "x3": tau, "y3": ring.neg(ring.inv(tau))}
        exps = {"x1": 1, "y1": 9, "x2": 2, "y2": 1, "x3": 2, "y3": 1}
        ssp = monomial_substitution(sr, "superspecial", 1, 3, exps, units=units)
        gen = CurveSubstitution("generic", 1, 3, sr, {
            name.replace("x", "xp").replace("y", "yp"): s for name, s in ssp.series.items()})
        pairs = [(ssp.q_series(), gen.q_series()), (ssp.r_series(), gen.r_series()),
                 (ssp.q_series(), gen.y_series(1)), (ssp.r_series(), gen.y_series(2))]
        for a, b in pairs:
            assert np.array_equal(a.pval, b.pval) and np.array_equal(a.unit, b.unit)
        assert ssp.q_series().t_valuation() == 10


class TestFInfinity:
    def test_zero_F_gives_identity(self):
        ring = superspecial_ring(5, 6)
        sr = SeriesRing(ring, 40)
        F = TSeriesMatrix.zero(sr, 4)
        out = f_infinity_partial(F, 3)
        I = TSeriesMatrix.identity(sr, 4)
        for i in range(4):
            for j in range(4):
                assert np.all(out.entries[i][j].pval == I.entries[i][j].pval)

    def test_constant_t_term_is_refused(self):
        # x1 = 1 gives F a t^0 term: v_t(F^(N)) stays 0 for every N
        sr = SeriesRing(superspecial_ring(5, 6), 40)
        coords = monomial_substitution(sr, "superspecial", 1, 1, {"x1": 0, "y1": 1})
        F = superspecial_F(coords)
        assert F.t_valuation() == 0
        for N in (1, 3, 10):
            with pytest.raises(ValueError, match="constant t-term"):
                f_infinity_partial(F, N)

    def test_guard(self):
        coords = _ssp_coords(tmax=380)
        F = superspecial_F(coords)
        with pytest.raises(ValueError):
            f_infinity_partial(F, 2)  # 5^2 * 1 <= 380

    def test_stability_in_N(self):
        coords = _ssp_coords(tmax=380)
        F = superspecial_F(coords)
        N = 4  # 5^4 = 625 > 380
        A = f_infinity_partial(F, N)
        B = f_infinity_partial(F, N + 1)
        for i in range(F.dim):
            for j in range(F.dim):
                assert np.all(A.entries[i][j].pval == B.entries[i][j].pval)
                assert np.all(A.entries[i][j].unit == B.entries[i][j].unit)


class TestProbes:
    def test_min_tval_at_pval_takes_the_smallest_t_in_the_block(self):
        sr = SeriesRing(superspecial_ring(5, 6), 20)
        M = TSeriesMatrix.zero(sr, 3)
        M[0, 1] = sr.monomial(5, 1, pshift=-2)
        M[2, 2] = sr.monomial(3, 1, pshift=-1)
        M[1, 0] = sr.monomial(1, 1)
        every = range(3)
        assert min_tval_at_pval(M, 1, rows=every, cols=every) == 3
        assert min_tval_at_pval(M, 2, rows=every, cols=every) == 5
        assert min_tval_at_pval(M, 3, rows=every, cols=every) is None
        assert min_tval_at_pval(M, 0, rows=every, cols=every) == 1
        assert min_tval_at_pval(M, 1, rows=[0, 1], cols=[0, 1]) == 5
        assert min_tval_at_pval(M, 1, rows=[1], cols=[0, 2]) is None

    def test_integral_basis_matrix_shifts_the_first_n_rows(self):
        ring = crystal_ring(5, 6, 2)
        sr = SeriesRing(ring, 10)
        _, s0inv = synthesize_s0prime(ring, 2, seed=3)
        E = embed_s0(sr, s0inv, 2)
        M = integral_basis_matrix(sr, s0inv, 2, 2)
        assert np.array_equal(M.pval[:2], E.pshift(1).pval[:2])
        assert np.array_equal(M.pval[2:], E.pval[2:])
        assert np.array_equal(M.unit, E.unit)

    def test_first_nonintegral_component_is_the_first_watched(self):
        sr = SeriesRing(superspecial_ring(5, 6), 20)
        I = TSeriesMatrix.identity(sr, 4)
        w = [0, 1, 0, 1]
        probe = first_nonintegral_order(I, w, -1, I, components=range(4))
        assert (probe.nu, probe.component, probe.status) == (0, 1, "detected")
        assert first_nonintegral_order(I, w, -1, I, components=[3, 1]).component == 3
        assert first_nonintegral_order(I, w, 0, I, components=range(4)).status \
            == "integral-within-window"


class TestDecayTrace:
    def test_case1_schedule(self):
        # p=5, a=1, h=2, h'=13 (case 1: h < h'), the acceptance-6 geometry
        p, a, h, hp = 5, 1, 2, 13
        coords = _ssp_coords(p=p, h=h, hprime=hp, a=a, tmax=380, R=8)
        prof = SuperspecialProfile(p=p, h=h, hprime=hp, a=a)
        # sanity: derived series have the intended valuations
        assert coords.q_series().t_valuation() == h
        assert coords.r_series().t_valuation() == hp
        F = superspecial_F(coords)
        finf = f_infinity_partial(F, 4)
        _, sinv = ssp_s0prime(coords.sring.ring)
        basis = integral_basis_matrix(coords.sring, sinv, 1, 2 * coords.m)
        m = coords.m
        fprime1 = 2 + m  # index of f'_1 in {e1, f1, e'_i, f'_i}
        for r in (0, 1):
            # w in span{e1, f1}, watched at f'_1: nu = a + h(p + ... + p^{r+1})
            expected1, _ = ssp_min_valuation(1, r, prof)
            for w_base in ([1, 0], [0, 1], [1, 1], [2, 1]):
                w = w_base + [0] * (2 * m)
                probe = first_nonintegral_order(finf, w, r, basis,
                                                components=[fprime1])
                assert probe.status == "detected"
                assert probe.nu == expected1, (r, w_base, probe)
                # unrestricted detection may fire earlier (w_1-coordinate
                # fails a steps sooner), never later
                free = first_nonintegral_order(finf, w, r, basis,
                                               components=range(finf.dim))
                assert free.nu <= expected1
            # w = e'_1 watched at f'_1: nu = a + h(p + ... + p^r) + a p^{r+1}
            expected2, _ = ssp_min_valuation(2, r, prof)
            w = [0, 0, 1] + [0] * (2 * m - 1)
            probe = first_nonintegral_order(finf, w, r, basis,
                                            components=[fprime1])
            assert probe.status == "detected"
            assert probe.nu == expected2, (r, probe)
            # decay bounds are within the h'_r schedule
            from orthocount.valcomb import schedule_hprime
            hps = schedule_hprime(h, p, r + 1, a)
            assert probe.decay_bound <= hps[r + 1] + 1

    def test_case2_schedule(self):
        # h'(1+p) < h(1+p) < h'(1+p^3): Q-leading pair cancels at t^3 via
        # paired units (1,1) and (tau, -tau^{-1}); R keeps its t^7 term
        p, a, h, hp = 5, 1, 10, 7
        ring = superspecial_ring(p, 8)
        sr = SeriesRing(ring, 400)
        tau = ring.teichmuller_unit(1)
        tau_inv = ring.inv(tau)
        units = {"x1": ring.gen(), "y1": 1,
                 "x2": 1, "y2": 1, "x3": tau, "y3": ring.neg(tau_inv)}
        exps = {"x1": a, "y1": h - a, "x2": 2, "y2": 1, "x3": 2, "y3": 1}
        coords = monomial_substitution(sr, "superspecial", 1, 3, exps, units=units)
        assert coords.q_series().t_valuation() == h
        assert coords.r_series().t_valuation() == hp
        assert hp * (1 + p) < h * (1 + p) < hp * (1 + p ** 3)
        prof = SuperspecialProfile(p=p, h=h, hprime=hp, a=a)
        F = superspecial_F(coords)
        finf = f_infinity_partial(F, 4)  # 625 > 400
        _, sinv = ssp_s0prime(ring)
        basis = integral_basis_matrix(sr, sinv, 1, 2 * coords.m)
        fp1 = 2 + coords.m
        for r in (0, 1):
            exp1, argmin1 = ssp_min_valuation(1, r, prof)
            assert len(argmin1) == 1  # unique minimizer in this case
            for w_base in ([1, 0], [0, 1]):
                w = w_base + [0] * (2 * coords.m)
                probe = first_nonintegral_order(finf, w, r, basis, components=[fp1])
                assert probe.nu == exp1, (r, w_base, probe)
        # first-order very-rapid decay of e'_1: unique kind-2 element at r=0
        exp2, argmin2 = ssp_min_valuation(2, 0, prof)
        assert exp2 == a + p * a and len(argmin2) == 1
        w = [0, 0, 1] + [0] * (2 * coords.m - 1)
        probe = first_nonintegral_order(finf, w, 0, basis, components=[fp1])
        assert probe.nu == exp2

    def test_case3_schedule(self):
        # h'(1+p) = h(1+p): two minimizers in the kind-1 set; at least one
        # of e_1, f_1 must realize the minimal valuation
        p, a, h, hp = 5, 1, 6, 6
        ring = superspecial_ring(p, 8)
        sr = SeriesRing(ring, 400)
        tau = ring.teichmuller_unit(1)
        tau_inv = ring.inv(tau)
        units = {"x1": ring.gen(), "y1": 1,
                 "x2": 1, "y2": 1, "x3": tau, "y3": ring.neg(tau_inv)}
        exps = {"x1": a, "y1": h - a, "x2": 1, "y2": 1, "x3": 1, "y3": 1}
        coords = monomial_substitution(sr, "superspecial", 1, 3, exps, units=units)
        assert coords.q_series().t_valuation() == h
        assert coords.r_series().t_valuation() == hp
        prof = SuperspecialProfile(p=p, h=h, hprime=hp, a=a)
        F = superspecial_F(coords)
        finf = f_infinity_partial(F, 4)
        _, sinv = ssp_s0prime(ring)
        basis = integral_basis_matrix(sr, sinv, 1, 2 * coords.m)
        fp1 = 2 + coords.m
        for r in (0, 1):
            exp1, argmin1 = ssp_min_valuation(1, r, prof)
            assert sorted(argmin1) == [(r, 1), (r + 1, 0)]  # two minimizers
            hits = []
            for w_base in ([1, 0], [0, 1]):
                w = w_base + [0] * (2 * coords.m)
                probe = first_nonintegral_order(finf, w, r, basis, components=[fp1])
                assert probe.status == "detected" and probe.nu >= exp1
                hits.append(probe.nu == exp1)
            assert any(hits), r
            # e'_1 decays very rapidly: unique kind-2 minimizer
            exp2, argmin2 = ssp_min_valuation(2, r, prof)
            assert len(argmin2) == 1
            w = [0, 0, 1] + [0] * (2 * coords.m - 1)
            probe = first_nonintegral_order(finf, w, r, basis, components=[fp1])
            assert probe.nu == exp2, (r, probe)

    def test_integral_within_window(self):
        coords = _ssp_coords(tmax=60)
        F = superspecial_F(coords)
        finf = f_infinity_partial(F, 3)
        _, sinv = ssp_s0prime(coords.sring.ring)
        basis = integral_basis_matrix(coords.sring, sinv, 1, 2 * coords.m)
        # r very large: p^r w stays integral in a small window
        w = [1, 0] + [0] * (2 * coords.m)
        probe = first_nonintegral_order(finf, w, 30, basis, components=range(finf.dim))
        assert probe.status == "integral-within-window"


def _generic_coords(p, n, m, exps, tmax, R=8, seed=0):
    ring = crystal_ring(p, R, n)
    sr = SeriesRing(ring, tmax)
    return monomial_substitution(sr, "generic", n, m, exps), ring


class TestKi:
    def setup_method(self):
        exps = {"x1": 3, "y1": 2, "xp1": 4, "yp1": 5}
        self.coords, self.ring = _generic_coords(5, 2, 1, exps, tmax=300)
        self.s0, self.s0inv = synthesize_s0prime(self.ring, 2, seed=3)
        self.ks = build_Ki(self.coords, self.s0, self.s0inv)

    def test_vanishing_products(self):
        # K_i K_j^(l) = 0 unless l = i, for l < i... l <= i tested
        n = 2
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                for l in range(1, i):
                    P = self.ks[i - 1].mul(self.ks[j - 1].sigma_twist(l))
                    assert P.t_valuation() is None, (i, j, l)

    def test_rank_one_image(self):
        # K_i K_j^(i) = S'_0 M with only the n-th row of M nonzero
        n, sr = 2, self.coords.sring
        s0inv_mat = embed_s0(sr, self.s0inv, 0)
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                P = self.ks[i - 1].mul(self.ks[j - 1].sigma_twist(i))
                M = s0inv_mat.mul(P)
                for row in range(2 * n):
                    if row == n - 1:
                        continue
                    for col in range(2 * n):
                        assert M.entries[row][col].t_valuation() is None, (i, j, row, col)

    def test_row_formula(self):
        # the n-th row of M equals Y_i Y_j^(i) p^-2 sigma^{i+j-1}(R_{n+1})
        n, sr = 2, self.coords.sring
        ring = self.ring
        s0inv_mat = embed_s0(sr, self.s0inv, 0)
        for i in (1, 2, 3):
            for j in (1, 2):
                P = self.ks[i - 1].mul(self.ks[j - 1].sigma_twist(i))
                M = s0inv_mat.mul(P)
                Yi = self.coords.y_series(i)
                Yj = self.coords.y_series(j)
                scal = Yi.mul(Yj.sigma_twist(i)).pshift(-2)
                rn1 = [ring.sigma(x, i + j - 1) for x in self.s0inv[n]]
                for col in range(2 * n):
                    expect = scal.mul(sr.monomial(0, rn1[col]))
                    got = M.entries[n - 1][col]
                    diff = got.sub(expect)
                    base = np.minimum(got.pval, expect.pval)
                    assert np.all((diff.pval >= base + ring.R - 3) | (diff.pval >= PINF)), \
                        (i, j, col)

    def test_tval_matches_nu(self):
        # products over an index tuple I have t-valuation nu_I
        from orthocount.valcomb import nu
        prof = self.coords.valuation_profile()
        for I in [(1,), (2,), (1, 2), (2, 1), (1, 1, 2), (3, 1)]:
            P = self.ks[I[0] - 1]
            shift = I[0]
            for idx in I[1:]:
                P = P.mul(self.ks[idx - 1].sigma_twist(shift))
                shift += idx
            got = P.t_valuation()
            assert got == nu(I, prof), (I, got, nu(I, prof))


class TestGenericFInfinity:
    def test_cross_module_minimal_valuations(self):
        # acceptance-7 geometry at one fixed profile (more in the acceptance suite)
        from orthocount.valcomb import min_set
        exps = {"x1": 2, "y1": 1, "xp1": 2, "yp1": 1}
        coords, ring = _generic_coords(5, 2, 1, exps, tmax=160)
        s0, s0inv = synthesize_s0prime(ring, 2, seed=5)
        F = frobenius_F(coords, s0, s0inv)
        finf = f_infinity_partial(F, 4)  # 5^4 * 1 = 625 > 160
        prof = coords.valuation_profile()
        for r in (1, 2, 3):
            nu_r, _ = min_set(r, prof)
            if nu_r > 160:
                continue
            got = min_tval_at_pval(finf, r, rows=range(4), cols=range(4))
            assert got == nu_r, (r, got, nu_r)

    def test_r4_depth(self):
        from orthocount.valcomb import min_set
        exps = {"x1": 1, "y1": 1, "xp1": 1, "yp1": 1}
        coords, ring = _generic_coords(5, 2, 1, exps, tmax=800)
        s0, s0inv = synthesize_s0prime(ring, 2, seed=9)
        F = frobenius_F(coords, s0, s0inv)
        finf = f_infinity_partial(F, 5)  # 5^5 = 3125 > 800
        prof = coords.valuation_profile()
        nu4, _ = min_set(4, prof)
        assert nu4 <= 800
        assert min_tval_at_pval(finf, 4, rows=range(4), cols=range(4)) == nu4

    def test_profile_reads_y_then_q_then_r(self):
        # R sums the primed pair only: the plain pair's x1 sigma(y1) would
        # sit at t^6, far below the primed pair's t^18
        exps = {"x1": 1, "y1": 1, "xp1": 3, "yp1": 3}
        coords, _ = _generic_coords(5, 2, 1, exps, tmax=60)
        assert coords.q_series().t_valuation() == 2
        assert coords.r_series().t_valuation() == 18
        assert coords.valuation_profile().a == (1, 2, 18)

    def test_fold_matches_factor_products(self):
        # F_inf folds acc + acc F^(i); the factor-by-factor product
        # acc (I + F^(i)) gives the same bytes
        exps = {"x1": 3, "x2": 2, "y1": 1, "y2": 1}
        coords, ring = _generic_coords(5, 3, 0, exps, tmax=160)
        F = frobenius_F(coords, *synthesize_s0prime(ring, 3, seed=11))
        I = TSeriesMatrix.identity(coords.sring, F.dim)
        ref, Fi = I.add(F), F
        for _ in range(1, 4):
            Fi = Fi.sigma_twist()
            ref = ref.mul(I.add(Fi))
        got = f_infinity_partial(F, 4)  # 5^4 * 1 = 625 > 160
        assert np.array_equal(got.pval, ref.pval) and np.array_equal(got.unit, ref.unit)

    def test_q_and_r_built_once(self, monkeypatch):
        # every reader of Q and R (the unipotent u', the profile, the
        # CLI's h and h') shares one build of each
        import orthocount.series as series
        calls = []
        real = series.TSeries.mul
        monkeypatch.setattr(series.TSeries, "mul",
                            lambda a, b: calls.append(1) or real(a, b))
        exps = {"x1": 2, "y1": 1, "xp1": 2, "yp1": 1}
        coords, ring = _generic_coords(5, 2, 1, exps, tmax=60)
        s0, s0inv = synthesize_s0prime(ring, 2, seed=5)
        for _ in range(3):
            frobenius_F(coords, s0, s0inv)
            coords.valuation_profile()
            coords.q_series(), coords.r_series(), coords.y_series(3)
        assert len(calls) == 4  # Q: x1 y1 and xp1 yp1; R: xp1 sigma(yp1) and sigma(xp1) yp1
        with pytest.raises(ValueError, match="read-only"):
            coords.q_series().pval[0] = 0

    def test_uprime_is_conjugated_u(self):
        # u' = D u D^{-1} with D = diag(p^{-1} I_n, I): check entrywise
        exps = {"x1": 2, "y1": 1, "xp1": 2, "yp1": 1}
        coords, ring = _generic_coords(5, 2, 1, exps, tmax=60)
        u, uprime = unprimed_unipotent_series(coords), unipotent_series(coords)
        n, dim = coords.n, 2 * coords.n + 2 * coords.m
        for i in range(dim):
            for j in range(dim):
                shift = (-1 if i < n else 0) + (1 if j < n else 0)
                expect = u.entries[i][j].pshift(shift) \
                    if u.entries[i][j].t_valuation() is not None else u.entries[i][j]
                got = uprime.entries[i][j]
                assert np.all(got.pval == expect.pval), (i, j)
                assert np.all(got.unit == expect.unit), (i, j)


def unprimed_unipotent_series(coords):
    """The unipotent u of a substitution as a series matrix, before the
    conjugation by D = diag(p^{-1} I_n, I) that unipotent_series applies."""
    n, m, sring = coords.n, coords.m, coords.sring
    S = dict(coords.series, Q=coords.q_series())
    M = TSeriesMatrix.identity(sring, 2 * n + 2 * m)
    for i, j, name, sign, _ in _unipotent_layout(coords.case, n, m):
        M[i, j] = S[name] if sign > 0 else S[name].neg()
    return M


def ref_moore_exhaustive(n, p, trials, seed):
    """(row_nonvanishing, kernel_dims) of moore_checks, with every kernel
    counted over all p^(2n) vectors of F_p^{2n} instead of found by rank.
    The rows are drawn as moore_checks draws them."""
    ring = make_ring(p, 1, 2 * n)
    _, sinv = synthesize_s0prime(ring, n, seed=seed)
    rn1 = list(sinv[n])
    V = np.array(list(itertools.product(range(p), repeat=2 * n)), dtype=np.int64)

    def kernel_size(row):
        return int(np.count_nonzero(~(V @ np.array(row, dtype=np.int64) % p).any(axis=1)))

    rng = random.Random(seed + 1)
    dims = []
    for _ in range(trials):
        while True:
            alpha = [rng.randrange(p ** ring.deg) for _ in range(n + 1)]
            if any(alpha):
                break
        row = [ring.zero()] * (2 * n)
        for i, a in enumerate(alpha):
            row = [ring.add(acc, ring.mul(_int_to_elt(ring, a), ring.sigma(x, i)))
                   for acc, x in zip(row, rn1)]
        count, dim = kernel_size(row), 0
        while p ** dim < count:
            dim += 1
        assert p ** dim == count
        dims.append(dim)
    return kernel_size(rn1) == 1, dims


class TestMoore:
    @pytest.mark.parametrize("n,p,seed", [(n, p, 11) for n in (1, 2, 3) for p in (5, 7)]
                             + [(1, 5, 4), (2, 5, 4), (2, 7, 4), (3, 5, 4)])
    def test_ranks_match_exhaustive_count(self, n, p, seed):
        rep = moore_checks(n, p, trials=50, seed=seed)
        assert (rep.row_nonvanishing, rep.kernel_dims) == ref_moore_exhaustive(n, p, 50, seed)

    @pytest.mark.parametrize("n,p", [(1, 5), (2, 5), (2, 7), (3, 5)])
    def test_report_ok(self, n, p):
        rep = moore_checks(n, p, trials=25, seed=4)
        assert rep.row_nonvanishing
        assert rep.moore_dets_nonzero
        assert all(d <= n for d in rep.kernel_dims)
        assert rep.ok
