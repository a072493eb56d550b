"""Frobenius structures over the truncated two-variable arithmetic: the
constant Frobenius matrix of the cyclic basis, the unipotent coordinates of
the deformation space, the Frobenius correction F, partial horizontal
products, and first-non-integrality detection for horizontal sections.

Two parallel realizations exist on purpose: a symbolic one over Q (Poly
coefficients; used to derive the non-ordinary-locus equation and structural
identities exactly) and the truncated-series engine used for the decay
traces.  A series matrix there is two arrays, a pval block (rows, cols, T+1)
and a unit block (rows, cols, T+1, d): builders write entries with
M[i, j] = s, and the probes read the pval block directly.

The curve coordinates come in pairs: plain pairs (x_i, y_i) for i < n and
primed pairs (xp_j, yp_j) for j <= m.  The superspecial case is the generic
case with n = 1, its primed pairs named (x_j, y_j).  Both cases derive
Q = -sum x y over all pairs and R = -sum (x sigma(y) + sigma(x) y) over the
primed pairs from one pair list, and lay out the unipotent u from it once.
Both compute F = S'(u' - I)S'^{-1} by one pipeline; only S'_0 differs: a
synthesized one in the generic case, the printed
[[1/2, 1/2], [1/(2 lam), -1/(2 lam)]] at t_P = 2.

The summation order of Q and R is fixed (plain pairs, then primed pairs,
x sigma(y) before sigma(x) y): series addition keeps relative precision R,
so a sum whose leading digits cancel is renormalized with its lost digits set
to zero, and once terms cancel a different order can give different bytes.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .arith import InvariantError
from .intmat import fp_row_reduce, mat_mul
from .padic import PINF, make_ring
from .poly import Poly
from .series import SeriesRing, TSeriesMatrix
from .valcomb import ValuationProfile


# ---------------------------------------------------------------------------
# symbolic layer

def b0_sym(n, p):
    """The 2n x 2n constant Frobenius matrix at b = 0 (the shipped default)
    with Poly entries: ones below the diagonal of both n x n halves, p at
    (1, 2n) and 1/p at (n+1, n)."""
    B = [[Poly() for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(1, n):  # (i+1, i) = (n+1+i, n+i) = 1
        B[i][i - 1], B[n + i][n + i - 1] = Poly.const(1), Poly.const(1)
    B[0][2 * n - 1] = Poly.const(p)
    B[n][n - 1] = Poly.const(Fraction(1, p))
    return B


def _pairs(case, n, m):
    """(plain, primed) coordinate-name pairs: (x_i, y_i) for i < n and
    (xp_j, yp_j) for j <= m.  The superspecial case is n = 1 with its primed
    pairs named (x_j, y_j)."""
    if case == "superspecial":
        return [], [(f"x{j}", f"y{j}") for j in range(1, m + 1)]
    return ([(f"x{i}", f"y{i}") for i in range(1, n)],
            [(f"xp{j}", f"yp{j}") for j in range(1, m + 1)])


def _unipotent_layout(case, n, m):
    """The entries (i, j, name, sign, over_p) of u - I, 0-based: `name` is a
    coordinate or "Q", and the primed form u' = D u D^{-1}, D =
    diag(p^{-1} I_n, I), divides the over_p entries by p."""
    plain, primed = _pairs(case, n, m)
    last = 2 * n - 1  # column "2n"
    entries = [(n - 1, last, "Q", 1)]
    for i, (x, y) in enumerate(plain):
        entries += [(i, last, y, -1), (n - 1, i, x, 1),
                    (n - 1, n + i, y, 1), (n + i, last, x, -1)]
    for j, (x, y) in enumerate(primed):
        entries += [(n - 1, 2 * n + j, x, 1), (n - 1, 2 * n + m + j, y, 1),
                    (2 * n + j, last, y, -1), (2 * n + m + j, last, x, -1)]
    return [(i, j, name, sign, i < n <= j) for i, j, name, sign in entries]


def curve_names(case, n, m):
    """The names of a substitution's coordinate series."""
    plain, primed = _pairs(case, n, m)
    return [name for pair in plain + primed for name in pair]


def unipotent_sym(n, m):
    """The tautological unipotent u as a Poly matrix."""
    dim = 2 * n + 2 * m
    u = [[Poly.const(int(i == j)) for j in range(dim)] for i in range(dim)]
    for i, j, name, sign, _ in _unipotent_layout("generic", n, m):
        e = q_polynomial(n, m) if name == "Q" else Poly.var(name)
        u[i][j] = u[i][j] + (e if sign > 0 else -e)
    return u


def nonordinary_equation(n, m, p=5):
    """Equation of the non-ordinary locus from p * Frob on gr_{-1}.

    Computes p * u * B symbolically, takes the column through the line that
    spans gr_{-1} and reduces the diagonal coefficient mod (p, Fil^0).
    """
    dim = 2 * n + 2 * m
    u = unipotent_sym(n, m)
    B0 = b0_sym(n, p)
    B = [[Poly() for _ in range(dim)] for _ in range(dim)]
    for i in range(2 * n):
        for j in range(2 * n):
            B[i][j] = B0[i][j]
    for k in range(2 * m):
        B[2 * n + k][2 * n + k] = Poly.const(1)
    uB = mat_mul(u, B)
    # p * Frob(v_n): column n-1 of p*uB; gr_{-1} coefficient is the v_n row
    col = [Poly.const(p) * uB[i][n - 1] for i in range(dim)]
    eq = col[n - 1].reduce_mod(p)
    # everything else must land in Fil^0 + p: rows 1..n-1 vanish mod p
    for i in range(n - 1):
        if col[i].reduce_mod(p):
            raise InvariantError("unexpected gr_{-1} leakage")
    return eq


def q_polynomial(n, m):
    """Q = -sum x y over the plain, then the primed pairs."""
    plain, primed = _pairs("generic", n, m)
    Q = Poly()
    for x, y in plain + primed:
        Q = Q - Poly.var(x) * Poly.var(y)
    return Q


# ---------------------------------------------------------------------------
# ring-level: synthetic change of basis

def crystal_ring(p, R, n):
    """W(F_{p^{2n}})/p^R with canonical Frobenius."""
    return make_ring(p, R, 2 * n)


def synthesize_s0prime(ring, n, seed):
    """A synthetic change-of-basis S'_0 in GL_{2n}(W/p^R) satisfying
    sigma(S'_0) = S'_0 B'_0 with all b_i = 0 (the shipped default).

    Columns obey the cycle sigma(C_i) = C_{i+1}, sigma(C_2n) = C_1, which
    closes because sigma^{2n} is the identity on W(F_{p^{2n}}).
    """
    rng = random.Random(seed)
    q = ring.p ** ring.deg
    for _ in range(200):
        c1 = [ring.teichmuller_unit(rng.randrange(1, q - 1)) for _ in range(2 * n)]
        cols = [c1]
        for _ in range(2 * n - 1):
            cols.append([ring.sigma(x) for x in cols[-1]])
        S = tuple(tuple(cols[j][i] for j in range(2 * n)) for i in range(2 * n))
        try:
            Sinv = ring_mat_inv(ring, S)
        except ZeroDivisionError:
            continue
        return S, Sinv
    raise RuntimeError("failed to synthesize an invertible change of basis")


def ring_mat_inv(ring, A):
    """Gauss-Jordan over the local ring (pivots must be units)."""
    nn = len(A)
    M = [list(row) + [ring.from_int(int(i == j)) for j in range(nn)]
         for i, row in enumerate(A)]
    for c in range(nn):
        piv = next((i for i in range(c, nn) if ring.is_unit(M[i][c])), None)
        if piv is None:
            raise ZeroDivisionError("matrix not invertible over the ring")
        M[c], M[piv] = M[piv], M[c]
        inv = ring.inv(M[c][c])
        M[c] = [ring.mul(inv, x) for x in M[c]]
        for i in range(nn):
            if i != c and M[i][c] != ring.zero():
                f = M[i][c]
                M[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(M[i], M[c])]
    return tuple(tuple(M[i][nn + j] for j in range(nn)) for i in range(nn))


# ---------------------------------------------------------------------------
# curve substitutions

@dataclass(frozen=True)
class CurveSubstitution:
    """Teichmuller-lifted curve coordinate series, in plain and primed pairs
    (see _pairs), with the derived Q = Y_n and R = Y_{n+1}, each built on
    first use and kept (the substitution does not change)."""
    case: str
    n: int
    m: int
    sring: SeriesRing
    series: dict

    def __post_init__(self):
        if self.case not in ("generic", "superspecial"):
            raise ValueError("case must be generic or superspecial")
        if self.case == "superspecial" and self.n != 1:
            raise ValueError("the superspecial case has n = 1")
        names = curve_names(self.case, self.n, self.m)
        if set(self.series) != set(names):
            raise ValueError(f"need series exactly for {names}")

    def _neg_pair_sum(self, pairs):
        """-sum a b over the pairs, its blocks read-only: Q and R are shared."""
        acc = self.sring.zero_series()
        for a, b in pairs:
            acc = acc.add(a.mul(b))
        out = acc.neg()
        out.pval.flags.writeable = out.unit.flags.writeable = False
        return out

    def y_series(self, i):
        """Y_i for 1 <= i <= n+1: y_i below n, then Q and R."""
        if 1 <= i <= self.n - 1:
            return self.series[f"y{i}"]
        if i == self.n:
            return self.q_series()
        if i == self.n + 1:
            return self.r_series()
        raise ValueError("i out of range")

    def q_series(self):
        """Q(t) = -sum x y over the plain, then the primed pairs."""
        return self._q

    def r_series(self):
        """R(t) = -sum (x sigma(y) + sigma(x) y) over the primed pairs."""
        return self._r

    @cached_property
    def _q(self):
        plain, primed = _pairs(self.case, self.n, self.m)
        S = self.series
        return self._neg_pair_sum((S[x], S[y]) for x, y in plain + primed)

    @cached_property
    def _r(self):
        _, primed = _pairs(self.case, self.n, self.m)
        terms = []
        for x, y in primed:
            X, Y = self.series[x], self.series[y]
            terms += [(X, Y.sigma_twist()), (X.sigma_twist(), Y)]
        return self._neg_pair_sum(terms)

    def valuation_profile(self):
        """Derived ValuationProfile (a_1..a_{n+1}) for the generic case."""
        vals = []
        for i in range(1, self.n + 2):
            s = self.y_series(i)
            v = s.t_valuation()
            if v is None:
                v = self.sring.tmax + 1  # effectively infinite within window
            vals.append(v)
        return ValuationProfile(n=self.n, p=self.sring.ring.p, a=tuple(vals))


def monomial_substitution(sring, case, n, m, exps, units=None):
    """CurveSubstitution with monomial series name -> unit * t^exps[name].

    units (name -> ring element or int) default to distinct Teichmuller
    powers, which keeps derived leading coefficients from cancelling.
    """
    cs_names = curve_names(case, n, m)
    if set(exps) != set(cs_names):
        raise ValueError(f"need exponents exactly for {cs_names}")
    ring = sring.ring
    series = {}
    for k, name in enumerate(sorted(cs_names)):
        if units and name in units:
            u = units[name]
        elif ring.deg > 1:
            u = ring.teichmuller_unit(2 * k + 1)
        else:
            u = ring.from_int(1)
        series[name] = sring.monomial(exps[name], u)
    return CurveSubstitution(case, n, m, sring, series)


# ---------------------------------------------------------------------------
# series-level matrices

def unipotent_series(coords):
    """The primed unipotent u' = D u D^{-1}, D = diag(p^{-1} I_n, I), as a series matrix."""
    n, m, sring = coords.n, coords.m, coords.sring
    S = dict(coords.series, Q=coords.q_series())
    M = TSeriesMatrix.identity(sring, 2 * n + 2 * m)
    for i, j, name, sign, over_p in _unipotent_layout(coords.case, n, m):
        e = S[name] if sign > 0 else S[name].neg()
        M[i, j] = e.pshift(-1) if over_p else e
    return M


def embed_s0(sring, s0, extra):
    """blockdiag(S'_0, I_{extra}) as a constant series matrix."""
    M = TSeriesMatrix.identity(sring, len(s0) + extra)
    for i, row in enumerate(s0):
        for j, c in enumerate(row):
            M[i, j] = sring.monomial(0, c)  # a zero c gives the zero series
    return M


def frobenius_F(coords, s0, s0inv):
    """F = S' (u' - I) S'^{-1}, the Frobenius correction in the flat basis,
    S' = blockdiag(S'_0, I_{2m}); the same pipeline serves both cases."""
    sring, extra = coords.sring, 2 * coords.m
    uprime = unipotent_series(coords)
    I = TSeriesMatrix.identity(sring, uprime.dim)
    Sp = embed_s0(sring, s0, extra)
    Spi = embed_s0(sring, s0inv, extra)
    return Sp.mul(uprime.sub(I)).mul(Spi)


def f_infinity_partial(F, N):
    """prod_{i=0}^{N-1} (I + F^(i)), exact within the truncation window.

    Requires that the dropped factors are invisible: v_t(F^(N)) = p^N v_t(F)
    must exceed T_max, so F must have no constant t-term.
    """
    sring = F.sr
    p = sring.ring.p
    minv = F.t_valuation()
    if minv is None:
        return TSeriesMatrix.identity(sring, F.dim)
    if minv == 0:
        raise ValueError("F has a constant t-term, so prod (I + F^(i)) does not "
                         "converge t-adically; the curve series must vanish at t = 0")
    if minv * p ** N <= sring.tmax:
        raise ValueError(
            f"N = {N} too small: v_t(F^(N)) = {minv * p ** N} <= T_max = {sring.tmax}; "
            "increase N or lower T_max")
    acc = TSeriesMatrix.identity(sring, F.dim).add(F)
    Fi = F
    for _ in range(1, N):
        Fi = Fi.sigma_twist()
        acc = acc.mul_one_plus(Fi)  # v_t(F^(i)) >= v_t(F) >= 1
    return acc


def min_tval_at_pval(M, r, rows, cols):
    """Minimal t-exponent carrying a coefficient of p-valuation <= -r in the
    sub-block of the given rows and columns, or None."""
    pv = M.pval[np.ix_(rows, cols)]
    hit = np.flatnonzero(((pv <= -r) & (pv > -PINF)).any(axis=(0, 1)))
    return int(hit[0]) if hit.size else None


# ---------------------------------------------------------------------------
# superspecial engine

def superspecial_ring(p, R):
    """W(F_{p^2})/p^R as Z_p[lam]/(lam^2 - theta), theta the least quadratic
    nonresidue mod p, for an odd prime p."""
    from .arith import is_prime, kronecker
    if p < 3 or not is_prime(p):
        raise ValueError(f"the superspecial ring needs an odd prime p, not {p}")
    theta = next(t for t in range(2, p) if kronecker(t, p) == -1)
    return make_ring(p, R, 2, minpoly_modp=((-theta) % p ** R, 0, 1))


def ssp_s0prime(ring):
    """S'_0 = [[1/2, 1/2], [1/(2 lam), -1/(2 lam)]] and its inverse [[1, lam],[1, -lam]]."""
    lam = ring.gen()
    inv2 = ring.inv(ring.from_int(2))
    inv2lam = ring.inv(ring.mul(ring.from_int(2), lam))
    S = ((inv2, inv2), (inv2lam, ring.neg(inv2lam)))
    Sinv = ((ring.one(), lam), (ring.one(), ring.neg(lam)))
    return S, Sinv


def superspecial_F(coords):
    """The (2+2m)-dimensional Frobenius correction F at t_P = 2: the generic
    S'(u' - I)S'^{-1} at n = 1 with the printed S'_0 of ssp_s0prime.

    Blocks: F_t (top-left 2x2) from Q/2p and lam, F_r (top-right 2x2m) from
    x_i/2p and y_i/2p (divided by lam on row 2), F_l (bottom-left) with rows
    (-y_i, lam y_i) and (-x_i, lam x_i)."""
    if coords.case != "superspecial":
        raise ValueError("superspecial substitution required")
    ring = coords.sring.ring
    if ring.deg != 2:
        raise ValueError("superspecial case needs the quadratic ring")
    return frobenius_F(coords, *ssp_s0prime(ring))


# ---------------------------------------------------------------------------
# horizontal sections and decay

def integral_basis_matrix(sring, s0inv, n, extra):
    """D * blockdiag(S'_0^{-1}, I): coordinates in the honest integral basis
    {v_i, w_i, e', f'}; the first n rows absorb the extra p from pv_i = p v_i."""
    M = embed_s0(sring, s0inv, extra)
    top = M.pval[:n]
    top[top < PINF] += 1
    return M


@dataclass
class DecayProbe:
    nu: int | None          # first t-exponent with a non-integral coefficient
    component: int | None   # which basis coordinate witnessed it
    decay_bound: int | None  # ceil(nu / p): lifting obstruction order
    status: str             # "detected" | "integral-within-window"


def first_nonintegral_order(finf, w, r, basis_mat, components):
    """Track p^r * F_inf * w in the integral basis; report the first
    t-exponent whose coefficient fails integrality.

    `components` are the basis coordinates watched (the paper tracks a
    single distinguished f'-coordinate; watching more of them can fire
    earlier, which only strengthens the decay claim)."""
    sring = finf.sr
    vec = [sring.monomial(0, w[i], pshift=r) for i in range(finf.dim)]
    z = basis_mat.mul_vector(finf.mul_vector(vec))
    bad = np.array([z[i].pval < 0 for i in components])
    hit = np.flatnonzero(bad.any(axis=0))
    if not hit.size:
        return DecayProbe(None, None, None, "integral-within-window")
    best = int(hit[0])
    comp = components[int(np.argmax(bad[:, best]))]  # the first watched hit at t = best
    return DecayProbe(best, comp, -(-best // sring.ring.p), "detected")


# ---------------------------------------------------------------------------
# Moore-matrix checks over F_{p^{2n}}

@dataclass
class MooreReport:
    n: int
    p: int
    row_nonvanishing: bool
    kernel_dims: list      # per sampled coefficient vector
    kernel_bound: int
    moore_dets_nonzero: bool

    @property
    def ok(self):
        return (self.row_nonvanishing and self.moore_dets_nonzero
                and all(d <= self.kernel_bound for d in self.kernel_dims))


def moore_checks(n, p, trials=50, seed=0):
    """Verification of the row-pairing and kernel-dimension claims for the
    synthesized change of basis over F_{p^{2n}}, by ranks over F_p: a row of
    2n elements of F_{p^d} is a 2n x d matrix A over F_p (their coordinates),
    and the v in F_p^{2n} it sends to 0 form a kernel of dimension 2n - rank A."""
    ring = make_ring(p, 1, 2 * n)
    _, sinv = synthesize_s0prime(ring, n, seed=seed)
    d = ring.deg
    rn1 = [sinv[n][j] for j in range(2 * n)]  # row n+1, 0-based index n

    def kernel_dim(row):
        return 2 * n - len(fp_row_reduce(row, p)[1])

    def combine(coeffs, elts):  # sum_j c_j e_j in the ring
        return reduce(ring.add, map(ring.mul, coeffs, elts), ring.zero())

    # (i) R_{n+1} v != 0 for every nonzero v in F_p^{2n}
    nonvan = kernel_dim(rn1) == 0

    rng = random.Random(seed + 1)
    q = p ** d
    dims = []
    for _ in range(trials):
        while True:
            alpha = [rng.randrange(q) for _ in range(n + 1)]
            if any(alpha):
                break
        alpha = [_int_to_elt(ring, a) for a in alpha]  # sum_i alpha_i sigma^i(R_{n+1})
        dims.append(kernel_dim([combine(alpha, [ring.sigma(x, i) for i in range(n + 1)])
                                for x in rn1]))

    # (iii) Moore determinant for independent z_1..z_{n+1}
    dets_ok = True
    for _ in range(10):
        zs = []
        while len(zs) < n + 1:
            v = [rng.randrange(p) for _ in range(2 * n)]
            if any(v) and len(fp_row_reduce(zs + [v], p)[1]) == len(zs) + 1:
                zs.append(v)
        betas = [combine(map(ring.from_int, z), rn1) for z in zs]
        # the Moore matrix (sigma^i(beta_j)) over the field F_{p^d} is
        # invertible iff its block matrix of multiplication matrices has
        # full rank over F_p
        blocks = [[ring.mul_matrix(ring.sigma(b, i)) for b in betas] for i in range(n + 1)]
        block = [sum((B[r] for B in brow), []) for brow in blocks for r in range(d)]
        invertible = len(fp_row_reduce(block, p)[1]) == (n + 1) * d
        indep = len(fp_row_reduce(betas, p)[1]) == len(betas)
        dets_ok = dets_ok and invertible == indep
    return MooreReport(n, p, nonvan, dims, n, dets_ok)


def _int_to_elt(ring, a):
    coords = []
    for _ in range(ring.deg):
        coords.append(a % ring.p)
        a //= ring.p
    return tuple(coords)

