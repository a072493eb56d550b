"""The three benchmark workloads: seeded inputs, the timed calls into
orthocount, and an independent oracle for every item.

A workload is a list of `Task`s built from the seed.  `Task.run` makes the
program calls and is timed; `Task.check` compares the result against an
oracle after the clock has stopped and returns one boolean per item.
Every call goes through a module attribute (`lattice.theta_table`, ...)
so that a traced pass sees the wrappers installed by `spans.install`.

See README.md for why each workload exists and which layers it bypasses.
"""

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from orthocount import crystal, density, eisenstein, lattice, series, valcomb
from orthocount.intmat import smith_normal_form
from orthocount.lattice import QuadLattice


@dataclass
class Task:
    label: str
    items: int                  # items this task contributes to `attempted`
    run: Callable[[], object]   # program calls, timed
    check: Callable[[object], list]  # oracle, untimed: one bool per item
    note: str = ""              # a limit the task honours; counted in the run's output


# ---------------------------------------------------------------------------
# fixed lattices (root lattices; each is alone in its genus)

E8_GRAM = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]

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

E8_MMAX = 20
EIS_MMAX = 120


def sigma3(m):
    return sum(d ** 3 for d in range(1, m + 1) if m % d == 0)


# ---------------------------------------------------------------------------
# theta_e8: one deep count-mode enumeration (fixed input)

def build_theta_e8(seed):
    """E8 theta coefficients to m <= 20 against r(m) and 240 sigma_3(m).

    The input is fixed; the seed does not change it."""
    e8 = QuadLattice.from_rows(E8_GRAM, positive_definite=True)

    def run():
        return eisenstein.e8_check(e8, mmax=E8_MMAX, b=6, p=7)

    def check(res):
        ok, rows = res
        if not ok or [m for m, _, _ in rows] != list(range(1, E8_MMAX + 1)):
            return [False] * E8_MMAX
        return [q == r == 240 * sigma3(m) for m, q, r in rows]

    return [Task("e8_check", E8_MMAX, run, check)]


# ---------------------------------------------------------------------------
# crystal_decay: series products, F_inf, probes, and the valuation combinatorics

# Fixed exponent patterns of the criterion-7 generator (n, m, exponents).
# The seed draws the change of basis S'_0; keeping the patterns fixed keeps
# the amount of series work the same for every seed.
GENERIC_PATTERNS = [
    (2, 1, {"x1": 1, "y1": 3, "xp1": 1, "yp1": 2}),
    (2, 1, {"x1": 1, "y1": 2, "xp1": 2, "yp1": 2}),
    (2, 1, {"x1": 3, "y1": 1, "xp1": 3, "yp1": 2}),
    (2, 1, {"x1": 2, "y1": 3, "xp1": 1, "yp1": 3}),
    (3, 0, {"x1": 3, "x2": 2, "y1": 1, "y2": 1}),
    (3, 0, {"x1": 2, "x2": 1, "y1": 2, "y2": 2}),
]
GENERIC_P, GENERIC_R, GENERIC_T, GENERIC_N = 5, 8, 160, 4  # 5^4 = 625 > 160
SSP = dict(p=5, a=1, h=2, hprime=13, R=8, T=701, N=5)  # 5^5 = 3125 > 701
MINVAL_PROFILES_PER_N = 10  # n = 1..4
MINVAL_RMAX = 6
INDEX_CASES = ("generic", "ssp-case1", "ssp-case2")


def nu_min_dp(r, prof):
    """min over index tuples I of length r of nu(I), by the recursion
    nu(i, J) = a_i + p^i nu(J): an oracle independent of min_set's search."""
    best = 0
    for _ in range(r):
        best = min(prof.a[i - 1] + prof.p ** i * best for i in range(1, prof.n + 2))
    return best


def nu_direct(I, prof):
    total, exp = 0, 0
    for i in I:
        total += prof.p ** exp * prof.a[i - 1]
        exp += i
    return total


def _generic_task(n, m, exps, s0_seed):
    ring = crystal.crystal_ring(GENERIC_P, GENERIC_R, n)
    sr = series.SeriesRing(ring, GENERIC_T)
    coords = crystal.monomial_substitution(sr, "generic", n, m, exps)
    s0, s0inv = crystal.synthesize_s0prime(ring, n, seed=s0_seed)

    def run():
        F = crystal.frobenius_F(coords, s0, s0inv)
        finf = crystal.f_infinity_partial(F, GENERIC_N)
        prof = coords.valuation_profile()
        out = []
        for r in (1, 2, 3):
            nu_r, argmin = valcomb.min_set(r, prof)
            got = crystal.min_tval_at_pval(finf, r, rows=range(2 * n), cols=range(2 * n))
            out.append((nu_r, argmin, got))
        return prof, out

    def check(res):
        prof, out = res
        oks = []
        for r, (nu_r, argmin, got) in zip((1, 2, 3), out):
            ok = nu_r == nu_min_dp(r, prof) and all(nu_direct(I, prof) == nu_r for I in argmin)
            if nu_r > GENERIC_T:
                ok = ok and (got is None or got > GENERIC_T)
            else:
                ok = ok and got == nu_r
            oks.append(ok)
        return oks

    return Task(f"generic n={n} m={m} {exps}", 3, run, check)


def _ssp_task(rng):
    """The criterion-6 case-1 trace: few products on long series."""
    p, a, h, hp = SSP["p"], SSP["a"], SSP["h"], SSP["hprime"]
    ring = crystal.superspecial_ring(p, SSP["R"])
    sr = series.SeriesRing(ring, SSP["T"])
    exps = {"x1": a, "y1": h - a, "x2": hp - 2 * p, "y2": 2}
    q = p ** ring.deg
    # The first pair carries (lam, 1), whose two cross terms in R cancel, so
    # h' comes from the second pair.  Its Teichmuller units are drawn until
    # they keep the profile's h and h' (their cross terms can cancel too).
    while True:
        units = {"x1": ring.gen(), "y1": 1,
                 "x2": ring.teichmuller_unit(rng.randrange(1, q - 1)),
                 "y2": ring.teichmuller_unit(rng.randrange(1, q - 1))}
        coords = crystal.monomial_substitution(sr, "superspecial", 1, 2, exps, units=units)
        if coords.q_series().t_valuation() == h and coords.r_series().t_valuation() == hp:
            break
    _, sinv = crystal.ssp_s0prime(ring)
    prof = valcomb.SuperspecialProfile(p=p, h=h, hprime=hp, a=a)
    fp1 = 2 + coords.m
    probes = []
    for r in (0, 1):
        for w_base in ([1, 0], [0, 1], [1, 1]):
            probes.append((1, r, w_base + [0] * (2 * coords.m)))
        probes.append((2, r, [0, 0, 1] + [0] * (2 * coords.m - 1)))

    def run():
        F = crystal.superspecial_F(coords)
        finf = crystal.f_infinity_partial(F, SSP["N"])
        basis = crystal.integral_basis_matrix(sr, sinv, 1, 2 * coords.m)
        out = []
        for kind, r, w in probes:
            probe = crystal.first_nonintegral_order(finf, w, r, basis, components=[fp1])
            expected, _ = valcomb.ssp_min_valuation(kind, r, prof)
            out.append((r, probe, expected))
        return out

    def check(out):
        hps = valcomb.schedule_hprime(h, p, 3, a)
        return [probe.status == "detected" and probe.nu == expected
                and probe.decay_bound <= hps[r + 1] + 1
                for r, probe, expected in out]

    return Task("superspecial trace", len(probes), run, check)


def _minval_task(n, rng):
    prof = valcomb.ValuationProfile(n=n, p=rng.choice([5, 7]),
                                    a=tuple(rng.randint(1, 12) for _ in range(n + 1)))

    def run():
        rep = valcomb.verify_minval(prof, r_max=MINVAL_RMAX)
        return rep, valcomb.min_set(MINVAL_RMAX, prof)

    def check(res):
        rep, (nu_r, argmin) = res
        return [rep.ok and nu_r == nu_min_dp(MINVAL_RMAX, prof)
                and all(nu_direct(I, prof) == nu_r for I in argmin)]

    return Task(f"verify_minval {prof}", 1, run, check)


def _index_task(case, rng):
    """predicted_index at both ends and one seeded inner n of every window
    of build_schedule, where off-by-one errors would show."""
    h = rng.choice([2, 4, 6, 8])
    a = rng.randint(1, h // 2)
    p = 5
    sched = valcomb.build_schedule(case, h, p, a=a, r_max=3)
    exponent = {n: e for lo, hi, e in sched.windows for n in range(lo, hi + 1)}
    ns = sorted({n for lo, hi, _ in sched.windows for n in (lo, hi, rng.randint(lo, hi))})

    def run():
        return [valcomb.predicted_index(n, case, h, p, a=a) for n in ns]

    def check(got):
        return [g == exponent[n] for n, g in zip(ns, got)]

    return Task(f"predicted_index {case} h={h} a={a}", len(ns), run, check)


def build_crystal_decay(seed):
    rng = random.Random(seed)
    tasks = [_generic_task(n, m, exps, rng.randrange(1, 10 ** 6))
             for n, m, exps in GENERIC_PATTERNS]
    tasks.append(_ssp_task(rng))
    tasks += [_minval_task(n, rng) for n in range(1, 5)
              for _ in range(MINVAL_PROFILES_PER_N)]
    tasks += [_index_task(case, rng) for case in INDEX_CASES]
    return tasks


# ---------------------------------------------------------------------------
# density_eis: three density routes, Eisenstein coefficients, many small
# collect-mode enumerations

DENSITY_MAX_RANK = {3: 6, 5: 4, 7: 4}
HEAVY_TUPLES = 10 ** 5   # depth-2 tuple count above which a (p, rank) runs once
LIGHT_COPIES = 4
SMALL_LATTICES_PER_RANK = 50  # ranks 2..5
SMALL_THETA_BOUND = 8
BRUTE_BOX_LIMIT = 50_000


def random_gram(rng, rank, spread=2):
    """Random positive definite even gram 2 B^T B."""
    while True:
        B = [[rng.randint(-spread, spread) for _ in range(rank)] for _ in range(rank)]
        G = [[2 * sum(B[k][i] * B[k][j] for k in range(rank)) for j in range(rank)]
             for i in range(rank)]
        if round(np.linalg.det(np.array(B, dtype=float))) != 0:
            return G


def density_cases(rng):
    """The seeded (p, gram, m) of the density part, in workload order."""
    for p, max_rank in DENSITY_MAX_RANK.items():
        for rank in range(1, max_rank + 1):
            for _ in range(1 if p ** (2 * rank) > HEAVY_TUPLES else LIGHT_COPIES):
                G = random_gram(rng, rank)
                if rng.random() < 0.35:  # p-divisible blocks, as in the cross-oracle criterion
                    k = rng.randint(1, rank)
                    scale = [p if i < k else 1 for i in range(rank)]
                    G = [[G[i][j] * scale[i] * scale[j] for j in range(rank)]
                         for i in range(rank)]
                yield p, G, rng.choice([x for x in range(1, 61) if x % p])


def within_blockwise_precision(p, G, m):
    """False where local_density's block reduction runs out of working
    precision: the top p-adic Jordan scale reaches p^(stable_depth + 6)."""
    return max_jordan_valuation(G, p) < density.stable_depth(p, m) + 6


def _density_task(p, G, m):
    rank = len(G)
    L = QuadLattice.from_rows(G, positive_definite=True)
    depths = [a for a in (1, 2) if p ** (a * rank) <= density.NAIVE_GUARD]
    # The blockwise route reduces the gram modulo p^(a+6) (and p^(a+7) for
    # its recheck) and refuses, with ArithmeticError, a lattice whose
    # p-adic Jordan scales reach that precision.  Like NAIVE_GUARD for the
    # naive route, that limit is honoured here rather than tripped: the
    # inputs are unchanged, and on such a lattice the naive and recursive
    # routes still run and must agree.  The number of such tasks is
    # reported with every run.
    blockwise = within_blockwise_precision(p, G, m)

    def run():
        naive = [density.local_density_naive(p, L, m, a) for a in depths]
        return (naive, density.local_density(p, L, m) if blockwise else None,
                density.local_density_recursive(p, L, m))

    def check(res):
        naive, bw, recursive = res
        return [all(d == recursive for d in naive) and (bw == recursive or not blockwise)]

    return Task(f"density p={p} rank={rank} m={m}", 1, run, check,
                "" if blockwise else "density task beyond blockwise working precision")


def max_jordan_valuation(G, p):
    """Largest p-adic valuation of an elementary divisor of G (odd p): the
    top Jordan scale of the lattice at p."""
    top = 0
    for d in smith_normal_form(G):
        v = 0
        while d and d % p == 0:
            d //= p
            v += 1
        top = max(top, v)
    return top


def sum_of_squares_counts(nmax, dim=8):
    """[#{x in Z^dim : x.x = n} for n <= nmax] by polynomial powering."""
    base = np.zeros(nmax + 1, dtype=np.int64)
    for x in range(-int(nmax ** 0.5), int(nmax ** 0.5) + 1):
        base[x * x] += 1
    out = np.zeros(nmax + 1, dtype=np.int64)
    out[0] = 1
    for _ in range(dim):
        out = np.convolve(out, base)[:nmax + 1]
    return out


def d8_counts(mmax):
    """r_{D8}(m): D8 = {x in Z^8 : sum x even}, Q = x.x/2; an even x.x
    forces an even coordinate sum, so r(m) = r_8(2m)."""
    r8 = sum_of_squares_counts(2 * mmax)
    return [int(r8[2 * m]) for m in range(mmax + 1)]


def e7_counts(mmax):
    """r_{E7}(m) with E7 = {x in E8 : sum x = 0} in the even coordinate
    system E8 = D8 u (D8 + (1/2)^8), counted coordinate by coordinate on the
    doubled vector y = 2x: all y_i of one parity, sum y = 0, y.y = 8m."""
    qmax = 8 * mmax
    ymax = int(qmax ** 0.5)
    total = np.zeros(qmax + 1, dtype=np.int64)
    for parity in (0, 1):
        ys = [y for y in range(-ymax, ymax + 1) if y % 2 == parity]
        smax = 8 * ymax
        dp = np.zeros((2 * smax + 1, qmax + 1), dtype=np.int64)  # [sum + smax, y.y]
        dp[smax, 0] = 1
        for _ in range(8):
            new = np.zeros_like(dp)
            for y in ys:
                q = y * y
                if y >= 0:
                    new[y:, q:] += dp[:dp.shape[0] - y, :qmax + 1 - q]
                else:
                    new[:y, q:] += dp[-y:, :qmax + 1 - q]
            dp = new
        total += dp[smax]
    return [int(total[8 * m]) for m in range(mmax + 1)]


def _eis_task(name, gram, b, oracle):
    L = QuadLattice.from_rows(gram, positive_definite=True)
    ctx = eisenstein.EisensteinContext.from_lattice(L, b=b, p=7)

    def run():
        return [eisenstein.eis_coeff_theta(ctx, L, m) for m in range(1, EIS_MMAX + 1)]

    def check(coeffs):
        counts = oracle(EIS_MMAX)
        return [q.is_exact and q.pi_half == 0 and q.sqrt_arg == 1
                and q.exact_fraction() == counts[m]
                for m, q in enumerate(coeffs, start=1)]

    return Task(f"eis_coeff_theta {name} m<={EIS_MMAX}", EIS_MMAX, run, check)


def _brute_box(G, bound):
    """Per-coordinate bounds |v_j| <= sqrt(2 bound Ginv_jj) of Q(v) <= bound."""
    ginv = np.linalg.inv(np.array(G, dtype=float))
    return [int((2 * bound * ginv[j, j]) ** 0.5) + 1 for j in range(len(G))]


def brute_vectors(G, bound):
    """All v with Q(v) <= bound and their Q-values, by a full box scan."""
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in _brute_box(G, bound)]
    V = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(G))
    q = np.einsum("ij,jk,ik->i", V, np.array(G, dtype=np.int64), V) // 2
    keep = q <= bound
    return V[keep], q[keep]


def successive_minima_by_rank(V, q, rank):
    """mu_i^2 = smallest y with rank{v : Q(v) <= y} >= i, level by level."""
    mu_sq, basis = [], np.zeros((0, rank))
    for y in np.unique(q[q > 0]):
        stacked = np.vstack([basis, V[q == y]])
        got = np.linalg.matrix_rank(stacked)
        mu_sq += [int(y)] * (got - len(mu_sq))
        basis = stacked
        if len(mu_sq) == rank:
            break
    return mu_sq


def _small_lattice_task(rank, rng):
    # Redraw until the brute-force box of the oracle stays small; the bound
    # covers theta to 8 and every successive minimum (mu_i^2 <= max Q(e_j)).
    while True:
        G = random_gram(rng, rank)
        bound = max(SMALL_THETA_BOUND, max(G[i][i] for i in range(rank)) // 2)
        if np.prod([2 * b + 1 for b in _brute_box(G, bound)]) <= BRUTE_BOX_LIMIT:
            break
    L = QuadLattice.from_rows(G, positive_definite=True)

    def run():
        return (lattice.theta_table(L, SMALL_THETA_BOUND),
                lattice.successive_minima(L))

    def check(res):
        table, (mu_sq, a_sq) = res
        V, q = brute_vectors(G, bound)
        expect = np.bincount(q, minlength=bound + 1)[:SMALL_THETA_BOUND + 1]
        prods = list(itertools.accumulate(mu_sq, lambda x, y: x * y))
        return [list(table) == [int(c) for c in expect]
                and mu_sq == successive_minima_by_rank(V, q, rank) and a_sq == prods]

    return Task(f"theta+minima rank={rank}", 1, run, check)


def build_density_eis(seed):
    rng = random.Random(seed)
    tasks = [_density_task(*case) for case in density_cases(rng)]
    tasks.append(_eis_task("D8", D8_GRAM, 6, d8_counts))
    tasks.append(_eis_task("E7", E7_GRAM, 5, e7_counts))
    tasks += [_small_lattice_task(rank, rng) for rank in range(2, 6)
              for _ in range(SMALL_LATTICES_PER_RANK)]
    return tasks


WORKLOADS = {
    "theta_e8": build_theta_e8,
    "crystal_decay": build_crystal_decay,
    "density_eis": build_density_eis,
}
