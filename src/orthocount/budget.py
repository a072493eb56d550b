"""Local intersection-number bookkeeping over nested lattice sequences:
truncation caps, counting majorants, the per-point global weights, the
geometric-series decay constants, and the exponential-growth formal curve.
"""

import math
from dataclasses import dataclass
from fractions import Fraction


from .arith import InvariantError, is_prime
from .lattice import (
    QuadLattice,
    SublatticeBasis,
    identity_basis,
    rep_count,
    successive_minima,
    theta_table,
)


@dataclass(frozen=True)
class NestedLatticeSequence:
    """Change-point encoding of L_1 >= L_2 >= ...: `levels` lists
    (n_start, basis) with strictly increasing n_start, first entry at 1;
    L_n is constant between change-points."""
    ambient: QuadLattice
    levels: tuple  # ((n_start, SublatticeBasis), ...)

    def __post_init__(self):
        if not self.levels or self.levels[0][0] != 1:
            raise ValueError("first level must start at n = 1")
        starts = [s for s, _ in self.levels]
        if starts != sorted(set(starts)):
            raise ValueError("n_start values must be strictly increasing")
        prev = None
        for _, basis in self.levels:
            if basis.ambient != self.ambient:
                raise ValueError("level bases must live in the ambient lattice")
            if prev is not None:
                for j in range(self.ambient.rank):
                    if not prev.contains(basis.col(j)):
                        raise ValueError("each level must contain the next")
            prev = basis

    def segments(self, n_cap):
        """(length, basis) pieces covering n = 1..n_cap."""
        out = []
        for k, (start, basis) in enumerate(self.levels):
            if start > n_cap:
                break
            end = self.levels[k + 1][0] - 1 if k + 1 < len(self.levels) else n_cap
            end = min(end, n_cap)
            out.append((end - start + 1, basis))
        return out


def constant_sequence(L):
    return NestedLatticeSequence(L, ((1, identity_basis(L)),))


def local_intersection(seq, m, n_cap):
    """sum_{n=1}^{n_cap} #{v in L_n : Q(v) = m} under the change-point
    convention (the last provided level persists up to n_cap)."""
    total = 0
    for length, basis in seq.segments(n_cap):
        total += length * rep_count(basis.as_lattice(), m)
    return total


def truncation_cap(c1_proxy, b, X):
    """c2 X^{b/2} with c2 = c1 * 2^{b/2}: beyond this level the first
    successive minimum exceeds sqrt(2X), so no vectors of norm <= 2X remain."""
    if b % 2 == 0:
        c2 = Fraction(c1_proxy) * 2 ** (b // 2)
        return math.ceil(c2 * X ** (b // 2))
    return math.ceil(float(c1_proxy) * 2 ** (b / 2) * X ** (b / 2))


@dataclass
class CountingBound:
    majorant: float
    empirical: int
    fitted_K: float  # empirical <= K * majorant


def counting_bound(seq, X, n_cap=None):
    """Eskin-style majorant sum_n sum_i (2X)^{i/2} / a_i(n) next to the true
    count of vectors with 0 < Q <= 2X; reports the fitted ratio."""
    if n_cap is None:
        n_cap = seq.levels[-1][0]
    maj = 0.0
    emp = 0
    for length, basis in seq.segments(n_cap):
        L = basis.as_lattice()
        _, a_sq = successive_minima(L)
        r = L.rank
        term = 1.0  # i = 0
        for i in range(1, r + 1):
            term += (2 * X) ** (i / 2) / math.sqrt(a_sq[i - 1])
        maj += length * term
        emp += length * (sum(theta_table(L, 2 * X)) - 1)
    K = emp / maj if maj > 0 else 0.0
    return CountingBound(maj, emp, K)


def g_P(h_P, p, qL_abs):
    """Global weight h_P |q_L(m)| / (p-1) of a non-ordinary point."""
    if h_P == 0:
        return Fraction(0) if isinstance(qL_abs, (int, Fraction)) else 0.0
    if isinstance(qL_abs, (int, Fraction)):
        return Fraction(h_P) * qL_abs / (p - 1)
    return h_P * qL_abs / (p - 1)


@dataclass(frozen=True)
class CurveBudget:
    """Hasse-mass ledger: sum of h_P over non-ordinary points = (p-1) omega.C."""
    p: int
    omegaC: Fraction
    points: tuple  # ((label, h_P, type), ...) type in {ordinary, nonss, ssp}

    def __post_init__(self):
        for _, h, typ in self.points:
            if typ not in ("ordinary", "nonss-supersingular", "superspecial"):
                raise ValueError(f"unknown point type {typ}")
            if typ == "ordinary" and h != 0:
                raise ValueError("ordinary points carry h_P = 0")
            if typ != "ordinary" and h < 1:
                raise ValueError("non-ordinary points need h_P >= 1")

    def mass(self):
        return sum(h for _, h, typ in self.points if typ != "ordinary")

    def is_complete(self):
        return self.mass() == (self.p - 1) * self.omegaC

    def ledger_identity(self, qL_abs):
        """(sum_P g_P, |q_L| omega.C, exact-equality flag)."""
        total = sum(g_P(h, self.p, qL_abs) for _, h, typ in self.points)
        target = qL_abs * self.omegaC
        return total, target, self.is_complete() and total == target


# the ceiling each decay case's constant stays under for every prime p >= 5
SSMAIN_CEILINGS = {"nonss": Fraction(11, 12), "ssp1": Fraction(61, 62),
                   "ssp2": Fraction(17, 20)}


def ssmain_bound(p, b, case):
    """Exact geometric-series constants alpha with
    sum_n q_{L'_n}(m)/g_P(m) <= alpha * h/(p-1), per decay case."""
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")
    if case not in SSMAIN_CEILINGS:
        raise ValueError(f"unknown case {case}")
    p = Fraction(p)
    if case == "ssp1" and b < 4:
        # the rank-3 route reuses the non-superspecial constant
        case = "nonss"
    if case == "nonss":
        val = 2 * (p * p - p + 1) / (p * (p * p - 1))
    elif case == "ssp1":
        val = (p + 1) ** 2 / (2 * (p * p + p + 1)) \
            + (2 * p / (p * p + p + 1)) * (1 / (1 - 1 / p))
    else:
        val = (1 + 1 / p) / 2 + 1 / (p + 1) + (2 / (p + 1)) * (1 / (p - 1))
    ceiling = SSMAIN_CEILINGS[case]
    if val > ceiling:
        raise InvariantError(f"ssmain constant {val} of case {case} at p = {p} "
                             f"exceeds its ceiling {ceiling}")
    return val, ceiling


def sserror_bound(T, b, X, c3):
    """Leading error term c3 X^{(b+2)/2} / T^{2/b} of the deep-level tail,
    with the subleading scale X^{(b+1)/2} reported alongside."""
    if T < 1 or X < 1:
        raise ValueError("T and X must be positive")
    lead = float(c3) * X ** ((b + 2) / 2) / T ** (2 / b)
    return lead, X ** ((b + 1) / 2)


def solve_T_for_target(target, b, X, c3):
    """Minimal T making the leading error term <= target."""
    if target <= 0:
        raise ValueError("target must be positive")
    T = max(1, math.ceil((float(c3) * X ** ((b + 2) / 2) / target) ** (b / 2)))
    while sserror_bound(T, b, X, c3)[0] > target:
        T *= 2
    while T > 1 and sserror_bound(T - 1, b, X, c3)[0] <= target:
        T -= 1
    return T


@dataclass
class ContradictionShape:
    alpha: Fraction          # geometric-series constant for the decay case
    alpha_prime: Fraction    # any constant strictly between alpha and 1
    T: int                   # truncation level absorbing the deep tail
    main_term: float         # alpha' * G
    global_term: float       # G = sum |q_L| * omega.C proxy
    strict: bool             # alpha' * G + error < G, the contradiction

    @property
    def holds(self):
        return self.strict


def contradiction_shape(p, b, case, global_sum, X, c3):
    """Instantiate the budget inequality of the global/local comparison:
    with alpha from the decay case and T chosen so the deep-tail error is
    at most (alpha'-alpha) * G, the supersingular total is < G."""
    alpha, _ = ssmain_bound(p, b, case)
    alpha_prime = (alpha + 1) / 2
    target = float((alpha_prime - alpha) * Fraction(global_sum))
    T = solve_T_for_target(target, b, X, c3)
    err = sserror_bound(T, b, X, c3)[0]
    main = float(alpha_prime) * float(global_sum)
    return ContradictionShape(alpha, alpha_prime, T, main, float(global_sum),
                              main + err < float(global_sum))


# ---------------------------------------------------------------------------
# the exponential-growth formal curve

@dataclass
class FormalCurve:
    p: int
    c: int
    n_seq: list            # n_0 = 0 < n_1 < n_2 < ... (n_{j+1} = p^{2 n_j})
    mu_partial: list       # mu mod p^{n_{j+1}} = sum_{i <= j} p^{n_i}
    m_values: list         # m_j = Q(v_{1, n_{j+1}-1})
    ip_exponents: list     # i_P(Z(m_j)) >= p^{n_{j+1}}: stored as exponents
    sequence: NestedLatticeSequence | None  # explicit levels when small


def formal_curve_sequence(p, c, q_e, q_f, j_max, explicit_level_cap=30):
    """The recursively-defined curve with n_{j+1} = p^{2 n_j}.

    Levels L_N = span{e_i + (mu mod p^k) f_i, p^k f_i} for p^{k-1} < N <= p^k.
    Index arithmetic is symbolic (exponents), the small levels are also
    materialized as an explicit NestedLatticeSequence for enumeration tests.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    n_seq = [0]
    for _ in range(j_max + 1):
        # n_{j+1} = p^{2 n_j} explodes doubly exponentially; big-int budget
        if 2 * n_seq[-1] * math.log10(p) > 10 ** 4:
            raise ValueError(
                "j_max too deep: the next level exponent would exceed the "
                "10^4-digit big-integer budget; valuations beyond this point "
                "are only meaningful symbolically")
        n_seq.append(p ** (2 * n_seq[-1]))
    # mu = sum_j p^{n_j}; partial sums give mu mod p^k windows
    m_values = []
    mu_partials = []
    for j in range(j_max + 1):
        mu_j = sum(p ** n_seq[i] for i in range(j + 1))  # = mu mod p^{n_{j+1}}
        mu_partials.append(mu_j)
        m_values.append(q_e + q_f * mu_j * mu_j)
    ip_exponents = [n_seq[j + 1] for j in range(j_max + 1)]

    # explicit small levels: rank 2c ambient, diag(2 q_e, 2 q_f) per pair
    gram = [[0] * (2 * c) for _ in range(2 * c)]
    for i in range(c):
        gram[2 * i][2 * i] = 2 * q_e
        gram[2 * i + 1][2 * i + 1] = 2 * q_f
    ambient = QuadLattice.from_rows(gram, positive_definite=True)
    levels = [(1, identity_basis(ambient))]
    k = 1
    while p ** (k - 1) + 1 <= explicit_level_cap:
        mu_k = _mu_mod(p, n_seq, k)
        cols = [[0] * (2 * c) for _ in range(2 * c)]
        for i in range(c):
            cols[2 * i][2 * i] = 1
            cols[2 * i + 1][2 * i] = mu_k
            cols[2 * i + 1][2 * i + 1] = p ** k
        levels.append((p ** (k - 1) + 1, SublatticeBasis.from_cols(ambient, cols)))
        k += 1
    seq = NestedLatticeSequence(ambient, tuple(levels))
    return FormalCurve(p, c, n_seq[:j_max + 2], mu_partials, m_values,
                       ip_exponents, seq)


def _mu_mod(p, n_seq, k):
    """mu mod p^k for mu = sum_j p^{n_j} (symbolic in the exponents)."""
    return sum(p ** n for n in n_seq if n < k)


def certify_membership(curve, j):
    """Check v = e_1 + (mu mod p^{n_{j+1}}) f_1 lies in every level up to
    p^{n_{j+1}}, via the congruence mu_j = mu mod p^k for k <= n_{j+1}.

    Returns (m_j, exponent E with i_P(Z(m_j)) >= p^E)."""
    p = curve.p
    nj1 = curve.n_seq[j + 1]
    mu_j = curve.mu_partial[j]
    for k in range(1, nj1 + 1):
        # membership in span{e + (mu mod p^k) f, p^k f}: needs mu_j = mu mod p^k
        if (mu_j - _mu_mod(p, curve.n_seq, k)) % p ** k != 0:
            raise InvariantError(f"membership fails at level exponent {k}")
    return curve.m_values[j], nj1


@dataclass
class FirstMinReport:
    ratios: list           # (n_start, i, a_i(n) / n^{i/b}) per level and i
    implied_constant: float | None
    degenerate: bool       # constant sequence: infinite-nesting hypothesis fails


def firstmin_check(seq, b=None):
    """min_n a_i(n) / n^{i/b} over the provided levels (positive-definite)."""
    if b is None:
        b = seq.ambient.rank
    if len(seq.levels) <= 1:
        return FirstMinReport([], None, True)
    ratios = []
    for start, basis in seq.levels:
        L = basis.as_lattice()
        _, a_sq = successive_minima(L)
        for i in range(1, L.rank + 1):
            ratios.append((start, i, math.sqrt(a_sq[i - 1]) / start ** (i / b)))
    const = min(r for _, _, r in ratios)
    return FirstMinReport(ratios, const, False)
