"""Local intersection-number bookkeeping over nested lattice sequences:
truncation caps, the per-point global weights, the geometric-series decay
constants, the exact budget inequality, and the exponential-growth formal
curve.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import InvariantError, is_prime, valuation
from .lattice import QuadLattice, SublatticeBasis, identity_basis, rep_count


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


def local_intersection(seq, m, n_cap):
    """sum_{n=1}^{n_cap} #{v in L_n : Q(v) = m} under the change-point
    convention (the last provided level persists up to n_cap)."""
    total = 0
    for length, basis in seq.segments(n_cap):
        total += length * rep_count(basis.as_lattice(), m)
    return total


def truncation_cap(c1_proxy, b, X):
    """c2 X^{b/2}, c2 = c1 * 2^{b/2}, rounded up: the least N with N^2 >= c1^2 (2X)^b.
    Beyond this level the first successive minimum exceeds sqrt(2X), so no
    vectors of norm <= 2X remain."""
    square = Fraction(c1_proxy) ** 2 * Fraction(2 * X) ** b
    n = math.isqrt(math.ceil(square))
    return n if n * n >= square else n + 1


def g_P(h_P, p, qL_abs):
    """Global weight h_P |q_L(m)| / (p-1) of a non-ordinary point."""
    return Fraction(h_P) * Fraction(qL_abs) / (p - 1)


@dataclass(frozen=True)
class CurveBudget:
    """Hasse-mass ledger: sum of h_P over non-ordinary points = (p-1) omega.C."""
    p: int
    omegaC: Fraction
    points: tuple  # ((label, h_P, type), ...) type in {ordinary, nonss, ssp}

    def __post_init__(self):
        if type(self.p) is not int or not is_prime(self.p):
            raise ValueError(f"the ledger's p must be a prime, not {self.p!r}")
        for _, h, typ in self.points:
            if type(h) is not int:
                raise ValueError(f"the ledger point's h must be an integer, not {h!r}")
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


@dataclass(frozen=True)
class ContradictionShape:
    alpha: Fraction          # geometric-series constant for the decay case
    alpha_prime: Fraction    # (alpha + 1) / 2, strictly between alpha and 1
    T: int                   # the least truncation level absorbing the deep tail
    holds: bool              # alpha' * G + error < G, the contradiction


def contradiction_shape(p, b, case, global_sum, X, c3):
    """Instantiate the budget inequality of the global/local comparison:
    with alpha from the decay case and T the least level whose deep-tail
    error c3 X^{(b+2)/2} / T^{2/b} is at most target = (alpha'-alpha) G,
    the supersingular total alpha' G + error is < G exactly when the error
    is < target.  Raised to the power 2b, error <= target reads
    c3^{2b} X^{b(b+2)} <= target^{2b} T^4, so every step is exact."""
    G, X, c3 = Fraction(global_sum), Fraction(X), Fraction(c3)
    if G <= 0 or X < 1 or c3 < 0 or b < 1:
        raise ValueError("need G > 0, X >= 1, c3 >= 0 and b >= 1")
    alpha, _ = ssmain_bound(p, b, case)
    alpha_prime = (alpha + 1) / 2
    lead = c3 ** (2 * b) * X ** (b * (b + 2))
    bound = ((alpha_prime - alpha) * G) ** (2 * b)
    fourth = math.ceil(lead / bound)  # the least T has T^4 >= lead / bound
    T = math.isqrt(math.isqrt(fourth))  # the integer fourth root
    T = max(1, T if T ** 4 >= fourth else T + 1)
    return ContradictionShape(alpha, alpha_prime, T, lead < bound * T ** 4)


# ---------------------------------------------------------------------------
# the exponential-growth formal curve

# levels starting at N <= EXPLICIT_LEVEL_CAP are materialized as lattices
EXPLICIT_LEVEL_CAP = 30


@dataclass
class FormalCurve:
    p: int
    c: int
    n_seq: list            # n_0 = 0 < n_1 < n_2 < ... (n_{j+1} = p^{2 n_j})
    mu_partial: list       # mu mod p^{n_{j+1}} = sum_{i <= j} p^{n_i}
    m_values: list         # m_j = Q(v_{1, n_{j+1}-1})
    ip_exponents: list     # i_P(Z(m_j)) >= p^{n_{j+1}}: stored as exponents
    sequence: NestedLatticeSequence | None  # explicit levels when small


def formal_curve_sequence(p, c, q_e, q_f, j_max):
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
    while p ** (k - 1) + 1 <= EXPLICIT_LEVEL_CAP:
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
    p^{n_{j+1}}.  Level exponent k needs mu_j = mu mod p^k, and
    mu mod p^k = (mu mod p^{n_{j+1}}) mod p^k for k <= n_{j+1}, so the first
    failing k is one past v_p(mu_j - mu mod p^{n_{j+1}}).

    Returns (m_j, exponent E with i_P(Z(m_j)) >= p^E)."""
    nj1 = curve.n_seq[j + 1]
    v = valuation(curve.mu_partial[j] - _mu_mod(curve.p, curve.n_seq, nj1), curve.p, nj1)
    if v < nj1:
        raise InvariantError(f"membership fails at level exponent {v + 1}")
    return curve.m_values[j], nj1
