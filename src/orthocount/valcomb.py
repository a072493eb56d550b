"""t-adic valuation combinatorics: weights and minimal valuations of index
tuples, the superspecial candidate sets, and the decay/index schedules.

Everything here is exact integer/Fraction arithmetic.  `min_sets` finds the
minimal valuations by the recursion nu(i||J) = a_i + p^i nu(J), one level at
a time, and yields every level on the way; `min_set` is its last level.
`verify_minval` checks the structure of the minimizing sets, so its
search stays exhaustive: every index tuple gets its valuation, computed in
whole arrays from the tables of the two halves of the tuple.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import is_prime

MIN_SET_GUARD = 10 ** 7
CHUNK = 2 ** 16  # cells of the nu(I||J) grid formed at once by _search
CAP = 2 ** 31  # int64 search values saturate here
R_CAP = 64  # levels of the decay windows predicted_index tries


@dataclass(frozen=True)
class ValuationProfile:
    """n, p and the valuations a = (a_1, ..., a_{n+1}) of the curve series."""
    n: int
    p: int
    a: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if len(self.a) != self.n + 1:
            raise ValueError("need exactly n+1 valuations")
        if any(x < 1 for x in self.a):
            raise ValueError("valuations must be positive")


@dataclass(frozen=True)
class SuperspecialProfile:
    p: int
    h: int
    hprime: int
    a: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not (2 * self.a <= self.h and (self.p + 1) * self.a <= self.hprime):
            raise ValueError("need 2a <= h and (p+1)a <= h'")


def weight(I):
    return sum(I)


def nu(I, prof):
    """sum_j p^(i_1 + ... + i_{j-1}) * a_{i_j}, exact."""
    total = 0
    exp = 0
    for i in I:
        if not 1 <= i <= prof.n + 1:
            raise ValueError("index out of range")
        total += prof.p ** exp * prof.a[i - 1]
        exp += i
    return total


def _check_guard(r, prof):
    size = (prof.n + 1) ** r
    if size > MIN_SET_GUARD:
        raise ValueError(f"index space too large to enumerate: (n+1)^r = "
                         f"{prof.n + 1}^{r} = {size} exceeds MIN_SET_GUARD = "
                         f"{MIN_SET_GUARD}")


def _capped(xs, dtype):
    """The ints xs as an array of dtype, saturated at CAP over int64."""
    return np.array([min(x, CAP) for x in xs] if dtype == np.int64 else xs, dtype)


def _grow(tables, k, prof):
    """Extend tables, the nu and weight of every j-tuple for j = 0, 1, ...
    in C order (the order of itertools.product), to j <= k, one leading
    index at a time from nu(i, J) = a_i + p^i nu(J).  Over int64 every a_i,
    p^i and value is saturated at CAP, so each product is at most 2^62 and
    a value below CAP is exact."""
    dtype = tables[0][0].dtype
    idx = np.arange(1, prof.n + 2)
    a = _capped(prof.a, dtype)
    pw = _capped([prof.p ** i for i in idx.tolist()], dtype)
    while len(tables) <= k:
        vals, wts = tables[-1]
        grown = (a[:, None] + pw[:, None] * vals[None, :]).ravel()
        if dtype == np.int64:
            np.minimum(grown, CAP, out=grown)
        tables.append((grown, (idx[:, None] + wts[None, :]).ravel()))


def min_sets(rmax, prof):
    """Yield (nu_r, sorted argmin tuples) over the (n+1)^r index tuples of
    length r, for r = 1, ..., rmax in turn.

    As p^i > 0, i||J is minimal iff J is minimal of length r - 1 and i
    minimizes a_i + p^i nu_{r-1}: each level takes the least of n+1 values,
    and the argmin set is the product of the levels' sorted tie sets, the
    last level's first.  Ties can make it as large as (n+1)^r tuples, so it
    is refused, before it is built, when it would hold more than
    MIN_SET_GUARD.
    """
    if rmax < 1:
        raise ValueError("r must be >= 1")
    best, ties, size = 0, [], 1
    for level in range(1, rmax + 1):
        vals = [a + prof.p ** i * best for i, a in enumerate(prof.a, 1)]
        best = min(vals)
        ties.append([i for i, v in enumerate(vals, 1) if v == best])
        size *= len(ties[-1])
        if size > MIN_SET_GUARD:
            raise ValueError(f"argmin set too large: {size} tuples of length {level} "
                             f"exceed MIN_SET_GUARD = {MIN_SET_GUARD}")
        yield best, list(itertools.product(*reversed(ties)))


def min_set(r, prof):
    """(nu_r, sorted argmin tuples) for the tuples of length r: the last
    item of min_sets(r, prof)."""
    *_, last = min_sets(r, prof)
    return last


def _search(r, prof, tables):
    """min_set by exhaustive search over the (n+1)^r tuples, the independent
    route of verify_minval; the half tables come from tables (dtype -> list
    of the j-tuple tables, grown as needed), so that one call of
    verify_minval builds each half table once.

    Every tuple is split as I||J with |I| = r // 2 (so r = 1 is the bare
    table of J), and gets nu(I||J) = nu(I) + p^weight(I) nu(J) from the
    tables of both halves, CHUNK cells of the grid (at least one row of I)
    at a time.  C order of the grid is the sorted order of the tuples.  The
    search runs over int64 when nu(1, ..., 1) < CAP: tables and powers
    saturate at CAP, so a cell is at most CAP + CAP^2 < 2^63 and exact when
    below CAP, and nu_r <= nu(1, ..., 1) makes the minimum and its ties
    exact.  Otherwise the values are Python ints in object arrays.
    """
    n1, p = prof.n + 1, prof.p
    dtype = np.int64 if nu((1,) * r, prof) < CAP else object
    half = tables.setdefault(dtype, [(np.zeros(1, dtype), np.zeros(1, np.int64))])
    _grow(half, r - r // 2, prof)
    v_i, w_i = half[r // 2]
    v_j, _ = half[r - r // 2]
    scale = _capped([p ** w for w in range(int(w_i.max()) + 1)], dtype)[w_i]
    step = max(1, CHUNK // len(v_j))
    best, flat = None, []
    for lo in range(0, len(v_i), step):
        block = (v_i[lo:lo + step, None] + scale[lo:lo + step, None] * v_j[None, :]).ravel()
        low = block.min()
        if best is None or low < best:
            best, flat = low, []
        if low == best:
            flat.append(np.flatnonzero(block == best) + lo * len(v_j))
    digits = np.unravel_index(np.concatenate(flat), (n1,) * r)
    return int(best), [tuple(I) for I in (np.stack(digits, axis=1) + 1).tolist()]


@dataclass
class MinvalReport:
    r_max: int
    checked: int
    violations: list  # (r, property, witness)

    @property
    def ok(self):
        return not self.violations


def verify_minval(prof, r_max):
    """Exhaustively verify the structure of the minimizing sets for r <= r_max:

    (1) truncation/extension closure, (2) monotone indices with antitone
    valuations, (3) coordinatewise mixing closure, (4) weight spread < n+1,
    (5) unique maximal- and minimal-weight members (with distinct weights
    whenever the set has more than one element).
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    _check_guard(r_max, prof)
    viol = []
    sets = {}
    checked = 0
    tables = {}  # the half tables of every r, built once per call
    for r in range(1, r_max + 1):
        _, sets[r] = _search(r, prof, tables)
    for r in range(1, r_max + 1):
        cur = sets[r]
        cur_set = set(cur)
        checked += len(cur)
        if r >= 2:
            prev = set(sets[r - 1])
            for I in cur:
                if I[1:] not in prev:
                    viol.append((r, 1, I))
            for J in sets[r - 1]:
                if not any(I[1:] == J for I in cur):
                    viol.append((r, 1, ("no extension", J)))
        for I in cur:
            if list(I) != sorted(I):
                viol.append((r, 2, I))
            avals = [prof.a[i - 1] for i in I]
            if avals != sorted(avals, reverse=True):
                viol.append((r, 2, ("a-values", I)))
        for I in cur:
            for J in cur:
                for mix in itertools.product(*zip(I, J)):
                    if mix not in cur_set:
                        viol.append((r, 3, (I, J, mix)))
                if abs(weight(I) - weight(J)) >= prof.n + 1:
                    viol.append((r, 4, (I, J)))
        if len(cur) > 1:
            weights = [weight(I) for I in cur]
            if len(set(weights)) == 1:
                viol.append((r, 5, ("all weights equal", cur)))
            if weights.count(max(weights)) != 1 or weights.count(min(weights)) != 1:
                viol.append((r, 5, ("extreme weight not unique", cur)))
    return MinvalReport(r_max, checked, viol)


# ---------------------------------------------------------------------------
# superspecial candidate sets

def ssp_term_valuation(kind, alpha, beta, prof):
    """t-adic valuation of the candidate product with alpha top-block factors
    and beta bridge pairs; kind 2 appends one more column factor, of
    valuation a."""
    v = prof.a + prof.h * sum(prof.p ** i for i in range(1, alpha + 1)) \
        + prof.hprime * sum(prof.p ** (alpha + 2 * j - 1) for j in range(1, beta + 1))
    if kind == 2:
        v += prof.a * prof.p ** (alpha + 2 * beta + 1)
    return v


def ssp_min_valuation(kind, r, prof):
    """(min valuation, argmin set of (alpha, beta)) over the candidate set.

    kind 1: alpha + beta = r + 1; kind 2 (one extra column factor):
    alpha + beta = r.
    """
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    total = r + 1 if kind == 1 else r
    best = None
    argmin = []
    for alpha in range(total + 1):
        beta = total - alpha
        v = ssp_term_valuation(kind, alpha, beta, prof)
        if best is None or v < best:
            best, argmin = v, [(alpha, beta)]
        elif v == best:
            argmin.append((alpha, beta))
    return best, argmin


# ---------------------------------------------------------------------------
# decay schedules

def _geometric(p, r):
    """1 + p + ... + p^r, and 0 for r = -1."""
    return (p ** (r + 1) - 1) // (p - 1)


def _h_at(h, p, r):
    """h_r = floor(h (p^r + ... + p + 1 + 1/p)) for integer h."""
    return h * _geometric(p, r) + h // p


def _hprime_at(h, p, r, a):
    """h'_r = floor(h (p^r + ... + 1) + a/p) for r >= -1, a a Fraction."""
    return int(h * _geometric(p, r) + a / p)


def schedule_h(h, p, r_max):
    """[h_0, ..., h_{r_max}] with h_r = floor(h (p^r + ... + p + 1 + 1/p))."""
    return [_h_at(h, p, r) for r in range(r_max + 1)]


def schedule_hprime(h, p, r_max, a=None):
    """[h'_{-1}, h'_0, ..., h'_{r_max}], h'_r = floor(h(p^r+...+1) + a/p)."""
    a = Fraction(h, 2) if a is None else Fraction(a)
    return [_hprime_at(h, p, r, a) for r in range(-1, r_max + 1)]


def schedules(h, p, r_max, a=None):
    """(schedule_h, schedule_hprime) for a prime p."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, not {p}")
    return schedule_h(h, p, r_max), schedule_hprime(h, p, r_max, a)


@dataclass(frozen=True)
class DecaySchedule:
    case: str  # "generic" | "ssp-case1" | "ssp-case2"
    # ((n_lo, n_hi, exponent), ...) in order and disjoint, e nondecreasing; a
    # gap between two windows holds n that the theorems leave uncovered
    windows: tuple

    def __post_init__(self):
        for (l1, h1, e1), (l2, h2, e2) in zip(self.windows, self.windows[1:]):
            if l2 <= h1:
                raise ValueError("windows must be in order and must not overlap")
            if e2 < e1:
                raise ValueError("exponents must be nondecreasing")


def _windows(case, h, p, a):
    """The windows (lo, hi, e) of the decay theorems, in order and without
    end: |L_1/L_n| >= p^e for lo <= n <= hi, and an n below lo that no
    earlier window holds is uncovered.  A window may be empty (lo > hi).
    a is a Fraction; where a p^r is fractional, the edges are the least and
    the largest integers on the right side of each bound."""
    if case == "generic":
        for r in itertools.count():
            yield _h_at(h, p, r) + 1, _h_at(h, p, r + 1), 2 + 2 * r
    elif case == "ssp-case1":
        for r in itertools.count():
            lo = math.ceil(_hprime_at(h, p, r - 1, a) + a * p ** r) + 1
            mid = _hprime_at(h, p, r, a)
            yield lo, mid, 1 + 2 * r
            yield max(lo, mid + 1), math.floor(mid + a * p ** (r + 1)), 2 + 2 * r
    elif case == "ssp-case2":
        lo = math.ceil(_hprime_at(h, p, -1, a) + a) + 1
        yield lo, _hprime_at(h, p, 0, a), 1
        for r in itertools.count():
            yield max(lo, _hprime_at(h, p, r, a) + 1), _hprime_at(h, p, r + 1, a), 3 + 2 * r
    else:
        raise ValueError(f"unknown case {case!r}")


def predicted_index(n, case, h, p, a=None):
    """Lower-bound exponent e with |L_1/L_n| >= p^e from the decay theorems,
    or None where the theorems leave n uncovered (below the first window, or
    inside a genuine inter-window gap when a p^r is fractional).

    The windows of _windows are walked in order up to the first that decides
    n; those of exponent above 2 R_CAP - 2 (the levels past R_CAP) are not
    tried."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = Fraction(h, 2) if a is None else Fraction(a)
    for lo, hi, e in _windows(case, h, p, a):
        if e > 2 * R_CAP - 2:
            raise ValueError(f"n lies past the first {R_CAP} levels")
        if n < lo:
            return None
        if n <= hi:
            return e


def build_schedule(case, h, p, a=None, r_max=4):
    """DecaySchedule over the nonempty windows of predicted_index up to level
    r_max (exponent 2 r_max + 2)."""
    a = Fraction(h, 2) if a is None else Fraction(a)
    windows = itertools.takewhile(lambda w: w[2] <= 2 * r_max + 2, _windows(case, h, p, a))
    return DecaySchedule(case, tuple(w for w in windows if w[0] <= w[1]))
