"""Branch-and-bound lattice point enumeration (Fincke-Pohst style).

Every Gram matrix whose result does not depend on the basis is first
LLL-reduced (`reduced_gram`, cached per Gram matrix): the reduced basis has
short, nearly orthogonal vectors, so the walk visits few nodes off the
ellipsoid however skewed the given basis was.
The pruning data is the completion of squares
Q(v) = sum_i c_i (v_i + sum_{j>i} L_ij v_j)^2, whose c_i and L_ij are ratios
of the minors of one fraction-free Bareiss elimination, rescaled to a single
integer plan so the hot loop is integer-only -- no floating point in any bound.
That plan does not depend on the bound, so it is built once per Gram matrix and
cached; each bound then only needs the int64 certificate, whose
coordinate boxes |v_j| <= sqrt(2*bound*(G^-1)_jj) read the diagonal of the
inverse off integer minors (Cramer's rule).
One walk, `_walk`, serves every caller: it goes one level at a time over
whole arrays of partial vectors and yields the leaves with their exact Q.
It walks exactly the Gram matrix it is given.
Its arrays are int64 when the certificate holds and Python ints
(dtype=object) when it does not; the code is the same.

`reduced_blocks` splits a Gram matrix into its orthogonal blocks and
reduces each once; theta tables and successive minima both go block by
block, so both ask for the walk of the same reduced block.
`leaves` keeps the leaves of small walks.  A walk is small when its
ellipsoid holds at most about LEAF_ROWS points; such a walk goes at least to
the longest basis vector, so that its leaves hold the successive minima as
well as the theta table, whichever is asked for first.  Per Gram matrix the
deepest small walk so far is kept, sorted by Q, as read-only arrays; a
smaller bound is a slice of it.  All kept leaves together stay within
LEAF_BYTES, the oldest going first, and every update holds a lock.
`theta_counts` bincounts the leaves' Q (a larger walk streams its leaves
instead, and is not kept), and `short_vectors` returns the kept vectors in
order of Q.
A walk whose ellipsoid holds more than about WORK_GUARD points, or a theta
table longer than WORK_GUARD, is refused before it starts.

Vectors are visited up to sign: the outermost nonzero coordinate is forced
positive and counts are doubled afterwards.
"""

import threading
from functools import lru_cache
from math import exp, gcd, isqrt, lcm, lgamma, log, pi, prod

import numpy as np

from .intmat import det_bareiss, gram_pivots, lll_gram

INT64_SAFE = 1 << 62
CHUNK = 1 << 16  # frontier rows walked at once by _walk
WORK_GUARD = 10 ** 8  # estimated lattice points; more is refused
LEAF_ROWS = 1 << 14  # estimated lattice points of a walk whose leaves are kept
LEAF_BYTES = 16 << 20  # all kept leaves together


@lru_cache(maxsize=512)  # bounded: a long run meets many distinct Gram matrices
def reduced_gram(gram):
    """The LLL-reduced Gram matrix (delta = 3/4) of a positive definite Gram
    matrix, both as tuples of tuples.  Its walk, and so its `_ldl_plan`, is
    shared by every caller that reduces the same Gram matrix."""
    return tuple(map(tuple, lll_gram(gram)[0]))


@lru_cache(maxsize=512)  # bounded: a long run meets many distinct Gram matrices
def _ldl_plan(gram):
    """Bound-free plan of a Gram matrix given as a tuple of tuples.

    Returns (mults, lds, lns, scale, minors, det) as tuples and ints, where
    lns[i][j] = 0 for j <= i and minors[j] is the determinant of gram with
    row and column j removed, so that (gram^-1)_jj = minors[j] / det.
    With U the rows of `gram_pivots` and D_i its leading minors (D_0 = 1),
    Q has c_i = D_{i+1}/(2 D_i) and L_ij = U[i][j]/D_{i+1}.  Row i is
    cleared by g_i = gcd(U[i][i:]), and scale clears every
    c_i/lds_i^2 = g_i^2/(2 D_i D_{i+1}).
    """
    r = len(gram)
    U = gram_pivots(gram)
    D = [1] + [row[i] for i, row in enumerate(U)]
    gs = [gcd(*row[i:]) for i, row in enumerate(U)]
    lds = tuple(D[i + 1] // g for i, g in enumerate(gs))
    lns = tuple(tuple(x // g if j > i else 0 for j, x in enumerate(U[i])) for i, g in enumerate(gs))
    scale = lcm(1, *(2 * a * b // gcd(g * g, 2 * a * b) for g, a, b in zip(gs, D, D[1:])))
    mults = tuple(g * g * scale // (2 * a * b) for g, a, b in zip(gs, D, D[1:]))
    minors = tuple(det_bareiss([[gram[a][b] for b in range(r) if b != j]
                                for a in range(r) if a != j]) for j in range(r))
    return mults, lds, lns, scale, minors, D[r]


def cholesky_plan(gram, bound):
    """Integer pruning plan for enumerating Q(v) <= bound.

    Level i (processed from i = r-1 down to 0) uses
        w_i  = lds[i]*v_i + sum_{j>i} lns[i][j]*v_j,
        test   mults[i] * w_i^2 <= T,
        descend with T - mults[i]*w_i^2,
    starting from T = bound*scale; the accumulated sum of terms is
    Q(v)*scale.  All but `safe` comes from the cached plan of the Gram
    matrix; `safe` certifies every intermediate fits in int64, from the
    coordinate boxes vmax_j = isqrt(2*bound*(G^-1)_jj) + 1.
    """
    mults, lds, lns, scale, minors, det = _ldl_plan(tuple(map(tuple, gram)))
    r = len(mults)
    vmax = [isqrt(2 * bound * m // det) + 1 for m in minors]
    wbs = [lds[i] * vmax[i] + sum(abs(x) * m for x, m in zip(lns[i], vmax)) for i in range(r)]
    safe = 2 * bound * scale + 1 < INT64_SAFE and all(
        m * wb * wb < INT64_SAFE for m, wb in zip(mults, wbs))
    return mults, lds, lns, scale, safe


def _isqrt(a):
    """Exact floor(sqrt(a)) for an int64 array with 0 <= a < 2^62.

    The float64 estimate is within 2^-20 of sqrt(a) <= 2^31, so its
    truncation is off by at most one either way; one step each corrects it.
    """
    s = np.sqrt(a).astype(np.int64)
    s -= s * s > a
    s += (s + 1) * (s + 1) <= a
    return s


_isqrt_object = np.frompyfunc(isqrt, 1, 1)


def _log_points(r, bound, det):
    """log of V_r * (2*bound)^(r/2) / sqrt(det), the estimated number of
    lattice points in the ellipsoid {Q(v) <= bound}.  The float estimate
    decides refusal and keeping only, never a result."""
    if bound <= 0:
        return 0.0
    return r / 2 * log(2 * pi * bound) - lgamma(r / 2 + 1) - log(det) / 2


def _check_work(r, bound, det):
    """Refuse a walk whose ellipsoid {Q(v) <= bound} holds more than about
    WORK_GUARD lattice points."""
    log_est = _log_points(r, bound, det)
    if log_est > log(WORK_GUARD):
        raise ValueError(
            f"enumeration to bound {bound} would visit about {exp(min(log_est, 700)):.3g} "
            f"lattice points, more than the {WORK_GUARD:.3g} guard")


def _walk(gram, bound, chunk=CHUNK):
    """Every v with Q(v) <= bound, one per +-pair (the zero vector once).

    The walk goes one level at a time, from r-1 down to 0, over a frontier
    of partial vectors (Fincke & Pohst 1985).  A row holds the budget
    t = (bound - Q so far)*scale left for the lower levels and the shifts
    base[k] of the levels k below.  Each row expands to every x with
    |lds[i]*x + base[i]| <= isqrt(t // mults[i]), which keeps each term
    within its budget.  Row 0 of the first chunk is always the zero prefix,
    and it alone keeps x >= 0.  Children are walked at most `chunk` at a
    time, so memory stays flat in the size of the frontier.  The arrays are
    int64 when `cholesky_plan` certifies the plan safe and Python ints
    (dtype=object) otherwise.

    Yields (q, path) per chunk of leaves, in lexicographic order of
    (v[r-1], ..., v[0]): q the int64 array of Q-values, and path the
    (parent, x) arrays of levels r-1, ..., 0 (parent rows index the level
    above; level r-1 hangs off the root, so its parent is None), from which
    `_coordinates` reads the vectors.
    """
    mults, lds, lns, scale, safe = cholesky_plan(gram, bound)
    r = len(mults)
    # det = prod 2 c_i with c_i = mults[i] lds[i]^2 / scale, exactly
    _check_work(r, bound, prod(2 * m * d * d for m, d in zip(mults, lds)) // scale ** r)
    top = bound * scale
    dtype, root = (np.int64, _isqrt) if safe else (object, _isqrt_object)
    lns = np.array(lns, dtype=dtype)

    def walk(i, t, base, x, path, zero):
        """Set coordinate i to x in the rows (t, base), then walk the levels below."""
        w = lds[i] * x + base[:, i]
        t = t - mults[i] * w * w
        if i == 0:
            yield ((top - t) // scale).astype(np.int64), path
            return
        base = base[:, :i] + x[:, None] * lns[:i, i]
        i -= 1
        ld, b = lds[i], base[:, i]
        B = root(t // mults[i])
        lo = -((B + b) // ld)
        if zero:
            lo[0] = 0
        hi1 = (B - b) // ld + 1
        n = (hi1 - lo).astype(np.int64)
        parent = np.arange(len(n)).repeat(n)
        # x runs lo..hi within each parent's block of children
        x = np.arange(len(parent)) - (n.cumsum() - hi1).repeat(n)
        for s in range(0, len(parent), chunk):
            p, xs = parent[s:s + chunk], x[s:s + chunk]
            yield from walk(i, t[p], base[p], xs, path + ((p, xs),), zero and s == 0)

    # the root is the zero prefix; its children are x = 0..hi at level r-1
    x = np.arange(isqrt(top // mults[-1]) // lds[-1] + 1, dtype=dtype)
    for s in range(0, len(x), chunk):
        xs = x[s:s + chunk]
        yield from walk(r - 1, np.full(len(xs), top, dtype=dtype),
                        np.zeros((len(xs), r), dtype=dtype), xs, ((None, xs),), s == 0)


def _coordinates(path):
    """The leaves' vectors, read back up their (parent, x) path."""
    (rows, x), *above = reversed(path)
    v = np.empty((len(x), len(path)), dtype=x.dtype)
    v[:, 0] = x
    for i, (parent, x) in enumerate(above, 1):
        v[:, i] = x[rows]
        if parent is not None:
            rows = parent[rows]
    return v


def block_components(gram):
    """Connected components of the basis graph (edges at nonzero gram[i][j])."""
    r = len(gram)
    seen = [False] * r
    comps = []
    for s in range(r):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(r):
                if not seen[j] and gram[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


@lru_cache(maxsize=512)  # a theta table and the minima of one lattice share it
def reduced_blocks(gram):
    """The reduced Gram matrix of each orthogonal block of a Gram matrix
    given as a tuple of tuples."""
    return tuple(reduced_gram(tuple(tuple(gram[i][j] for j in comp) for i in comp))
                 for comp in block_components(gram))


def _nbytes(entry):
    """Bytes held by a kept (depth, q, v), an object array's Python ints
    counted at 32 bytes each."""
    _, q, v = entry
    return q.nbytes + v.nbytes + (32 * v.size if v.dtype == object else 0)


class _LeafStore:
    """The deepest small walk so far per Gram matrix, as (depth, q, v), at
    most `budget` bytes in all; past it the oldest entries go first.  Every
    update holds the lock, so concurrent callers never see the dict change
    size under them."""

    def __init__(self, budget):
        self.budget = budget
        self.nbytes = 0
        self.entries = {}  # gram -> (depth, q, v), oldest first
        self.lock = threading.Lock()

    def get(self, key):
        with self.lock:
            return self.entries.get(key)

    def put(self, key, entry):
        with self.lock:
            old = self.entries.pop(key, None)
            if old is not None:
                self.nbytes -= _nbytes(old)
                if old[0] >= entry[0]:  # a concurrent caller walked deeper
                    entry = old
            self.entries[key] = entry
            self.nbytes += _nbytes(entry)
            while self.nbytes > self.budget:
                self.nbytes -= _nbytes(self.entries.pop(next(iter(self.entries))))


_STORE = _LeafStore(LEAF_BYTES)


def _small(gram, bound):
    """Whether the walk of gram (a tuple of tuples) to bound is one whose
    leaves are kept: its ellipsoid holds at most about LEAF_ROWS points, so
    it can never reach WORK_GUARD."""
    return _log_points(len(gram), bound, _ldl_plan(gram)[5]) <= log(LEAF_ROWS)


def leaves(gram, bound):
    """(q, v) for every v with Q(v) <= bound, one per +-pair: q the int64
    Q-values and v the vectors as rows, read-only, sorted by q with a stable
    sort over walk order, so the zero vector comes first.

    `_walk` yields its leaves in lexicographic order of (v[r-1], ..., v[0])
    whatever the bound, so the leaves of a deeper walk with Q <= bound, in
    that order, are the leaves of the walk to bound, and a kept walk answers
    every smaller bound by a slice.  A small walk goes to max(bound, top),
    top = max_i G_ii / 2 the longest basis vector.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    key = tuple(map(tuple, gram))
    entry = _STORE.get(key)
    if entry is None or entry[0] < bound:
        depth = max(bound, max(row[i] for i, row in enumerate(key)) // 2)
        if not _small(key, depth):
            depth = bound
        qs, paths = zip(*_walk(key, depth))
        q = np.concatenate(qs)
        order = np.argsort(q, kind="stable")
        q = q[order]
        v = np.concatenate([_coordinates(path) for path in paths])[order]
        q.flags.writeable = v.flags.writeable = False
        entry = (depth, q, v)
        if _small(key, depth):
            _STORE.put(key, entry)
    _, q, v = entry
    n = np.searchsorted(q, bound, side="right")
    return q[:n], v[:n]


def _block_counts(block, bound):
    """int64 [#{v : Q(v)=q} for q = 0..bound] of a reduced block."""
    if _small(block, bound):
        counts = np.bincount(leaves(block, bound)[0], minlength=bound + 1)
    else:
        counts = np.zeros(bound + 1, dtype=np.int64)
        for q, _ in _walk(block, bound):
            c = np.bincount(q)
            counts[:len(c)] += c
    counts[1:] *= 2  # the walk visits each v != 0 up to sign, and 0 once
    return counts


def theta_counts(gram, bound):
    """[#{v : Q(v)=q} for q = 0..bound], split over orthogonal blocks, each
    walked in its reduced basis.  A single block's table stays int64 up to
    the returned list; two or more are merged by exact products of series
    over Python ints."""
    if bound < 0:
        return []
    if bound + 1 > WORK_GUARD:
        raise ValueError(f"a theta table to bound {bound} has {bound + 1} entries, "
                         f"more than the {WORK_GUARD:.3g} guard")
    total = None
    for block in reduced_blocks(tuple(map(tuple, gram))):
        counts = _block_counts(block, bound)
        if total is None:
            total = counts
            continue
        # one shifted row per nonzero term of the sparser series
        a, b = sorted((np.asarray(total, dtype=object), counts.astype(object)),
                      key=np.count_nonzero)
        total = np.zeros(bound + 1, dtype=object)
        for k in np.flatnonzero(a):
            total[k:] += a[k] * b[:bound + 1 - k]
    return total.tolist()


def short_vectors(gram, bound):
    """All v with 0 < Q(v) <= bound, one per +-pair, in order of Q (and of
    the walk within one Q)."""
    return leaves(gram, bound)[1][1:].tolist()
