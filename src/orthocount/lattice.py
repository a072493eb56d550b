"""Integral quadratic lattices.

A lattice is stored through the Gram matrix of its *bilinear* form
[e_i, e_j]; the quadratic form is Q(v) = (1/2) v^T G v, so every diagonal
entry must be even (Q is Z-valued).  All arithmetic is exact.
"""

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from ._enum import leaves, reduced_blocks, theta_counts
from .arith import InvariantError, is_prime, kronecker, valuation
from .intmat import (
    det_bareiss,
    gram_pivots,
    hnf_columns,
    kernel_basis,
    mat_mul,
    smith_normal_form,
    solve_integer,
    transpose,
)
from .tableio import int_rows, json_object


def _int_tuples(rows, what):
    """rows as a tuple of tuples of int; ints and numpy integers pass, while
    2.9, 1.5 or "2" is refused rather than rounded."""
    try:
        return tuple(tuple(map(operator.index, row)) for row in rows)
    except TypeError as e:
        raise ValueError(f"{what} must hold integers: {e}") from None


@dataclass(frozen=True)
class QuadLattice:
    rank: int
    gram: tuple  # rank x rank tuple of tuples, bilinear form values
    positive_definite: bool = False

    def __post_init__(self):
        # a tuple of tuples of int, so that lattices hash and compare by value
        g = _int_tuples(self.gram, "gram")
        object.__setattr__(self, "gram", g)
        if self.rank < 1:
            raise ValueError("a lattice needs rank >= 1")
        if len(g) != self.rank or any(len(row) != self.rank for row in g):
            raise ValueError("gram has wrong shape")
        for i in range(self.rank):
            if g[i][i] % 2 != 0:
                raise ValueError("diagonal of gram must be even (Q must be Z-valued); "
                                 "double an odd-diagonal form before constructing")
            for j in range(self.rank):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram must be symmetric")
        if det_bareiss(self.gram_rows()) == 0:
            raise ValueError("gram is singular")
        if self.positive_definite:
            gram_pivots(self.gram_rows())  # raises at a leading minor <= 0

    @staticmethod
    def from_rows(rows, positive_definite=False):
        return QuadLattice(len(rows), rows, positive_definite)

    def gram_rows(self):
        return [list(row) for row in self.gram]


@dataclass(frozen=True)
class SublatticeBasis:
    ambient: QuadLattice
    cols: tuple  # rank x rank, columns are basis vectors in ambient coordinates

    def __post_init__(self):
        r = self.ambient.rank
        if len(self.cols) != r or any(len(row) != r for row in self.cols):
            raise ValueError("cols has wrong shape")
        if det_bareiss([list(row) for row in self.cols]) == 0:
            raise ValueError("columns are linearly dependent")

    @staticmethod
    def from_cols(ambient, cols):
        return SublatticeBasis(ambient, _int_tuples(cols, "cols"))

    def col(self, j):
        return [self.cols[i][j] for i in range(self.ambient.rank)]

    def index_in_ambient(self):
        return abs(det_bareiss([list(row) for row in self.cols]))

    def gram(self):
        """Gram matrix of the ambient form restricted to this basis."""
        C = [list(row) for row in self.cols]
        return mat_mul(mat_mul(transpose(C), self.ambient.gram_rows()), C)

    def as_lattice(self):
        return QuadLattice.from_rows(self.gram(),
                                     positive_definite=self.ambient.positive_definite)

    def contains(self, v):
        return solve_integer([list(row) for row in self.cols], list(v)) is not None


def identity_basis(L):
    return SublatticeBasis.from_cols(L, [[int(i == j) for j in range(L.rank)]
                                         for i in range(L.rank)])


def det_and_elementary_divisors(L):
    """(det gram, the elementary divisors of gram): the divisors are the
    invariant factors of L^v / L, so their product must be |det|."""
    d = det_bareiss(L.gram_rows())
    divisors = smith_normal_form(L.gram_rows())
    order = prod(divisors)
    if order != abs(d):
        raise InvariantError(f"|L^v/L| = {order} from the Smith form, but |det| = {abs(d)}")
    return d, divisors


def det_and_disc_group(L):
    """(det gram, |L^v / L|) with the discriminant group read off the Smith form."""
    d, _ = det_and_elementary_divisors(L)
    return d, abs(d)


def theta_table(L, bound):
    """Representation counts [r(0), ..., r(bound)] by exhaustive enumeration."""
    if not L.positive_definite:
        raise ValueError("enumeration needs a positive definite lattice")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    return theta_counts(L.gram_rows(), bound)


def rep_count(L, m):
    """#{v in L : Q(v) = m} by branch-and-bound enumeration."""
    if m < 0:
        return 0
    return theta_table(L, m)[m]


def successive_minima(L):
    """(mu_sq, a_sq): exact squared successive minima and squared products.

    mu_sq[i-1] = mu_i^2 is the smallest y such that i linearly independent
    vectors of Q-value <= y exist; a_sq[i-1] = (mu_1 ... mu_i)^2.  Both do
    not depend on the basis, so they are found block by block, each
    orthogonal block in its LLL-reduced basis b_i, by one walk to
    top = max_i Q(b_i): the b_i are independent vectors of Q <= top, so the
    block's last minimum is at most top, and the greedy pick of independent
    vectors in order of Q is then exact.  LLL bounds top <= 2^(k-1) mu_k^2
    for a block of rank k (Lenstra, Lenstra & Lovasz 1982), so the walk
    stays small however skewed the basis of L is.  That walk is the one
    `theta_table` keeps for the same reduced block, when it is small.

    The minima of L = L_1 + L_2 (orthogonal) are the sorted union of the
    minima of L_1 and L_2.  The union's i smallest come with independent
    vectors of L of Q at most the i-th smallest, so mu_i(L) is at most it.
    Conversely, let i independent vectors of L have Q <= lam.  Their
    projections onto L_1 and L_2 are vectors of the blocks, with Q no larger
    (Q(v) = Q(v_1) + Q(v_2), both terms >= 0), and they span subspaces of
    dimensions a + b >= i.  So lam >= mu_a(L_1) and lam >= mu_b(L_2): at
    least a + b >= i minima of the union are <= lam.
    """
    if not L.positive_definite:
        raise ValueError("successive minima need a positive definite lattice")
    mu_sq = sorted(mu for R in reduced_blocks(L.gram) for mu in _block_minima(R))
    return mu_sq, list(itertools.accumulate(mu_sq, lambda x, y: x * y))


def _block_minima(R):
    """The squared successive minima of a reduced Gram matrix R, by the
    greedy pick over one walk to its longest basis vector."""
    r = len(R)
    qs, vs = leaves(R, max(R[i][i] for i in range(r)) // 2)
    echelon, mu_sq = [], []
    for q, v in zip(qs[1:].tolist(), vs[1:].tolist()):  # leaf 0 is the zero vector
        if _extend_echelon(echelon, v):
            mu_sq.append(q)
            if len(mu_sq) == r:
                break
    if len(mu_sq) < r:
        raise InvariantError(f"{len(mu_sq)} independent vectors up to the longest "
                             f"reduced basis vector, expected {r}")
    return mu_sq


def _extend_echelon(echelon, v):
    """Add v to `echelon` and return True iff v is independent of it over Q.

    echelon holds (pivot, row) pairs of integer rows, each zero at the pivots
    of the rows before it.  v is reduced against each row by fraction-free
    elimination, f*v - g*row with f = row[pivot], g = v[pivot], so it ends
    zero at every pivot, and is zero iff it lies in their span.
    """
    w = list(v)
    for c, row in echelon:
        if w[c]:
            f, g = row[c], w[c]
            w = [f * x - g * y for x, y in zip(w, row)]
    c = next((i for i, x in enumerate(w) if x), None)
    if c is None:
        return False
    d = gcd(*w)
    echelon.append((c, [x // d for x in w]))
    return True


def jordan_blocks(L, ell, depth):
    """The ell-adic Jordan splitting of the gram of L, for counts mod ell^depth.

    Returns gram blocks ("1", g) and, at ell = 2 only, ("2", (a, b, c)) for
    [[a, b], [b, c]] = ell^v times a unimodular block, whose orthogonal sum
    is equivalent to the gram over Z_ell (Cassels, Rational Quadratic Forms,
    ch. 8).  Each step takes an entry of least valuation: a diagonal one is
    a 1x1 pivot; at odd ell an off-diagonal one becomes diagonal through
    e_i <- e_i + e_j, since Q(e_i + e_j) = Q_ii + Q_jj + 2 Q_ij; at ell = 2
    the 2x2 block it spans is split off whole.

    The entries are reduced modulo ell^w, w = depth + v_ell(det G) + 3.
    Over Z_ell the pivot valuations (2v for a 2x2 block of scale ell^v) add
    up to v_ell(det G), so each is at most v_ell(det G) < w, and the checks
    for a pivot at or beyond ell^w can fire only on a broken invariant.
    Dividing by a pivot of valuation v loses v digits of the multipliers,
    and these losses total at most v_ell(det G), so every block is still
    correct modulo ell^(depth + 3): more than the ell^(depth + 1) that
    Q = G/2 modulo ell^depth needs at ell = 2.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    G = L.gram_rows()
    vdet = valuation(det_bareiss(G), ell, 0)
    work = depth + vdet + 3
    M = ell ** work

    def val(x):
        return valuation(x, ell, work)

    def check_below_work(v):
        if v >= work:
            raise InvariantError(f"a pivot of valuation >= {work} at ell = {ell}, "
                                 f"beyond v_ell(det) = {vdet}")

    G = [[x % M for x in row] for row in G]
    idx = list(range(L.rank))
    blocks = []
    while idx:
        vmin, i, j = min((val(G[r][c]), r, c) for r in idx for c in idx)
        check_below_work(vmin)
        k = next((k for k in idx if val(G[k][k]) == vmin), None)
        if k is None and ell > 2:
            for c in idx:
                G[i][c] = (G[i][c] + G[j][c]) % M
            for c in idx:
                G[c][i] = (G[c][i] + G[c][j]) % M
            if val(G[i][i]) != vmin:
                raise InvariantError("Q(e_i + e_j) lost the minimal valuation")
            k = i
        if k is not None:
            piv = G[k][k]
            uinv = pow(piv // ell ** vmin, -1, M)
            idx.remove(k)
            for r in idx:
                if val(G[r][k]) < vmin:
                    raise InvariantError("1x1 pivot does not divide its column")
                mult = G[r][k] // ell ** vmin * uinv % M
                for c in idx:
                    G[r][c] = (G[r][c] - mult * G[k][c]) % M
            blocks.append(("1", piv))
            continue
        # ell = 2, off-diagonal minimum: keep the 2x2 block
        if i == j:
            raise InvariantError("2x2 pivot on the diagonal")
        a, b, c = G[i][i], G[i][j], G[j][j]
        det = (a * c - b * b) % M
        dv = val(det)
        check_below_work(dv)
        if dv != 2 * vmin:
            raise InvariantError("2x2 pivot block is not ell^v times a unimodular block")
        dinv = pow(det // ell ** dv, -1, M)
        idx.remove(i)
        idx.remove(j)
        for r in idx:
            gi, gj = G[r][i], G[r][j]
            x, y = gi * c - gj * b, gj * a - gi * b
            if min(valuation(x, ell, dv), valuation(y, ell, dv)) < dv:
                raise InvariantError("2x2 pivot block does not divide its columns")
            x = x // ell ** dv * dinv % M
            y = y // ell ** dv * dinv % M
            for c_ in idx:
                G[r][c_] = (G[r][c_] - x * G[i][c_] - y * G[j][c_]) % M
        blocks.append(("2", (a, b, c)))
    return blocks


def p_diagonalize(L, p, precision):
    """Diagonalize Q over Z_p (odd p): list of (unit mod p^precision, valuation).

    The odd-p view of jordan_blocks: each 1x1 block g gives Q = g/2 as
    p^v times a unit.  The multiset of valuations is canonical; unit parts
    are only well defined up to squares of p-adic units.
    """
    if p == 2:
        raise ValueError("p = 2 is out of scope (dyadic Jordan forms not supported)")
    if not is_prime(p):
        raise ValueError("p must be an odd prime")
    mod = p ** precision
    inv2 = pow(2, -1, mod)
    out = []
    for _, g in jordan_blocks(L, p, precision):
        v = valuation(g, p, 0)
        out.append((g // p ** v * inv2 % mod, v))
    return out


def is_maximal_at(L, ell):
    """True iff no integral overlattice exists inside L x Q_ell (odd ell).

    Read off the Jordan splitting Q = sum u_i ell^(v_i) x_i^2.  A scale
    v_i >= 2 gives the integral vector e_i/ell.  The scale-ell part gives
    the ell-torsion of L^v/L with the form sum u_i x_i^2 / ell, and an
    overlattice step is a nonzero isotropic vector of it over F_ell: one
    exists for three or more variables, and for two iff -u_1 u_2 is a
    square mod ell.
    """
    if ell == 2:
        raise ValueError("ell = 2 is out of scope")
    diag = p_diagonalize(L, ell, 1)
    if any(v >= 2 for _, v in diag):
        return False
    units = [u for u, v in diag if v == 1]
    if len(units) == 2:
        return kronecker(-units[0] * units[1], ell) != 1
    return len(units) < 3


def intersect_and_index(A, B):
    """(basis of A cap B, index of the intersection in A)."""
    if A.ambient is not B.ambient and A.ambient != B.ambient:
        raise ValueError("sublattices live in different ambient lattices")
    r = A.ambient.rank
    MA = [list(row) for row in A.cols]
    MB = [list(row) for row in B.cols]
    stacked = [[MA[i][j] for j in range(r)] + [-MB[i][j] for j in range(r)]
               for i in range(r)]
    ker = kernel_basis(stacked)
    if len(ker) != r:
        raise InvariantError(f"A cap B has rank {len(ker)}, expected {r}")
    # intersection vectors: A @ x-part of each kernel generator
    gens = []
    for k in ker:
        x = k[:r]
        gens.append([sum(MA[i][j] * x[j] for j in range(r)) for i in range(r)])
    # HNF-reduce the generators into a clean column basis
    M = [[gens[j][i] for j in range(len(gens))] for i in range(r)]
    H, _ = hnf_columns(M)
    cols = [[H[i][j] for j in range(r)] for i in range(r)]
    inter = SublatticeBasis.from_cols(A.ambient, cols)
    idx = Fraction(inter.index_in_ambient(), A.index_in_ambient())
    if idx.denominator != 1:
        raise InvariantError(f"index [A : A cap B] = {idx} is not an integer")
    return inter, int(idx)


def lattice_from_json(obj):
    """The lattice of a JSON object with "gram", rows of JSON integers, an
    optional "rank" that must agree with it and an optional "positive_definite"."""
    gram = json_object(obj, "lattice", ("gram",), lists=("gram",))["gram"]
    int_rows(gram, "the lattice's gram")
    n = len(gram)
    if obj.get("rank", n) != n:
        raise ValueError(f"rank {obj['rank']} disagrees with a {n}x{n} gram")
    return QuadLattice.from_rows(gram, bool(obj.get("positive_definite", False)))
