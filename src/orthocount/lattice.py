"""Integral quadratic lattices.

A lattice is stored through the Gram matrix of its *bilinear* form
[e_i, e_j]; the quadratic form is Q(v) = (1/2) v^T G v, so every diagonal
entry must be even (Q is Z-valued).  All arithmetic is exact.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ._enum import short_vectors, theta_counts
from .arith import InvariantError, is_prime, valuation
from .intmat import (
    det_bareiss,
    fp_row_reduce,
    hnf_columns,
    kernel_basis,
    leading_principal_minors,
    mat_mul,
    smith_normal_form,
    solve_integer,
    transpose,
)


@dataclass(frozen=True)
class QuadLattice:
    rank: int
    gram: tuple  # rank x rank tuple of tuples, bilinear form values
    positive_definite: bool = False

    def __post_init__(self):
        g = self.gram
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
            if any(m <= 0 for m in leading_principal_minors(self.gram_rows())):
                raise ValueError("positive_definite set but a leading minor is <= 0")

    @staticmethod
    def from_rows(rows, positive_definite=False):
        return QuadLattice(len(rows), tuple(tuple(int(x) for x in r) for r in rows),
                           positive_definite)

    def gram_rows(self):
        return [list(row) for row in self.gram]

    def q_value(self, v):
        g = self.gram
        r = self.rank
        return sum(g[i][j] * v[i] * v[j] for i in range(r) for j in range(r)) // 2

    def bilinear(self, v, w):
        g = self.gram
        r = self.rank
        return sum(g[i][j] * v[i] * w[j] for i in range(r) for j in range(r))


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
        return SublatticeBasis(ambient, tuple(tuple(int(x) for x in r) for r in cols))

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


def det_and_disc_group(L):
    """(det gram, |L^v / L|) with the discriminant group read off the Smith form."""
    d = det_bareiss(L.gram_rows())
    order = 1
    for x in smith_normal_form(L.gram_rows()):
        order *= x
    if order != abs(d):
        raise InvariantError(f"|L^v/L| = {order} from the Smith form, but |det| = {abs(d)}")
    return d, order


def elementary_divisors(L):
    return smith_normal_form(L.gram_rows())


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
    vectors of Q-value <= y exist; a_sq[i-1] = (mu_1 ... mu_i)^2.
    """
    if not L.positive_definite:
        raise ValueError("successive minima need a positive definite lattice")
    r = L.rank
    mu_sq = []
    bound = 1
    while len(mu_sq) < r:
        vecs = short_vectors(L.gram_rows(), bound)
        qs = [L.q_value(v) for v in vecs]
        echelon = []
        mu_sq = []
        for i in sorted(range(len(vecs)), key=qs.__getitem__):
            if _extend_echelon(echelon, vecs[i]):
                mu_sq.append(qs[i])
                if len(mu_sq) == r:
                    break
        bound *= 2
    a_sq = []
    acc = 1
    for m in mu_sq:
        acc *= m
        a_sq.append(acc)
    return mu_sq, a_sq


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


def p_diagonalize(L, p, precision):
    """Diagonalize Q over Z_p (odd p): list of (unit mod p^precision, valuation).

    The multiset of valuations is canonical; unit parts are only well defined
    up to squares of p-adic units.
    """
    if p == 2:
        raise ValueError("p = 2 is out of scope (dyadic Jordan forms not supported)")
    if not is_prime(p):
        raise ValueError("p must be an odd prime")
    G = L.gram_rows()
    work = precision + valuation(det_bareiss(G), p, 0) + 2
    mod = p ** work
    # diagonalize QM = G/2 (2 is invertible mod p^work)
    inv2 = pow(2, -1, mod)
    A = [[G[i][j] * inv2 % mod for j in range(L.rank)] for i in range(L.rank)]
    idx = list(range(L.rank))
    out = []
    while idx:
        vmin, imin, jmin = min(
            (valuation(A[i][j], p, work), i, j) for i in idx for j in idx
        )
        if vmin >= work:
            raise ArithmeticError("precision exhausted during p-adic diagonalization")
        diag = [i for i in idx if valuation(A[i][i], p, work) == vmin]
        if diag:
            k = diag[0]
        else:
            # no diagonal entry of minimal valuation: e_i <- e_i + e_j fixes it
            # (odd p: Q(e_i + e_j) = Q_ii + Q_jj + 2Q_ij has valuation vmin)
            i, j = imin, jmin
            for c in idx:
                A[i][c] = (A[i][c] + A[j][c]) % mod
            for c in idx:
                A[c][i] = (A[c][i] + A[c][j]) % mod
            k = i
            if valuation(A[k][k], p, work) != vmin:
                raise InvariantError("Q(e_i + e_j) lost the minimal valuation")
        piv = A[k][k]
        pv = valuation(piv, p, work)
        unit = piv // p ** pv
        uinv = pow(unit, -1, mod)
        for i in idx:
            if i == k:
                continue
            # A[i][k] / piv, exact p-adically since v_p(A[i][k]) >= pv
            mult = (A[i][k] // p ** pv) * uinv % mod
            for j in idx:
                A[i][j] = (A[i][j] - mult * A[k][j]) % mod
        for i in idx:
            if i != k:
                A[i][k] = A[k][i] = 0
        out.append((unit % p ** precision, pv))
        idx.remove(k)
    return out


def is_maximal_at(L, ell):
    """True iff no integral overlattice exists inside L x Q_ell.

    Checked on the ell-torsion of the discriminant group: an overlattice step
    exists iff some nonzero x with ell*x = 0 in L^v/L has Q(x) integral at ell.
    """
    if ell == 2:
        raise ValueError("ell = 2 is out of scope")
    G = L.gram_rows()
    r = L.rank
    d = det_bareiss(G)
    if d % ell != 0:
        return True  # unimodular at ell
    # Candidate overlattice steps are x = y/ell with y in Z^r, y not in ell Z^r:
    # x in L^v iff G y = 0 mod ell, and Q(x) = Q(y)/ell^2 is integral at ell
    # iff Q(y) = 0 mod ell^2.  ([l, x] is automatically integral for x in L^v.)
    divs = smith_normal_form(G)
    k = sum(1 for dv in divs if dv % ell == 0)
    if k == 0:
        return True
    if ell ** k > 10 ** 6:
        raise ValueError("ell-torsion quotient too large to search")
    # basis of {x in L^v : ell x in L} modulo L, via integer kernel:
    # want w in Z^r with ell * Ginv * w integral, i.e. w in (1/ell) G Z^r + ...
    # equivalently solve G y = ell w  =>  x = y/ell with y in Z^r, G y = 0 mod ell.
    Gmod = [[G[i][j] % ell for j in range(r)] for i in range(r)]
    null = _fp_kernel(Gmod, ell)
    # x = y / ell for y in kernel of G mod ell; Q(x) = Q(y)/ell^2
    # step exists iff Q(y) = 0 mod ell^2... plus x not in L: y not in ell Z^r.
    for coeffs in itertools.product(range(ell), repeat=len(null)):
        if not any(coeffs):
            continue
        y = [sum(c * null[t][i] for t, c in enumerate(coeffs)) for i in range(r)]
        q = L.q_value(y)
        if q % (ell * ell) == 0:
            return False
    return True


def _fp_kernel(M, p):
    """Basis of the kernel of M over F_p (M given as rows)."""
    A, pivots = fp_row_reduce(M, p)
    basis = []
    for f in range(len(M[0])):
        if f in pivots:
            continue
        v = [0] * len(M[0])
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-A[i][f]) % p
        basis.append(v)
    return basis


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
    idx = Fraction(abs(det_bareiss([list(row) for row in cols])),
                   abs(det_bareiss(MA)))
    if idx.denominator != 1:
        raise InvariantError(f"index [A : A cap B] = {idx} is not an integer")
    return inter, int(idx)


def lattice_to_json(L):
    return {"rank": L.rank, "gram": [list(row) for row in L.gram],
            "positive_definite": L.positive_definite}


def lattice_from_json(obj):
    return QuadLattice.from_rows(obj["gram"], bool(obj.get("positive_definite", False)))
