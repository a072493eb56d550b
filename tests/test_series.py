import random

import numpy as np
import pytest

from orthocount.arith import InvariantError
from orthocount.padic import PINF, make_ring
from orthocount.series import CHUNK, SeriesRing, TSeriesMatrix, _block_mul, _mul_matrices

from conftest import assert_fires_under_python_O


@pytest.fixture(scope="module")
def ring52():
    return make_ring(5, 8, 2, minpoly_modp=(-2 % 5 ** 8, 0, 1))


@pytest.fixture(scope="module")
def ring54():
    return make_ring(5, 8, 4)


class TestRing:
    def test_sigma_is_conjugation_on_quadratic(self, ring52):
        lam = ring52.gen()
        assert ring52.sigma(lam) == tuple((-x) % ring52.modulus for x in lam)

    def test_sigma_ring_hom(self, ring54):
        rng = random.Random(3)
        for _ in range(10):
            a = tuple(rng.randrange(ring54.modulus) for _ in range(4))
            b = tuple(rng.randrange(ring54.modulus) for _ in range(4))
            assert ring54.sigma(ring54.mul(a, b)) == \
                ring54.mul(ring54.sigma(a), ring54.sigma(b))
            assert ring54.sigma(ring54.add(a, b)) == \
                ring54.add(ring54.sigma(a), ring54.sigma(b))

    def test_sigma_lifts_frobenius(self, ring54):
        g = ring54.gen()
        diff = ring54.sub(ring54.sigma(g), ring54.pow(g, 5))
        assert ring54.val(diff) >= 1

    def test_sigma_order(self, ring54):
        g = ring54.gen()
        acc = g
        for _ in range(4):
            acc = ring54.sigma(acc)
        assert acc == g

    def test_inverse(self, ring54):
        rng = random.Random(5)
        for _ in range(10):
            a = tuple(rng.randrange(ring54.modulus) for _ in range(4))
            if not ring54.is_unit(a):
                continue
            assert ring54.mul(a, ring54.inv(a)) == ring54.one()

    def test_teichmuller(self, ring54):
        tau = ring54.teichmuller_unit(1)
        q = 5 ** 4
        assert ring54.pow(tau, q - 1) == ring54.one()
        assert ring54.sigma(tau) == ring54.pow(tau, 5)

    def test_val(self, ring52):
        assert ring52.val(ring52.zero()) == PINF
        assert ring52.val(ring52.from_int(50)) == 2
        assert ring52.val((5, 1)) == 0

    def test_make_ring_invariant_fires_under_python_O(self):
        # with sigma patched to the identity, make_ring's check that sigma
        # lifts the p-power Frobenius must still raise under python -O
        assert_fires_under_python_O(
            "from orthocount.padic import UnramifiedRing, make_ring\n"
            "assert False, 'asserts are live'\n"
            "UnramifiedRing.sigma = lambda self, a, k=1: a\n",
            "make_ring(7, 3, 3)\n")
        # so must the kernel's refusal of a hand-set unit p * 1, in either
        # operand of a product and in mul_one_plus's self
        setup = ("from orthocount.padic import make_ring\n"
                 "from orthocount.series import SeriesRing, TSeriesMatrix\n"
                 "assert False, 'asserts are live'\n"
                 "sr = SeriesRing(make_ring(5, 4, 2), 4)\n"
                 "good, rough = sr.monomial(1, 1), sr.monomial(1, 1)\n"
                 "rough.unit[1, 0] = 5\n")
        for call in ("rough.mul(good)\n", "good.mul(rough)\n",
                     "TSeriesMatrix.of(sr, [[rough]]).mul_one_plus("
                     "TSeriesMatrix.of(sr, [[good]]))\n"):
            assert_fires_under_python_O(setup, call)


def _coeff(s, t):
    """(pval, unit) of the coefficient of t^t."""
    return int(s.pval[t]), tuple(int(x) for x in s.unit[t])


class TestSeries:
    def test_monomial_and_coeff(self, ring52):
        sr = SeriesRing(ring52, 20)
        s = sr.monomial(3, 10)  # 10 = 2 * 5
        pv, un = _coeff(s, 3)
        assert pv == 1 and un == (2, 0)

    def test_mul_matches_exact(self, ring52):
        # (1 + t)(1 - t) = 1 - t^2 with unit coefficients
        sr = SeriesRing(ring52, 10)
        a = sr.from_terms([(0, 1, 0), (1, 1, 0)])
        b = sr.from_terms([(0, 1, 0), (1, -1 % ring52.modulus, 0)])
        c = a.mul(b)
        assert _coeff(c, 0)[0] == 0 and _coeff(c, 1)[0] >= PINF
        pv2, un2 = _coeff(c, 2)
        assert pv2 == 0 and un2 == (ring52.modulus - 1, 0)

    def test_mul_random_against_fraction_oracle(self):
        # degree-1 ring: compare against exact big-int polynomial arithmetic
        ring = make_ring(5, 10, 1)
        sr = SeriesRing(ring, 14)
        rng = random.Random(11)
        for _ in range(12):
            fa = [rng.randrange(-200, 201) for _ in range(8)]
            fb = [rng.randrange(-200, 201) for _ in range(8)]
            a = sr.from_terms([(i, c % ring.modulus, 0) for i, c in enumerate(fa) if c])
            b = sr.from_terms([(i, c % ring.modulus, 0) for i, c in enumerate(fb) if c])
            c = a.mul(b)
            for t in range(15):
                exact = sum(fa[i] * fb[t - i] for i in range(max(0, t - 7), min(8, t + 1)))
                pv, un = _coeff(c, t)
                if exact == 0:
                    # truncated arithmetic may retain a residual divisible by 5^R
                    assert pv >= ring.R or pv >= PINF or un == (0,)
                else:
                    v5 = 0
                    e = abs(exact)
                    while e % 5 == 0:
                        e //= 5
                        v5 += 1
                    assert pv == v5
                    # cancellation renormalized by 5^v5 costs v5 digits
                    assert (un[0] - exact // 5 ** v5) % 5 ** (ring.R - v5) == 0

    def test_sigma_twist_exponent_map(self, ring52):
        sr = SeriesRing(ring52, 30)
        s = sr.from_terms([(1, 1, 0), (4, 1, 0)])
        tw = s.sigma_twist()
        assert tw.t_valuation() == 5
        assert _coeff(tw, 20)[0] == 0

    def test_sigma_twist_is_ring_map(self, ring54):
        sr = SeriesRing(ring54, 25)
        rng = random.Random(7)
        for _ in range(6):
            a = sr.from_terms([(rng.randrange(3), tuple(rng.randrange(ring54.modulus)
                                                        for _ in range(4)), 0)])
            b = sr.from_terms([(rng.randrange(3), tuple(rng.randrange(ring54.modulus)
                                                        for _ in range(4)), 0)])
            left = a.mul(b).sigma_twist()
            right = a.sigma_twist().mul(b.sigma_twist())
            assert _series_equal(left, right)

    def test_associativity(self, ring52):
        sr = SeriesRing(ring52, 12)
        rng = random.Random(9)
        for _ in range(8):
            ss = [sr.from_terms([(rng.randrange(4),
                                  tuple(rng.randrange(ring52.modulus) for _ in range(2)), 0)])
                  for _ in range(3)]
            a, b, c = ss
            assert _series_equal(a.mul(b).mul(c), a.mul(b.mul(c)))

    def test_pshift_and_add_alignment(self, ring52):
        sr = SeriesRing(ring52, 5)
        a = sr.monomial(0, 1, pshift=-2)   # p^-2
        b = sr.monomial(0, 1)              # 1
        c = a.add(b)
        pv, un = _coeff(c, 0)
        assert pv == -2 and un == (1 + 25, 0)

    def test_truncation_drop(self, ring52):
        sr = SeriesRing(ring52, 5)
        a = sr.monomial(0, 1)
        b = sr.monomial(0, 1, pshift=ring52.R + 2)  # beyond relative precision
        c = a.add(b)
        assert _coeff(c, 0) == (0, (1, 0))


def _series_equal(a, b):
    return bool(np.all(a.pval == b.pval) and np.all(a.unit == b.unit))


def _series_close(a, b, digits):
    """Values agree to `digits` of relative p-adic precision at every t."""
    d = a.sub(b)
    base = np.minimum(a.pval, b.pval)
    return bool(np.all((d.pval >= base + digits) | (d.pval >= PINF)))


class TestMatrix:
    def test_identity_mul(self, ring52):
        sr = SeriesRing(ring52, 8)
        I = TSeriesMatrix.identity(sr, 3)
        M = TSeriesMatrix.zero(sr, 3)
        M[0, 2] = sr.from_terms([(1, 7, 0)])
        M[1, 1] = sr.from_terms([(0, 2, 0), (2, 3, 0)])
        P = I.mul(M)
        for i in range(3):
            for j in range(3):
                assert _series_equal(P.entries[i][j], M.entries[i][j])

    def test_matrix_associativity_up_to_truncation(self, ring52):
        # different association orders renormalize cancellations at
        # different times, so agreement is up to a few trailing digits
        sr = SeriesRing(ring52, 10)
        rng = random.Random(13)

        def randmat():
            M = TSeriesMatrix.zero(sr, 2)
            for i in range(2):
                for j in range(2):
                    M[i, j] = sr.from_terms(
                        [(rng.randrange(3), rng.randrange(1, ring52.modulus), 0)])
            return M

        for _ in range(5):
            A, B, C = randmat(), randmat(), randmat()
            L = A.mul(B).mul(C)
            R = A.mul(B.mul(C))
            for i in range(2):
                for j in range(2):
                    assert _series_close(L.entries[i][j], R.entries[i][j],
                                         ring52.R - 3)


# ---------------------------------------------------------------------------
# scalar reference: the term-at-a-time accumulator, in exact Python integers

def _ref_acc(cell, tv, tu, ring):
    """Add p^tv * tu into cell = [v, u]: an empty cell takes the term, a term
    R or more above the cell's valuation is dropped, otherwise the two are
    aligned at the smaller valuation and summed mod p^R."""
    p, R, mod = ring.p, ring.R, ring.modulus
    if cell[0] >= PINF:
        cell[0], cell[1] = tv, list(tu)
        return
    diff = tv - cell[0]
    if diff >= R:
        return
    if diff >= 0:
        cell[1] = [(c + x * p ** diff) % mod for c, x in zip(cell[1], tu)]
    else:
        cell[1] = [(c * p ** -diff + x) % mod for c, x in zip(cell[1], tu)]
        cell[0] = tv


def _ref_cells(s):
    return [[int(v), [int(x) for x in u]] for v, u in zip(s.pval, s.unit)]


def _ref_series(sr, cells):
    """Renormalize the cells and return them as a TSeries."""
    p = sr.ring.p
    out = sr.zero_series()
    for t, (v, u) in enumerate(cells):
        if v >= PINF or not any(u):
            continue
        while all(x % p == 0 for x in u):
            u = [x // p for x in u]
            v += 1
        out.pval[t], out.unit[t] = v, u
    return out


def _ref_mul_into(cells, a, b, ring, tmax):
    for t1, v1, u1 in a.terms():
        for t2, v2, u2 in b.terms():
            if t1 + t2 > tmax:
                break
            term = list(ring.mul(u1, u2))
            if not any(term):
                continue
            tv = v1 + v2
            while all(x % ring.p == 0 for x in term):
                term = [x // ring.p for x in term]
                tv += 1
            _ref_acc(cells[t1 + t2], tv, term, ring)


def ref_add(a, b):
    cells = _ref_cells(a)
    for t, v, u in b.terms():
        _ref_acc(cells[t], v, u, a.sr.ring)
    return _ref_series(a.sr, cells)


def ref_block_mul(sr, A, B):
    out = []
    for row in A:
        out.append([])
        for j in range(len(B[0])):
            cells = _ref_cells(sr.zero_series())
            for a, Brow in zip(row, B):
                _ref_mul_into(cells, a, Brow[j], sr.ring, sr.tmax)
            out[-1].append(_ref_series(sr, cells))
    return out


def random_series(sr, rng, density=0.5, vals=(-3, 3)):
    """Random series with p-free units, as every stored unit is."""
    ring = sr.ring
    s = sr.zero_series()
    for t in range(sr.tmax + 1):
        if rng.random() >= density:
            continue
        u = [rng.randrange(ring.modulus) for _ in range(ring.deg)]
        u[rng.randrange(ring.deg)] = rng.randrange(1, ring.p)  # not divisible by p
        s.pval[t] = rng.randint(*vals)
        s.unit[t] = u
    return s


def random_rows(sr, rng, rows, cols, **kw):
    return [[random_series(sr, rng, density=rng.choice([0.0, 0.2, 0.6]), **kw)
             for _ in range(cols)] for _ in range(rows)]


def _reduction_rows(ring):
    """x^(d+k) for k = 0, ..., d-2 in the x-power basis, mod p^R, from the
    monic minimal polynomial f: x^d = -(f_0 + f_1 x + ... + f_(d-1) x^(d-1))."""
    d, mod, f = ring.deg, ring.modulus, ring.minpoly
    rows = [[-c % mod for c in f[:d]]]
    for _ in range(d - 2):
        top = rows[-1][-1]  # x * row: shift up, and x^d becomes top * x^d
        rows.append([-top * f[0] % mod] + [(c - top * fj) % mod
                                           for c, fj in zip(rows[-1][:-1], f[1:d])])
    return np.array(rows, dtype=np.int64).reshape(d - 1, d)


def schoolbook_mul_matrices(u, ring):
    """The multiplication matrices of the kernel (row k is x^k u[b]) by
    schoolbook multiplication of x^k by u[b] and reduction by the rows
    x^(d+k): the oracle of the structure tensor."""
    d, mod = ring.deg, ring.modulus
    ua = np.tile(np.eye(d, dtype=np.int64), (len(u), 1))
    ub = np.repeat(np.asarray(u, dtype=np.int64), d, axis=0)
    tmp = np.zeros((len(ua), 2 * d - 1), dtype=np.int64)
    for i in range(d):
        tmp[:, i:i + d] += ua[:, i, None] * ub
    tmp %= mod
    if d > 1:
        tmp = (tmp[:, :d] + tmp[:, d:] @ _reduction_rows(ring)) % mod
    return tmp.reshape(len(u), d, d)


def check_mul_matrices(ring, rng):
    """_mul_matrices equals the schoolbook oracle on the basis vectors, on
    units with every coordinate p^R - 1 and on random units, and w M(u) is
    the ring product w u."""
    d, mod = ring.deg, ring.modulus
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    units += [(mod - 1,) * d]
    units += [tuple(rng.randrange(mod) for _ in range(d)) for _ in range(20)]
    got = _mul_matrices(np.array(units, dtype=np.int64), ring)
    assert got.dtype == np.int64
    assert np.array_equal(got, schoolbook_mul_matrices(units, ring))
    for u, mat in zip(units[-5:], got[-5:]):
        w = tuple(rng.randrange(mod) for _ in range(d))
        prod = [sum(wk * int(x) for wk, x in zip(w, col)) % mod for col in mat.T]
        assert tuple(prod) == ring.mul(w, u)


RINGS = [(5, 6, 1), (3, 8, 2), (5, 3, 4), (3, 4, 6)]


@pytest.fixture(scope="module", params=RINGS, ids=lambda r: "p%d_R%d_deg%d" % r)
def sring(request):
    return SeriesRing(make_ring(*request.param), 12)


def _grids_equal(X, Y):
    return all(_series_equal(a, b) for rx, ry in zip(X, Y) for a, b in zip(rx, ry))


class TestWholeArrayKernel:
    def test_mul_matches_reference(self, sring):
        rng = random.Random(101)
        for _ in range(15):
            a = random_series(sring, rng, density=rng.random())
            b = random_series(sring, rng, density=rng.random())
            assert _series_equal(a.mul(b), ref_block_mul(sring, [[a]], [[b]])[0][0])

    def test_mul_commutes_exactly(self, sring):
        rng = random.Random(102)
        for _ in range(15):
            a = random_series(sring, rng, vals=(-9, 9))
            b = random_series(sring, rng, vals=(-9, 9))
            assert _series_equal(a.mul(b), b.mul(a))

    def test_add_into_held_terms(self, sring):
        # every coefficient of the target is already set: the fold aligns
        # new terms with what the cell holds, above and below its valuation
        rng = random.Random(103)
        for _ in range(15):
            a = random_series(sring, rng, density=1.0, vals=(-6, 6))
            b = random_series(sring, rng, density=rng.random(), vals=(-6, 6))
            assert _series_equal(a.add(b), ref_add(a, b))

    def test_exact_cancellation(self, sring):
        rng = random.Random(104)
        for _ in range(5):
            a = random_series(sring, rng)
            b = random_series(sring, rng)
            assert a.sub(a).t_valuation() is None
            assert a.mul(b).sub(b.mul(a)).t_valuation() is None
            # a row times a column whose products cancel pairwise
            c = TSeriesMatrix.of(sring, [[a, a]]).mul(
                TSeriesMatrix.of(sring, [[b], [b.neg()]])).entries[0][0]
            assert c.t_valuation() is None
            assert _series_equal(c, ref_block_mul(sring, [[a, a]], [[b], [b.neg()]])[0][0])

    def test_partial_cancellation_strips_p(self, sring):
        # a + (p - 1) a = p a: the sum keeps the valuation only after
        # renormalization moves the factor p into pval
        ring = sring.ring
        rng = random.Random(105)
        a = random_series(sring, rng, density=1.0)
        b = a.mul(sring.monomial(0, ring.p - 1))
        got = a.add(b)
        assert _series_equal(got, ref_add(a, b))
        nz = a.pval < PINF
        assert np.all(got.pval[nz] >= a.pval[nz] + 1)

    def test_gap_drops_and_negative_shifts(self, sring):
        # valuations spread far beyond R, many negative: gaps >= R drop
        rng = random.Random(106)
        R = sring.ring.R
        for _ in range(10):
            a = random_series(sring, rng, vals=(-3 * R, 3 * R))
            b = random_series(sring, rng, vals=(-3 * R, 3 * R))
            assert _series_equal(a.add(b), ref_add(a, b))
            assert _series_equal(a.mul(b), ref_block_mul(sring, [[a]], [[b]])[0][0])

    def test_unnormalized_units_strip_p(self, sring):
        # stored units are p-free, so no product strips p per term pair: a
        # p-divisible unit in either operand, or in mul_one_plus's self, is
        # a broken invariant
        ring = sring.ring
        rng = random.Random(107)
        a = random_series(sring, rng, density=1.0)
        rough = a.copy()
        rough.unit[3] = rough.unit[3] * ring.p % ring.modulus
        for x, y in ((rough, a), (a, rough)):
            with pytest.raises(InvariantError, match="divisible by p"):
                x.mul(y)
        X = _no_constant_term(sring, rng, 2)
        M = TSeriesMatrix.of(sring, [[rough, a], [a, a]])
        with pytest.raises(InvariantError, match="a unit of A is divisible by p"):
            M.mul_one_plus(X)

    def test_mul_matrices_match_schoolbook(self, sring):
        check_mul_matrices(sring.ring, random.Random(112))

    def test_chunks_split_a_coefficient(self, sring):
        # 1 x k times k x 1 with k > CHUNK: the top coefficient receives more
        # term pairs than a chunk holds, so it goes alone in a longer chunk
        rng = random.Random(113)
        sr = SeriesRing(sring.ring, 4)
        k = CHUNK + 8
        A = [[random_series(sr, rng, density=0.6, vals=(-6, 6)) for _ in range(k)]]
        B = [[random_series(sr, rng, density=0.6, vals=(-6, 6))] for _ in range(k)]
        MA, MB = TSeriesMatrix.of(sr, A), TSeriesMatrix.of(sr, B)
        live_a, live_b = MA.pval[0] < PINF, MB.pval[:, 0] < PINF
        top = sum(int((live_a[:, t] & live_b[:, sr.tmax - t]).sum()) for t in range(sr.tmax + 1))
        assert top > CHUNK
        ref = ref_block_mul(sr, A, B)
        for chunk in (1, 2, 7, CHUNK):
            pv, un = _block_mul(sr, MA.pval, MA.unit, MB.pval, MB.unit, chunk=chunk)
            assert _grids_equal(TSeriesMatrix(sr, pv, un).entries, ref)

    def test_small_chunks(self, sring):
        rng = random.Random(108)
        A = random_rows(sring, rng, 2, 3, vals=(-6, 6))
        B = random_rows(sring, rng, 3, 2, vals=(-6, 6))
        ref = ref_block_mul(sring, A, B)
        for chunk in (1, 2, 7, 64):
            MA, MB = TSeriesMatrix.of(sring, A), TSeriesMatrix.of(sring, B)
            pv, un = _block_mul(sring, MA.pval, MA.unit, MB.pval, MB.unit, chunk=chunk)
            assert _grids_equal(TSeriesMatrix(sring, pv, un).entries, ref)

    def test_matrix_products_match_reference(self, sring):
        rng = random.Random(109)
        for dim in (1, 2, 3):
            A = TSeriesMatrix.of(sring, random_rows(sring, rng, dim, dim, vals=(-4, 4)))
            B = TSeriesMatrix.of(sring, random_rows(sring, rng, dim, dim, vals=(-4, 4)))
            assert _grids_equal(A.mul(B).entries, ref_block_mul(sring, A.entries, B.entries))
            vec = [random_series(sring, rng) for _ in range(dim)]
            got = A.mul_vector(vec)
            ref = ref_block_mul(sring, A.entries, [[v] for v in vec])
            assert _grids_equal([[s] for s in got], ref)

    def test_rectangular_blocks_match_reference(self, sring):
        rng = random.Random(110)
        for n, k, m in ((1, 3, 2), (3, 1, 2), (2, 2, 1)):
            A = random_rows(sring, rng, n, k)
            B = random_rows(sring, rng, k, m)
            got = TSeriesMatrix.of(sring, A).mul(TSeriesMatrix.of(sring, B)).entries
            assert [len(row) for row in got] == [m] * n
            assert _grids_equal(got, ref_block_mul(sring, A, B))

    def test_far_lower_term_is_exact(self):
        # aligning a held unit with a term 20 valuations below it multiplies
        # the unit by 5^20; that product must not wrap around in int64
        ring = make_ring(5, 8, 1)
        sr = SeriesRing(ring, 2)
        a = sr.monomial(0, ring.modulus - 1)
        b = sr.monomial(0, 1, pshift=-20)
        assert _coeff(a.add(b), 0) == _coeff(b.add(a), 0) == (-20, (1,))

    def test_empty_operands(self, sring):
        z = sring.zero_series()
        a = random_series(sring, random.Random(111), density=1.0)
        assert a.mul(z).t_valuation() is None and z.mul(a).t_valuation() is None
        assert _series_equal(a.add(z), a) and _series_equal(z.add(a), a)


def _blocks_equal(A, B):
    return np.array_equal(A.pval, B.pval) and np.array_equal(A.unit, B.unit)


def _no_constant_term(sr, rng, dim, **kw):
    X = TSeriesMatrix.of(sr, random_rows(sr, rng, dim, dim, **kw))
    X.pval[:, :, 0], X.unit[:, :, 0] = PINF, 0
    return X


class TestAccumulatingProduct:
    """acc.mul_one_plus(X) = acc + acc X in one fold must give the bytes of
    acc.mul(I.add(X)), the product with the identity's term pairs."""

    def check(self, sr, acc, X):
        I = TSeriesMatrix.identity(sr, X.dim)
        got = acc.mul_one_plus(X)
        assert _blocks_equal(got, acc.mul(I.add(X)))
        return got

    def test_random_matrices(self, sring):
        rng = random.Random(201)
        for dim in (1, 2, 3):
            for _ in range(3):
                acc = TSeriesMatrix.of(sring, random_rows(sring, rng, dim, dim, vals=(-4, 4)))
                self.check(sring, acc, _no_constant_term(sring, rng, dim, vals=(-4, 4)))

    def test_gaps_and_negative_shifts(self, sring):
        # valuations spread far beyond R, many negative: the held terms of acc
        # are dropped by, or drop, the products folded onto them
        rng = random.Random(202)
        R = sring.ring.R
        for _ in range(5):
            acc = TSeriesMatrix.of(sring, random_rows(sring, rng, 2, 2, vals=(-3 * R, 3 * R)))
            X = _no_constant_term(sring, rng, 2, vals=(-3 * R, 3 * R))
            self.check(sring, acc, X.pshift(-R))

    def test_units_that_cancel(self, sring):
        # g = c (1 + t + ... + t^T): g (1 - t) leaves c alone, and
        # g (1 - (1 + p) t) cancels the leading digit of every higher term
        ring = sring.ring
        p = ring.p
        c = ring.teichmuller_unit(3) if ring.deg > 1 else ring.from_int(2)
        g = sring.from_terms((t, c, 0) for t in range(sring.tmax + 1))
        for coeff, lowest in ((-1, None), (-(1 + p), 1)):
            acc = TSeriesMatrix.of(sring, [[g, g.neg()], [sring.zero_series(), g]])
            d = sring.monomial(1, coeff)
            X = TSeriesMatrix.of(sring, [[d, sring.zero_series()], [sring.zero_series(), d]])
            got = self.check(sring, acc, X)
            above = got.pval[..., 1:]
            live = above[above < PINF]
            assert (live.size == 0) if lowest is None else bool(np.all(live >= lowest))

    def test_small_chunks(self, sring):
        rng = random.Random(203)
        acc = TSeriesMatrix.of(sring, random_rows(sring, rng, 3, 3, vals=(-6, 6)))
        X = _no_constant_term(sring, rng, 3, vals=(-6, 6))
        ref = self.check(sring, acc, X)
        for chunk in (1, 2, 7):
            pv, un = _block_mul(sring, acc.pval, acc.unit, X.pval, X.unit, chunk=chunk,
                                acc=(acc.pval, acc.unit))
            assert _blocks_equal(TSeriesMatrix(sring, pv, un), ref)

    def test_coefficients_without_pairs_are_kept(self, sring):
        # X lives at t = T_max alone, so only acc's t^0 terms meet it: every
        # other coefficient of acc receives no term pair and comes back as
        # it was, byte for byte
        rng = random.Random(206)
        acc = TSeriesMatrix.of(sring, random_rows(sring, rng, 3, 3, vals=(-6, 6)))
        acc.pval[:, :, 1], acc.unit[:, :, 1] = 7, random_series(sring, rng, 1.0).unit[1]
        X = _no_constant_term(sring, rng, 3, vals=(-6, 6))
        X.pval[:, :, :-1], X.unit[:, :, :-1] = PINF, 0
        assert (X.pval < PINF).any()
        got = self.check(sring, acc, X)
        assert got.pval[:, :, :-1].tobytes() == acc.pval[:, :, :-1].tobytes()
        assert got.unit[:, :, :-1].tobytes() == acc.unit[:, :, :-1].tobytes()

    def test_leaves_its_operands(self, sring):
        rng = random.Random(204)
        acc = TSeriesMatrix.of(sring, random_rows(sring, rng, 2, 2))
        X = _no_constant_term(sring, rng, 2)
        before = acc.copy(), X.copy()
        self.check(sring, acc, X)
        assert _blocks_equal(acc, before[0]) and _blocks_equal(X, before[1])

    def test_constant_term_is_refused(self, sring):
        # with a t^0 term, I + X sums onto the identity's own coefficients
        rng = random.Random(205)
        acc = TSeriesMatrix.of(sring, random_rows(sring, rng, 2, 2))
        X = _no_constant_term(sring, rng, 2)
        X[0, 1] = sring.monomial(0, 1)
        with pytest.raises(ValueError, match="t\\^0 term"):
            acc.mul_one_plus(X)


class TestInt64Edge:
    """Rings at make_ring's guard edge, the largest R with deg p^(2R) < 2^62,
    and every unit coordinate p^R - 1: each unit product sums d products
    just below p^(2R), and the valuations differ, so the fold scales the
    units it adds by powers of p."""

    @pytest.fixture(scope="class", params=[(3, 4), (5, 6)], ids=lambda pd: "p%d_deg%d" % pd)
    def edge(self, request):
        p, deg = request.param
        R = max(R for R in range(1, 40) if deg * p ** (2 * R) < 2 ** 62)
        with pytest.raises(ValueError, match="too large"):
            make_ring(p, R + 1, deg)
        return SeriesRing(make_ring(p, R, deg), 6)

    @staticmethod
    def extreme(sr, rng, lowest_t=0):
        s = sr.zero_series()
        for t in range(lowest_t, sr.tmax + 1):
            if rng.random() < 0.7:
                s.pval[t] = rng.randint(-2, 2)
                s.unit[t] = sr.ring.modulus - 1
        return s

    def extreme_rows(self, sr, rng, lowest_t=0):
        return [[self.extreme(sr, rng, lowest_t) for _ in range(2)] for _ in range(2)]

    def test_mul_matrices_match_schoolbook(self, edge):
        check_mul_matrices(edge.ring, random.Random(303))

    def test_block_mul_matches_reference(self, edge):
        rng = random.Random(301)
        for _ in range(3):
            A, B = self.extreme_rows(edge, rng), self.extreme_rows(edge, rng)
            got = TSeriesMatrix.of(edge, A).mul(TSeriesMatrix.of(edge, B)).entries
            assert _grids_equal(got, ref_block_mul(edge, A, B))

    def test_mul_one_plus_matches_reference(self, edge):
        rng = random.Random(302)
        for _ in range(3):
            acc = TSeriesMatrix.of(edge, self.extreme_rows(edge, rng))
            X = TSeriesMatrix.of(edge, self.extreme_rows(edge, rng, lowest_t=1))
            one_plus = X.copy()  # X has no t^0 term, so I + X is exact
            one_plus.pval[[0, 1], [0, 1], 0] = 0
            one_plus.unit[[0, 1], [0, 1], 0] = edge.ring.one()
            got = acc.mul_one_plus(X).entries
            assert _grids_equal(got, ref_block_mul(edge, acc.entries, one_plus.entries))


# ---------------------------------------------------------------------------
# the block layout: elementwise operations on matrices, twists, entry writes

def ref_neg(s):
    out = s.copy()
    for t, v, u in s.terms():
        out.unit[t] = [(-x) % s.sr.ring.modulus for x in u]
    return out


def ref_pshift(s, k):
    out = s.copy()
    for t, v, u in s.terms():
        out.pval[t] = v + k
    return out


def ref_sigma_twist(s, k):
    """The per-term twist: t -> t p and ring.sigma on each unit, k times."""
    sr, ring = s.sr, s.sr.ring
    for _ in range(k):
        new = sr.zero_series()
        for t, v, u in s.terms():
            if t * ring.p <= sr.tmax:
                new.pval[t * ring.p], new.unit[t * ring.p] = v, ring.sigma(u)
        s = new
    return s


def _entrywise(M, ref):
    return [[ref(s) for s in row] for row in M.entries]


class TestBlockLayout:
    def test_elementwise_ops_match_reference(self, sring):
        rng = random.Random(201)
        for _ in range(4):
            A, B = (TSeriesMatrix.of(sring, random_rows(sring, rng, 3, 2, vals=(-9, 9)))
                    for _ in range(2))
            pairs = list(zip([s for row in A.entries for s in row],
                             [s for row in B.entries for s in row]))
            got = [s for row in A.add(B).entries for s in row]
            assert all(_series_equal(g, ref_add(a, b)) for g, (a, b) in zip(got, pairs))
            got = [s for row in A.sub(B).entries for s in row]
            assert all(_series_equal(g, ref_add(a, ref_neg(b)))
                       for g, (a, b) in zip(got, pairs))
            assert _grids_equal(A.neg().entries, _entrywise(A, ref_neg))
            for k in (-4, 0, 3):
                assert _grids_equal(A.pshift(k).entries,
                                    _entrywise(A, lambda s: ref_pshift(s, k)))
            assert A.sub(A).t_valuation() is None and A.t_valuation() is not None

    def test_sigma_twist_matches_per_term_loop(self, sring):
        sr = SeriesRing(sring.ring, 60)
        rng = random.Random(202)
        A = TSeriesMatrix.of(sr, random_rows(sr, rng, 2, 3, vals=(-5, 5)))
        for k in (1, 2, 3):
            assert _grids_equal(A.sigma_twist(k).entries,
                                _entrywise(A, lambda s: ref_sigma_twist(s, k)))
            s = A.entries[1][2]
            assert _series_equal(s.sigma_twist(k), ref_sigma_twist(s, k))

    def test_min_t_valuation_over_all_entries(self, sring):
        M = TSeriesMatrix.zero(sring, 3)
        assert M.t_valuation() is None
        M[2, 1] = sring.monomial(7, 1)
        M[0, 2] = sring.monomial(4, 1)
        assert M.t_valuation() == 4

    def test_setitem_copies_and_entries_are_views(self, sring):
        rng = random.Random(203)
        M = TSeriesMatrix.zero(sring, 2)
        E = M.entries
        s = random_series(sring, rng, density=1.0)
        kept = s.copy()
        M[0, 1] = s
        s.pval[:] = 5
        s.unit[:] = 1
        assert _series_equal(M.entries[0][1], kept)
        assert E is M.entries and _series_equal(E[0][1], kept)
        with pytest.raises(TypeError):
            M.entries[0][0] = kept
        assert M.entries[0][0].t_valuation() is None

    def test_of_copies(self, sring):
        s = random_series(sring, random.Random(204), density=1.0)
        M = TSeriesMatrix.of(sring, [[s]])
        s.pval[:] = PINF
        assert M.t_valuation() is not None

    def test_identity(self, sring):
        I = TSeriesMatrix.identity(sring, 3)
        one, zero = sring.monomial(0, 1), sring.zero_series()
        assert _grids_equal(I.entries, [[one if i == j else zero for j in range(3)]
                                        for i in range(3)])

    def test_rectangular_block_products(self, sring):
        rng = random.Random(205)
        rows = random_rows(sring, rng, 4, 4)
        F = TSeriesMatrix.of(sring, rows)
        A = TSeriesMatrix(sring, F.pval[np.ix_([0, 2], [1, 2, 3])],
                          F.unit[np.ix_([0, 2], [1, 2, 3])])
        B = TSeriesMatrix(sring, F.pval[np.ix_(range(1, 4), [0, 3])],
                          F.unit[np.ix_(range(1, 4), [0, 3])])
        assert A.pval.shape[:2] == (2, 3) and B.pval.shape[:2] == (3, 2)
        assert _grids_equal(A.entries, [[rows[i][j] for j in (1, 2, 3)] for i in (0, 2)])
        ref = ref_block_mul(sring, A.entries, B.entries)
        assert _grids_equal(A.mul(B).entries, ref)
        assert _grids_equal(B.mul(A).entries, ref_block_mul(sring, B.entries, A.entries))
        with pytest.raises(ValueError):
            A.mul(A)
