import itertools
import random

import pytest

from orthocount.crystal import superspecial_ring
from orthocount.intmat import fp_row_reduce
from orthocount.padic import _is_irreducible, make_ring

from conftest import assert_fires_under_python_O


def _ref_invert_mod_prime_power(A, p, R):
    """Inverse of an integer matrix mod p^R, A invertible mod p: the mod-p
    inverse by row reduction, lifted by Newton's B <- B(2I - AB)."""
    n = len(A)
    mod = p ** R
    rows, pivots = fp_row_reduce([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(A)], p)
    assert pivots == list(range(n))
    B = [row[n:] for row in rows]
    for _ in range(R.bit_length() + 1):
        AB = [[sum(A[i][k] * B[k][j] for k in range(n)) % mod for j in range(n)]
              for i in range(n)]
        C = [[(2 * int(i == j) - AB[i][j]) % mod for j in range(n)] for i in range(n)]
        B = [[sum(B[i][k] * C[k][j] for k in range(n)) % mod for j in range(n)]
             for i in range(n)]
    assert all(sum(A[i][k] * B[k][j] for k in range(n)) % mod == int(i == j)
               for i in range(n) for j in range(n))
    return B


def _ref_sigma_mat(ring):
    """sigma in the x-basis through the Teichmuller basis change: sigma(tau) =
    tau^p exactly, so writing x^j = sum_k c_k tau^k gives sigma(x^j) =
    sum_k c_k tau^(pk).  T, with columns tau^k, is invertible since tau = x
    mod p."""
    deg, mod = ring.deg, ring.modulus
    Tcols = [ring.teichmuller_unit(k) for k in range(deg)]
    Pcols = [ring.teichmuller_unit(ring.p * k) for k in range(deg)]
    Tinv = _ref_invert_mod_prime_power([[Tcols[k][i] for k in range(deg)]
                                        for i in range(deg)], ring.p, ring.R)
    return tuple(tuple(sum(Tinv[k][j] * Pcols[k][i] for k in range(deg)) % mod
                       for j in range(deg)) for i in range(deg))


@pytest.mark.parametrize("p, R, deg", [(2, 1, 2), (2, 6, 3), (2, 9, 5), (3, 1, 3),
                                       (3, 4, 4), (3, 7, 2), (5, 3, 4), (7, 2, 3),
                                       (11, 5, 2), (13, 3, 3)])
def test_sigma_mat_matches_teichmuller_basis_change(p, R, deg):
    ring = make_ring(p, R, deg)
    assert ring.sigma_mat == _ref_sigma_mat(ring)


@pytest.mark.parametrize("p, R", [(5, 3), (5, 8), (7, 6), (11, 3)])
def test_superspecial_sigma_mat_matches_teichmuller_basis_change(p, R):
    ring = superspecial_ring(p, R)
    assert ring.sigma_mat == _ref_sigma_mat(ring)


def test_sigma_root_check_fires_under_python_O():
    # with inv patched to zero, Newton never leaves x^p; f(x^p) = 0 mod p but
    # not mod p^3, so make_ring's root check must raise under python -O
    assert_fires_under_python_O(
        "from orthocount.padic import UnramifiedRing, make_ring\n"
        "assert False, 'asserts are live'\n"
        "UnramifiedRing.inv = lambda self, a: self.zero()\n",
        "try:\n"
        "    make_ring(7, 3, 3)\n"
        "except InvariantError as e:\n"
        "    if 'root of the minimal polynomial' in str(e):\n"
        "        raise\n")


@pytest.mark.parametrize("p, R, deg", [(3, 4, 1), (5, 3, 2), (7, 2, 3), (3, 3, 5)])
def test_unit_inverse(p, R, deg):
    ring = make_ring(p, R, deg)
    rng = random.Random(p * 100 + deg)
    for _ in range(10):
        a = tuple(rng.randrange(ring.modulus) for _ in range(deg))
        if ring.is_unit(a):
            assert ring.mul(a, ring.inv(a)) == ring.one()


@pytest.mark.parametrize("p,R,deg", [(5, 3, 2), (3, 4, 3), (2, 6, 2)])
def test_teichmuller_from_make_ring(p, R, deg):
    # make_ring keeps the Teichmuller tau of x: tau^(q-1) = 1,
    # sigma(tau) = tau^p, tau = x mod p, and teichmuller_unit reads it
    ring = make_ring(p, R, deg)
    q = p ** deg
    assert ring.pow(ring.tau, q - 1) == ring.one()
    assert ring.sigma(ring.tau) == ring.pow(ring.tau, p)
    assert all((t - x) % p == 0 for t, x in zip(ring.tau, ring.gen()))
    assert ring.teichmuller_unit(1) == ring.tau
    assert ring.teichmuller_unit(q - 1) == ring.one()
    with pytest.raises(ValueError):
        make_ring(p, R, 1).teichmuller_unit(1)


@pytest.mark.parametrize("p, R, deg", [(3, 4, 1), (5, 3, 2), (7, 2, 3), (3, 3, 5)])
def test_mul_matrix_and_neg(p, R, deg):
    ring = make_ring(p, R, deg)
    rng = random.Random(p * 10 + deg)
    for _ in range(10):
        a, b = (tuple(rng.randrange(ring.modulus) for _ in range(deg)) for _ in range(2))
        A = ring.mul_matrix(a)
        assert tuple(sum(A[i][j] * b[j] for j in range(deg)) % ring.modulus
                     for i in range(deg)) == ring.mul(a, b)
        assert ring.add(a, ring.neg(a)) == ring.zero()
        assert all(0 <= c < ring.modulus for c in ring.neg(a))


def _has_factor_by_trial_division(f, p):
    """True iff a monic g of degree 1..deg(f)/2 divides f over F_p."""
    d = len(f) - 1
    for k in range(1, d // 2 + 1):
        for low in itertools.product(range(p), repeat=k):
            g = list(low) + [1]
            r = [c % p for c in f]
            for top in range(d, k - 1, -1):  # r <- r mod g, g monic
                c = r[top]
                if c:
                    for j in range(k + 1):
                        r[top - k + j] = (r[top - k + j] - c * g[j]) % p
            if not any(r[:k]):
                return True
    return False


def test_is_irreducible_matches_trial_division():
    # every monic f of degree 1..4 over F_p with p^d <= 2500; the number of
    # irreducibles is Gauss's (1/d) sum_{e | d} mu(d/e) p^e
    gauss = {1: lambda p: p, 2: lambda p: (p * p - p) // 2,
             3: lambda p: (p ** 3 - p) // 3, 4: lambda p: (p ** 4 - p * p) // 4}
    total = 0
    for p in (2, 3, 5, 7):
        for d in (1, 2, 3, 4):
            if p ** d > 2500:
                continue
            irreducible = 0
            for low in itertools.product(range(p), repeat=d):
                f = list(low) + [1]
                got = _is_irreducible(f, p)
                assert got == (not _has_factor_by_trial_division(f, p)), (p, f)
                irreducible += got
                total += 1
            assert irreducible == gauss[d](p), (p, d)
    assert total == 3730
