import itertools
import random

import pytest

from orthocount.arith import InvariantError
from orthocount.intmat import det_bareiss
from orthocount.padic import _invert_mod_prime_power, _is_irreducible, make_ring


class TestInvertModPrimePower:
    def test_inverse_seeded(self):
        rng = random.Random(11)
        for _ in range(40):
            p = rng.choice([3, 5, 7])
            n = rng.randint(1, 4)
            R = rng.randint(1, 4)
            mod = p ** R
            A = [[rng.randrange(-30, 30) for _ in range(n)] for _ in range(n)]
            if det_bareiss(A) % p == 0:
                with pytest.raises(InvariantError, match="singular mod p"):
                    _invert_mod_prime_power(A, p, R)
                continue
            B = _invert_mod_prime_power(A, p, R)
            AB = [[sum(A[i][k] * B[k][j] for k in range(n)) % mod for j in range(n)]
                  for i in range(n)]
            assert AB == [[int(i == j) for j in range(n)] for i in range(n)]

    def test_singular_mod_p_raises(self):
        with pytest.raises(InvariantError, match="singular mod p"):
            _invert_mod_prime_power([[1, 1], [1, 1]], 5, 2)
        # invertible over Q, singular mod 3
        with pytest.raises(InvariantError, match="singular mod p"):
            _invert_mod_prime_power([[1, 2], [2, 1]], 3, 3)


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
    # make_ring keeps the tau it builds sigma from: tau^(q-1) = 1,
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
