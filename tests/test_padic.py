import random

import pytest

from orthocount.arith import InvariantError
from orthocount.intmat import det_bareiss
from orthocount.padic import _invert_mod_prime_power, make_ring


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
