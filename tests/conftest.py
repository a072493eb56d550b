import os
import random
import subprocess
import sys

import pytest

import orthocount
from orthocount.lattice import QuadLattice


E8_GRAM = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


@pytest.fixture
def e8():
    return QuadLattice.from_rows(E8_GRAM, positive_definite=True)


@pytest.fixture
def z8():
    return QuadLattice.from_rows([[2 if i == j else 0 for j in range(8)] for i in range(8)],
                                 positive_definite=True)


def random_posdef_gram(rng, rank, spread=3):
    """Random positive definite even gram: G = 2 B^T B + diag tweaks."""
    while True:
        B = [[rng.randint(-spread, spread) for _ in range(rank)] for _ in range(rank)]
        G = [[2 * sum(B[k][i] * B[k][j] for k in range(rank)) for j in range(rank)]
             for i in range(rank)]
        from orthocount.intmat import gram_pivots
        try:
            gram_pivots(G)
        except ValueError:
            continue
        return G


def random_unimodular(rng, rank, steps=12):
    U = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(steps):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(rank):
            U[i][k] += c * U[j][k]
    return U


@pytest.fixture
def rng():
    return random.Random(20250810)


def assert_fires_under_python_O(setup, call):
    """Run `setup` and then `call` in a fresh `python -O`, where asserts are
    stripped, and require `call` to raise InvariantError.

    `setup` holds the imports, an `assert False, 'asserts are live'` guard
    (so that a run with live asserts fails) and the patch; the orthocount
    that the tests import comes first on the path.
    """
    src = os.path.dirname(os.path.dirname(orthocount.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    body = "".join("    " + line + "\n" for line in call.splitlines())
    code = ("from orthocount.arith import InvariantError\n" + setup +
            "try:\n" + body +
            "except InvariantError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    r = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
