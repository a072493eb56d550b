"""Self-test of the benchmark's exact counts and layer claims.

    python3 perfbench/selftest.py [--seed N]

For each workload, runs two traced passes with the same seed in fresh
processes and checks that

  * every pass verifies all its items against the oracles;
  * every exact count (each `.calls`, lattice.points, density.naive.tuples,
    series.term_pairs, density.blockwise.keys, ...) repeats exactly;
  * on theta_e8, lattice.points equals 1 + sum_{m<=20} 240 sigma_3(m), the
    number of E8 vectors with Q(v) <= 20;
  * the layer each workload claims to stress is the one it stresses;
  * on the density cases of seed 208, which include one beyond the
    blockwise working precision, `within_blockwise_precision` is false
    exactly where `local_density` raises ArithmeticError, so the limit
    the benchmark honours is the program's own.

Exits 1 on any failure.  Takes about a minute.
"""

import argparse
import random
import sys

import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))
from orthocount import density  # noqa: E402
from orthocount.lattice import QuadLattice  # noqa: E402
from workloads import (E8_MMAX, WORKLOADS, density_cases, sigma3,  # noqa: E402
                       within_blockwise_precision)

LIMIT_SEED = 208


def blockwise_raises(p, G, m):
    try:
        density.local_density(p, QuadLattice.from_rows(G, positive_definite=True), m)
    except ArithmeticError:
        return True
    return False


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    checks = []
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=seed)
        first, second = (run.run_pass(args, True, k, run.BUDGET_S) for k in (0, 1))
        a, b = first["layers"], second["layers"]
        checks.append((f"{workload}: every item verified",
                       first["failed"] == second["failed"] == 0))
        for name in spans.EXACT_COUNTS:
            checks.append((f"{workload}: {name} repeats ({a[name]} vs {b[name]})",
                           a[name] == b[name]))
        if workload == "theta_e8":
            expect = 1 + sum(240 * sigma3(m) for m in range(1, E8_MMAX + 1))
            checks.append((f"theta_e8: lattice.points == {expect}",
                           a["lattice.points"] == expect))
        for text, holds in spans.claims(workload, a):
            checks.append((f"{workload}: {text}", holds))
    cases = list(density_cases(random.Random(LIMIT_SEED)))
    beyond = [not within_blockwise_precision(*c) for c in cases]
    checks.append((f"density_eis seed {LIMIT_SEED}: the blockwise limit ({sum(beyond)} of "
                   f"{len(cases)} cases beyond it) is where local_density raises",
                   any(beyond) and beyond == [blockwise_raises(*c) for c in cases]))
    for text, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    failed = sum(not ok for _, ok in checks)
    print(f"{len(checks) - failed} of {len(checks)} checks passed")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
