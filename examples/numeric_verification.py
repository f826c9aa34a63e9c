#!/usr/bin/env python3
"""Prove every schedule computes the right product — while counting misses.

The same schedule object drives three interpreters at once via a
ChainContext: a numeric executor (real block arithmetic on numpy
arrays), an IDEAL hierarchy and an LRU hierarchy.  The ``checks``
column is the residency walk of ``repro.check``, which proves the
schedule's capacity, inclusion and presence on its recorded directive
log.  The example shows the product is exact and the two simulators
agree with the closed-form prediction.

Usage::

    python examples/numeric_verification.py [m] [n] [z]
"""

import sys

import numpy as np

from repro import ALGORITHMS, predict, preset
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.check import analyze_schedule
from repro.numerics.blockmatrix import BlockMatrix
from repro.numerics.executor import NumericContext
from repro.sim.contexts import ChainContext, IdealContext, LRUContext


def main() -> None:
    m = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    z = int(sys.argv[3]) if len(sys.argv) > 3 else 8
    machine = preset("q32")
    q = 4  # numeric block side (kept small so the demo is instant)

    a = BlockMatrix.random(m, z, q, seed=1)
    b = BlockMatrix.random(z, n, q, seed=2)
    reference = a @ b

    print(f"C = A({m}x{z}) x B({z}x{n}) blocks of {q}x{q} on {machine.name}\n")
    header = (
        f"{'algorithm':18s} {'product':>8s} {'checks':>7s} "
        f"{'MS ideal':>9s} {'MS pred':>9s} {'MS lru':>8s}"
    )
    print(header)
    print("-" * len(header))
    for name, cls in ALGORITHMS.items():
        alg = cls(machine, m, n, z)
        numeric = NumericContext(machine.p, a, b)
        ideal_h = IdealHierarchy(machine.p)
        lru_h = LRUHierarchy(machine.p, machine.cs, machine.cd)
        ctx = ChainContext(
            [numeric, IdealContext(ideal_h), LRUContext(lru_h)]
        )
        alg.run(ctx)
        numeric.assert_complete()
        exact = np.allclose(numeric.c.data, reference.data)
        checks = analyze_schedule(alg).ok
        print(
            f"{name:18s} {'exact' if exact else 'WRONG':>8s} "
            f"{'pass' if checks else 'FAIL':>7s} "
            f"{ideal_h.ms:9d} {predict(alg).ms:9.0f} "
            f"{lru_h.snapshot().ms:8d}"
        )
        assert exact and checks

    print("\nEvery schedule computed A x B exactly, and the residency walk")
    print("proved its capacity, inclusion and presence.")


if __name__ == "__main__":
    main()
