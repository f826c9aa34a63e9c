#!/usr/bin/env python3
"""Extension — deeper hierarchies and realistic cache organizations.

Two outlook experiments beyond the paper's two-level fully associative
model:

1. A *three-level* topology (memory → shared LLC → per-socket cache →
   per-core cache), the "clusters of multicores" structure the paper's
   conclusion anticipates.  The mid-level cache converts sibling-core
   reuse into cheap local fills.
2. *Set-associative* and *pseudo-LRU* replacements: how much of the
   Maximum-Reuse benefit survives hardware-realistic caches.

Usage::

    python examples/cache_topologies.py [order]
"""

import sys

from repro.algorithms.shared_opt import SharedOpt
from repro.cache.hierarchy import LRUHierarchy
from repro.model.machine import MulticoreMachine
from repro.sim.contexts import LRUContext
from repro.sim.runner import run_experiment


def main() -> None:
    order = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    machine = MulticoreMachine(p=4, cs=976, cd=16, q=32, name="topo-demo")

    print(f"=== three-level tree vs flat two-level (order {order}) ===")
    flat = LRUHierarchy(4, cs=976, cd=16)
    flat_ctx = LRUContext(flat)
    SharedOpt(machine, order, order, order).run(flat_ctx)
    # LLC, then two socket caches of 64 blocks, then the core caches.
    tree = LRUHierarchy(4, cs=976, cd=16, middle=((2, 64),))
    SharedOpt(machine, order, order, order).run(LRUContext(tree))
    print(f"flat:  LLC misses = {flat.snapshot().ms}")
    print(
        f"tree:  LLC misses = {tree.level_misses(0)}, socket misses = "
        f"{tree.level_misses(1)}, core misses = {tree.level_misses(2)}"
    )
    print("(socket caches absorb part of the traffic the flat model sends")
    print(" to the LLC — the extra level the paper's conclusion predicts)\n")

    print("=== replacement realism (shared-opt, LRU-50 setting) ===")
    for policy in ("lru", "assoc8", "assoc4", "assoc8-plru"):
        r = run_experiment(
            "shared-opt", machine, order, order, order, "lru-50", policy=policy
        )
        print(f"{policy:12s} MS = {r.ms:8d}   MD = {r.md:8d}")
    print("\nLower associativity and the PLRU heuristic add conflict misses")
    print("on top of the fully associative model the paper analyses.")


if __name__ == "__main__":
    main()
