"""Extension bench — nested tiling on a three-level hierarchy (§6 outlook).

Compares the flat Distributed Opt. schedule with the socket-aware
nested Maximum Reuse schedule on a 16-core, 4-socket cache tree, per
level.  LLC and per-core traffic are identical by construction; the
socket level shows the placement win.
Artifact: out/extension_nested.txt.
"""

from repro.algorithms.distributed_opt import DistributedOpt
from repro.algorithms.nested import NestedMaxReuse
from repro.experiments.io import render_rows
from repro.model.machine import MulticoreMachine
from repro.sim.contexts import LRUContext
from repro.store.atomic import atomic_write_text

MACHINE = MulticoreMachine(p=16, cs=400, cd=21, q=8)
ORDERS = (16, 32)


def bench_nested_vs_flat(benchmark, out_dir):
    def run():
        rows = []
        for order in ORDERS:
            nest = NestedMaxReuse(MACHINE, order, order, order)
            for alg in (nest, DistributedOpt(MACHINE, order, order, order)):
                tree = nest.default_tree()
                alg.run(LRUContext(tree))
                rows.append(
                    {
                        "order": order,
                        "schedule": alg.name,
                        "LLC": tree.level_misses(0),
                        "socket": tree.level_misses(1),
                        "core": tree.level_misses(2),
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    atomic_write_text(out_dir / "extension_nested.txt", render_rows(rows))
    for order in ORDERS:
        nested, flat = [r for r in rows if r["order"] == order]
        assert nested["LLC"] == flat["LLC"]
        assert nested["core"] == flat["core"]
        assert nested["socket"] < flat["socket"]
