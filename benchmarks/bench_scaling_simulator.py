"""Simulator scaling — touch throughput of one cell across orders.

DESIGN.md §4 reduces the paper's matrix orders for the default sweeps.
This bench measures touches per second (the cell's 3·m·n·z block
touches over its wall time) of a full Shared Opt. LRU-50 run at orders
16–48, and asserts the rate stays within a 4× band over the 27× work
range and above 0.5M touches/s.  Step's cost is no longer linear in
the touch count: it fast-forwards the schedule's declared loops once
the cache state repeats (:mod:`repro.sim.contexts`), so its rate grows
with the order, and an order-96 time does not extrapolate to order
1100 (an order-1100 Shared Opt. LRU-50 cell takes ~0.3 s on step, not
the ~70 minutes a flat per-touch cost would give).
Artifact: out/scaling_simulator.txt (wall times, so it is not tracked).

The runner memoizes results across runs (and across benches in the
same session), which is exactly what a scaling measurement must not
see, so every order starts from cleared memos.
"""

import time

from repro.experiments.io import render_rows
from repro.model.machine import preset
from repro.sim.runner import clear_memos, run_experiment
from repro.store.atomic import atomic_write_text

ORDERS = (16, 32, 48)


def _scaling_rows():
    machine = preset("q32")
    rows = []
    for order in ORDERS:
        clear_memos()
        start = time.perf_counter()
        run_experiment(
            "shared-opt", machine, order, order, order, "lru-50", engine="step"
        )
        elapsed = time.perf_counter() - start
        touches = 3 * order**3
        rows.append(
            {
                "order": order,
                "touches": touches,
                "seconds": round(elapsed, 4),
                "touches/s": int(touches / elapsed),
            }
        )
    return rows


def bench_lru_scaling(benchmark, out_dir):
    rows = benchmark.pedantic(_scaling_rows, rounds=1, iterations=1)
    atomic_write_text(out_dir / "scaling_simulator.txt", render_rows(rows))
    # linearity: throughput varies by < 4x across a 27x work range
    rates = [r["touches/s"] for r in rows]
    assert max(rates) < 4 * min(rates)
    # and it is fast enough for the shipped sweeps (>= 0.5M touches/s)
    assert rates[-1] > 500_000
