"""Micro-benchmarks of the simulator substrate itself.

These measure the raw cost of the hot operations — block touches in LRU
mode and explicit loads in IDEAL mode — which determine how large a
matrix order the harness can sweep.  They are the scaling ablation
called out in DESIGN.md.

The ``*_step`` / ``*_replay`` pairs compare the two simulation engines
on identical workloads (same schedule, machine, counters):

* ``mdcurve`` — an 8-point distributed-capacity curve, one step
  simulation per capacity (no replay half: nothing in the package
  draws capacity curves from a trace any more).
* ``fifo`` — a single FIFO cell: step's generic per-touch policy path
  vs the replay sliding-window pass over a precompiled trace.
* ``ideal_cell`` — re-evaluating an IDEAL cell end-to-end through
  ``run_experiment``: with ``engine="replay"`` the runner memoizes the
  cell's counters per ``(ScheduleKey, "ideal")`` (algorithm, ``p``,
  shape and tile plan) — unchecked IDEAL counters read no capacity and
  no bandwidth — so warm
  cells, the common case in sweep resumes, conformance re-checks and
  figure regeneration, cost a dict probe.  ``engine="step"`` memoizes
  its own results the same way, so the step benches clear the memos
  every round and re-simulate, fast-forwarding the schedule's declared
  loops (:mod:`repro.sim.contexts`): ``bench_ideal_cell_step`` fell
  from ~40 ms to ~13 ms per run with it (2-vCPU host), since only
  about 7 of the cell's 24 k iterations are simulated.
"""

import dataclasses

import pytest

from repro.algorithms.registry import get_algorithm
from repro.cache import replay
from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.model.machine import PRESETS
from repro.sim.runner import clear_memos, run_experiment

N = 4096

MACHINE = PRESETS["q32"]
CURVE_ORDER = 16
CURVE_CAPACITIES = (6, 9, 12, 15, 18, 21, 24, 27)
CELL_ORDER = 24


def _fma_keys(n):
    keys = []
    for t in range(n):
        i, j, k = (t * 7) % 64, (t * 11) % 64, (t * 13) % 64
        keys.append(
            (
                block_key(MAT_A, i, k),
                block_key(MAT_B, k, j),
                block_key(MAT_C, i, j),
            )
        )
    return keys


def bench_lru_compute_touches(benchmark):
    """Throughput of the inlined LRU fast path (3 touches per call)."""
    keys = _fma_keys(N)

    def run():
        h = LRUHierarchy(p=4, cs=977, cd=21)
        touches = h.compute_touches
        for idx, (ka, kb, kc) in enumerate(keys):
            touches(idx & 3, ka, kb, kc)
        return h.snapshot().ms

    assert benchmark(run) > 0


def bench_lru_generic_touch(benchmark):
    """Throughput of the generic (policy-agnostic) touch path."""
    keys = _fma_keys(N)

    def run():
        h = LRUHierarchy(p=4, cs=977, cd=21, policy="fifo")  # generic path
        for idx, (ka, kb, kc) in enumerate(keys):
            h.compute_touches(idx & 3, ka, kb, kc)
        return h.snapshot().ms

    assert benchmark(run) > 0


def bench_ideal_load_evict(benchmark):
    """Throughput of checked IDEAL load/evict pairs."""
    keys = [block_key(MAT_A, t % 64, t // 64) for t in range(N)]

    def run():
        h = IdealHierarchy(p=4, cs=977, cd=21, check=True)
        for key in keys:
            h.load_shared(key)
            h.load_distributed(0, key)
            h.evict_distributed(0, key)
            h.evict_shared(key)
        return h.ms

    assert benchmark(run) == N


# ----------------------------------------------------------------------
# Engine comparison pairs (step vs replay)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cell_trace():
    """Compiled shared-opt trace (with directives) for the cell benches."""
    alg = get_algorithm("shared-opt")(MACHINE, CELL_ORDER, CELL_ORDER, CELL_ORDER)
    return replay.compile_trace(alg, directives=True)


def bench_mdcurve_step(benchmark):
    """8-point distributed-capacity curve, one step simulation per point."""

    def run():
        clear_memos()
        curve = {}
        for cap in CURVE_CAPACITIES:
            result = run_experiment(
                "shared-opt",
                dataclasses.replace(MACHINE, cd=cap),
                CURVE_ORDER,
                CURVE_ORDER,
                CURVE_ORDER,
                "lru",
                engine="step",
            )
            curve[cap] = result.stats.md_per_core
        return curve

    curve = benchmark(run)
    assert len(curve) == len(CURVE_CAPACITIES)


def bench_fifo_step(benchmark):
    """One FIFO cell through the step engine's generic policy path."""

    def run():
        clear_memos()
        return run_experiment(
            "shared-opt",
            MACHINE,
            CELL_ORDER,
            CELL_ORDER,
            CELL_ORDER,
            "lru",
            policy="fifo",
            engine="step",
        ).stats.ms

    assert benchmark(run) > 0


def bench_fifo_replay(benchmark, cell_trace):
    """Same FIFO cell as a sliding-window replay of the compiled trace.

    Calls the single-``CD`` kernel directly so every round measures the
    pass itself, not ``run_experiment``'s result memo.
    """

    def run():
        out = replay._bulk_fifo_cd(cell_trace, MACHINE.cd, [MACHINE.cs])
        return out[(MACHINE.cs, MACHINE.cd)].ms

    assert benchmark(run) > 0


def bench_ideal_cell_step(benchmark):
    """Re-evaluating an IDEAL cell with the step engine (re-simulates)."""

    def run():
        clear_memos()
        return run_experiment(
            "shared-opt",
            MACHINE,
            CELL_ORDER,
            CELL_ORDER,
            CELL_ORDER,
            "ideal",
            engine="step",
        ).stats.ms

    assert benchmark(run) > 0


def bench_ideal_cell_replay(benchmark):
    """Re-evaluating the same IDEAL cell with the replay engine.

    After the first evaluation ``run_experiment`` holds the cell's
    counters in its result memo, keyed on ``(ScheduleKey, "ideal")``,
    so warm cells — sweep resumes, conformance re-checks, figure
    regeneration — cost a dict probe plus result packaging.
    """
    run_experiment(
        "shared-opt",
        MACHINE,
        CELL_ORDER,
        CELL_ORDER,
        CELL_ORDER,
        "ideal",
        engine="replay",
    )  # warm the trace + result memo

    def run():
        return run_experiment(
            "shared-opt",
            MACHINE,
            CELL_ORDER,
            CELL_ORDER,
            CELL_ORDER,
            "ideal",
            engine="replay",
        ).stats.ms

    assert benchmark(run) > 0
