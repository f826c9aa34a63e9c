"""Micro-benchmarks of the simulator substrate itself.

These measure the raw cost of the hot operations — the LRU row kernel
on the rows real schedules emit, per-touch FIFO references and explicit
loads in IDEAL mode — which determine how large a matrix order the
harness can sweep.  They are the scaling ablation called out in
DESIGN.md.

The engine benches time whole cells on identical workloads (same
schedule, machine, counters).  Replay serves IDEAL cells only, so only
``ideal_cell`` has a replay half:

* ``mdcurve`` — an 8-point distributed-capacity curve, one step
  simulation per capacity.
* ``fifo`` — a single FIFO cell through step's generic per-touch policy
  path.
* ``ideal_cell`` — re-evaluating an IDEAL cell end-to-end through
  ``run_experiment``: with ``engine="replay"`` the runner memoizes the
  cell's counters per ``(ScheduleKey, "ideal")`` (algorithm, ``p``,
  shape and tile plan) — IDEAL counters read no capacity and no
  bandwidth — so warm
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

from repro.algorithms.base import ExecutionContext
from repro.algorithms.registry import get_algorithm
from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.model.machine import PRESETS
from repro.sim.runner import clear_memos, run_experiment
from repro.sim.settings import get_setting

N = 4096

MACHINE = PRESETS["q32"]
CURVE_ORDER = 16
CURVE_CAPACITIES = (6, 9, 12, 15, 18, 21, 24, 27)
CELL_ORDER = 24

#: The row kernel's inputs: rows of a few columns (Shared Opt.) and of
#: one (Distributed Equal, ``t = 1``) under LRU-50 on q32.
ROW_SCHEDULES = ("shared-opt", "distributed-equal")
ROW_ORDER = 24


class _RowRecorder(ExecutionContext):
    """Records the rows a schedule emits, as ``LRUHierarchy.compute_row``
    arguments; declared loops run plainly, so every row is recorded."""

    def __init__(self, p):
        super().__init__(p)
        self.rows = []

    def compute(self, core, ckey, akey, bkey):
        self.rows.append((core, akey, bkey, ckey, (0,)))

    def compute_row(self, core, crow, akey, brow, cols):
        self.rows.append((core, akey, brow, crow, cols))


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


@pytest.fixture(scope="module")
def schedule_rows():
    """Per schedule: the simulated hierarchy's shape and its rows."""
    setting = get_setting("lru-50")
    simulated = setting.simulated(MACHINE)
    out = []
    for name in ROW_SCHEDULES:
        alg = get_algorithm(name)(
            setting.declared(MACHINE), ROW_ORDER, ROW_ORDER, ROW_ORDER
        )
        recorder = _RowRecorder(MACHINE.p)
        alg.run(recorder)
        out.append(((MACHINE.p, simulated.cs, simulated.cd), recorder.rows))
    return out


def bench_lru_compute_touches(benchmark, schedule_rows):
    """Throughput of the LRU row kernel (``LRUHierarchy.compute_row``)
    over every row two schedules emit, each on a fresh hierarchy."""

    def run():
        ms = 0
        for shape, rows in schedule_rows:
            h = LRUHierarchy(*shape)
            row = h.compute_row
            for core, akey, brow, crow, cols in rows:
                row(core, akey, brow, crow, cols)
            ms += h.snapshot().ms
        return ms

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
    """Throughput of IDEAL load/evict pairs."""
    keys = [block_key(MAT_A, t % 64, t // 64) for t in range(N)]

    def run():
        h = IdealHierarchy(p=4)
        for key in keys:
            h.load_shared(key)
            h.load_distributed(0, key)
            h.evict_distributed(0, key)
            h.evict_shared(key)
        return h.ms

    assert benchmark(run) == N


# ----------------------------------------------------------------------
# Whole cells through run_experiment
# ----------------------------------------------------------------------
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
