"""The cell ledger: one set of books under the pool and the fabric.

Both executors plan cells, record outcomes, checkpoint and resume
through :mod:`repro.sim.ledger`, so a grid run by either one must leave
the same per-cell telemetry, and either one must resume the other's
run directory.  Neither executor has an engine knob; the telemetry
tests ask for replay through each entry's params, whose cells name a
trace source, and the default engine is step.
"""

import functools
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import repro.sim.ledger as ledger_module
from repro.cache import replay, tracestore
from repro.exceptions import ConfigurationError
from repro.fabric.coordinator import fabric_order_sweep
from repro.fabric.local import run_local_fabric
from repro.fabric.worker import FabricWorker
from repro.model.machine import MulticoreMachine
from repro.sim.ledger import order_plan, ratio_plan
from repro.sim.parallel import parallel_order_sweep
from repro.sim.runner import clear_memos
from repro.store import RunStore, result_to_dict

MACHINE = MulticoreMachine(p=4, cs=100, cd=21, q=8)
GRID = [("shared-opt", "lru-50"), ("outer-product", "ideal")]
#: The same cells, each entry asking ``run_experiment`` for replay.
REPLAY_GRID = [(algorithm, setting, {"engine": "replay"}) for algorithm, setting in GRID]
ORDERS = [4, 6]


def pool_run(run_dir, *, resume=False, grid=REPLAY_GRID):
    return parallel_order_sweep(
        grid, MACHINE, ORDERS, workers=1, run_dir=run_dir, resume=resume
    )


def fabric_run(run_dir, *, resume=False):
    """A coordinator driven through ``handle()``; each grant runs the way
    a fabric worker runs it."""
    coordinator = fabric_order_sweep(
        REPLAY_GRID, MACHINE, ORDERS, run_dir=run_dir, resume=resume
    )
    coordinator._started_at = time.perf_counter()
    coordinator._open()
    worker = FabricWorker(("127.0.0.1", 1), worker_id="w1")
    while True:
        reply = coordinator.handle({"type": "lease", "worker": "w1"})
        if reply["type"] == "drained":
            break
        assert reply["type"] == "grant"
        coordinator.handle(worker._execute(reply))
    return coordinator.finish()


def cell_telemetry(run_dir):
    """Per cell: manifest status and attempts, and the checkpointed
    result's engine and trace source."""
    manifest = json.loads(RunStore(run_dir).manifest_path.read_text())
    loaded = RunStore(run_dir).load_checkpoint()
    results = {
        (record["label"], record["index"]): record["result"]
        for record in loaded.ok_records().values()
    }
    return {
        (cell["label"], cell["index"]): (
            cell["status"],
            cell["attempts"],
            results[(cell["label"], cell["index"])].get("engine", ""),
            results[(cell["label"], cell["index"])].get("trace_source", ""),
        )
        for cell in manifest["cells"]
    }


class TestPlan:
    def test_unknown_setting_rejected_before_any_worker_starts(self):
        pools = []

        def factory(**kwargs):
            pools.append(kwargs)
            return ProcessPoolExecutor(**kwargs)

        with pytest.raises(ConfigurationError, match="unknown setting"):
            parallel_order_sweep(
                [("shared-opt", "ideal"), ("shared-opt", "nope")],
                MACHINE,
                [4],
                workers=2,
                pool_factory=factory,
            )
        assert pools == []

    def test_unknown_algorithm_rejected_before_the_run_dir_exists(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            fabric_order_sweep(
                [("no-such-algorithm", "ideal")], MACHINE, [4], run_dir=tmp_path / "run"
            )
        assert not (tmp_path / "run").exists()

    def test_order_and_ratio_cells(self):
        orders = order_plan(GRID, MACHINE, ORDERS, policy="lru")
        assert orders.labels == ["shared-opt lru-50", "outer-product ideal"]
        assert orders.cells[:2] == [
            ("shared-opt lru-50", 0, 0, 4, 4, 4),
            ("shared-opt lru-50", 1, 0, 6, 6, 6),
        ]
        assert orders.entries["shared-opt lru-50"] == (
            "shared-opt", "lru-50", {"policy": "lru"}
        )
        ratios = ratio_plan(GRID[:1], MACHINE, [0.25, 0.75], 8, total_bandwidth=2.0)
        assert [cell[2] for cell in ratios.cells] == [0, 1]
        assert [m.sigma_s for m in ratios.machines] == [0.5, 1.5]


class TestExecutorsAgree:
    def test_pool_and_fabric_record_the_same_cell_telemetry(self, tmp_path):
        clear_memos()
        pool = pool_run(tmp_path / "pool")
        clear_memos()
        fabric = fabric_run(tmp_path / "fabric")
        assert pool.complete and fabric.complete
        pool_cells = cell_telemetry(tmp_path / "pool")
        assert len(pool_cells) == len(GRID) * len(ORDERS)
        assert set(pool_cells.values()) == {("ok", 1, "replay", "compiled")}
        assert cell_telemetry(tmp_path / "fabric") == pool_cells

    def test_each_executor_resumes_the_others_run_dir(self, tmp_path):
        pool_run(tmp_path / "pool")
        fabric_run(tmp_path / "fabric")
        expected = {
            name: cell_telemetry(tmp_path / name) for name in ("pool", "fabric")
        }
        by_fabric = fabric_run(tmp_path / "pool", resume=True)
        by_pool = pool_run(tmp_path / "fabric", resume=True)
        for sweep in (by_fabric, by_pool):
            assert sweep.complete
            assert sweep.manifest.resumed_cells == len(GRID) * len(ORDERS)
            assert all(cell.resumed for cell in sweep.manifest.cells)
        assert cell_telemetry(tmp_path / "pool") == expected["pool"]
        assert cell_telemetry(tmp_path / "fabric") == expected["fabric"]

    def test_a_replay_run_dir_resumes_under_the_default_engine(self, tmp_path):
        """The engine is not part of a cell's identity: a run dir whose
        cells replayed, as every executor's did by default in earlier
        versions, resumes on step with every cell restored as written."""
        clear_memos()
        written = pool_run(tmp_path / "run")
        resumed = pool_run(tmp_path / "run", resume=True, grid=GRID)
        assert resumed.complete
        assert resumed.manifest.resumed_cells == len(GRID) * len(ORDERS)
        assert all(cell.resumed for cell in resumed.manifest.cells)
        assert len(written.labels()) == len(resumed.labels()) == len(GRID)
        for before_label, after_label in zip(written.labels(), resumed.labels()):
            pairs = list(zip(written.series[before_label], resumed.series[after_label]))
            assert len(pairs) == len(ORDERS)
            for before, after in pairs:
                assert result_to_dict(after) == result_to_dict(before)
                assert after.engine == "replay"


#: Both executors with two workers behind a run directory.  A spawned
#: pool worker inherits no module state, the trace tier included.
EXECUTORS = {
    "pool": lambda run_dir: parallel_order_sweep(
        GRID, MACHINE, ORDERS, workers=2, run_dir=run_dir
    ),
    "pool-spawn": lambda run_dir: parallel_order_sweep(
        GRID, MACHINE, ORDERS, workers=2, run_dir=run_dir,
        pool_factory=functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        ),
    ),
    "fabric": lambda run_dir: run_local_fabric(
        GRID, MACHINE, ORDERS, workers=2, run_dir=run_dir
    ),
}


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
class TestTraceTier:
    """Executor cells run on step and compile no trace: a run directory
    gets no tier, and the caller's tier stays empty.  Memos are cleared
    first so that the forked workers simulate every cell rather than
    inherit the caller's results."""

    def test_a_run_dir_gets_no_trace_tier(self, executor, tmp_path):
        run_dir, tier = tmp_path / "run", tmp_path / "tier"
        previous = replay.trace_tier_root()
        replay.configure_trace_tier(str(tier))
        clear_memos()
        try:
            sweep = EXECUTORS[executor](run_dir)
        finally:
            replay.configure_trace_tier(previous)
        assert sweep.complete
        results = [r for results in sweep.series.values() for r in results]
        assert {(r.engine, r.trace_source) for r in results} == {("step", "")}
        assert not (run_dir / "traces").exists()
        assert tracestore.tier_info(tier)["entries"] == 0


class TestDeterminismScope:
    SOURCE = Path(ledger_module.__file__).resolve()

    def test_ledger_is_on_the_determinism_profile(self):
        from repro.check.lint import _profile_for

        assert _profile_for(self.SOURCE, self.SOURCE.parents[1]).determinism

    def test_ledger_scans_clean(self):
        from repro.check.lint import run_lint

        assert run_lint(paths=[self.SOURCE]) == []
