"""Fault-injection tests for the sweep engine.

These are the teeth behind the engine's resilience claims: a crashed
worker, a hung cell and a transiently flaky cell are injected into real
process-pool sweeps and the engine must finish the sweep with exact,
explicit per-cell accounting — never abort.

Determinism notes: the exact-record tests run with ``workers=1`` and
``chunksize=1`` so a misbehaving cell can never charge an innocent
chunk-mate collaterally; the multi-worker test asserts statuses only
(collateral ``BrokenProcessPool`` charges are timing-dependent) and
compensates with generous retry budgets.
"""

import json
import os
import time

import pytest

from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine
from repro.sim.faults import (
    FaultInjectionError,
    FaultSpec,
    dump_fault_plan,
    fault_plan_from_list,
    fault_plan_to_list,
    fire,
    load_fault_plan,
    stalls,
)
from repro.sim.parallel import parallel_order_sweep
from repro.sim.sweep import order_sweep

MACHINE = MulticoreMachine(p=4, cs=100, cd=21, q=8)
ENTRIES = [("shared-opt", "ideal"), ("outer-product", "lru")]


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meltdown")

    def test_flaky_fires_then_recovers(self):
        spec = FaultSpec(kind="flaky", fail_attempts=2)
        with pytest.raises(FaultInjectionError):
            fire(spec, attempt=1)
        with pytest.raises(FaultInjectionError):
            fire(spec, attempt=2)
        fire(spec, attempt=3)  # must not raise

    def test_error_always_fires(self):
        spec = FaultSpec(kind="error")
        for attempt in (1, 5, 50):
            with pytest.raises(FaultInjectionError):
                fire(spec, attempt=attempt)

    def test_stall_sleeps_then_runs_clean(self):
        spec = FaultSpec(kind="stall", fail_attempts=1, stall_s=0.05)
        start = time.perf_counter()
        fire(spec, attempt=1)  # dawdles, does not raise
        assert time.perf_counter() - start >= 0.05
        start = time.perf_counter()
        fire(spec, attempt=2)  # past fail_attempts: no sleep
        assert time.perf_counter() - start < 0.05

    def test_stalls_predicate_tracks_fail_attempts(self):
        spec = FaultSpec(kind="stall", fail_attempts=2)
        assert stalls(spec, 1)
        assert stalls(spec, 2)
        assert not stalls(spec, 3)
        # Only stall suppresses heartbeats.
        assert not stalls(FaultSpec(kind="die", fail_attempts=2), 1)

    def test_die_past_fail_attempts_is_harmless(self):
        # attempt > fail_attempts must NOT kill this test process.
        fire(FaultSpec(kind="die", fail_attempts=1), attempt=2)


class TestFaultPlanSerde:
    PLAN = {
        ("shared-opt ideal", 0): FaultSpec(kind="die", fail_attempts=1),
        ("outer-product lru", 1): FaultSpec(
            kind="stall", fail_attempts=1, stall_s=2.5
        ),
    }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        dump_fault_plan(self.PLAN, path)
        assert load_fault_plan(path) == self.PLAN

    def test_documented_schema_shape(self):
        payload = fault_plan_to_list(self.PLAN)
        assert payload == sorted(payload, key=lambda e: (e["label"], e["index"]))
        for entry in payload:
            assert set(entry) == {
                "label", "index", "kind", "fail_attempts", "hang_s", "stall_s"
            }

    def test_defaults_applied_on_parse(self):
        plan = fault_plan_from_list([{"label": "a", "index": 0, "kind": "flaky"}])
        assert plan[("a", 0)] == FaultSpec(kind="flaky")

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"not": "a list"}, "must be a JSON list"),
            (["not an object"], "not an object"),
            ([{"label": "a", "index": 0}], "missing key"),
            ([{"label": 3, "index": 0, "kind": "error"}], "label must be"),
            ([{"label": "a", "index": "x", "kind": "error"}], "label must be"),
            ([{"label": "a", "index": 0, "kind": "meltdown"}], "unknown fault kind"),
            (
                [
                    {"label": "a", "index": 0, "kind": "error"},
                    {"label": "a", "index": 0, "kind": "crash"},
                ],
                "duplicates cell",
            ),
        ],
    )
    def test_malformed_plans_rejected(self, payload, match):
        with pytest.raises(ConfigurationError, match=match):
            fault_plan_from_list(payload)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_fault_plan(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_fault_plan(bad)


class TestFlakyCells:
    def test_flaky_cell_retries_to_success(self):
        label = "shared-opt ideal"
        sweep = parallel_order_sweep(
            ENTRIES,
            MACHINE,
            [4, 6],
            workers=1,
            chunksize=1,
            retries=2,
            backoff=0.01,
            fault_plan={(label, 0): FaultSpec(kind="flaky", fail_attempts=2)},
        )
        assert sweep.complete
        result = sweep.result(label, 0)
        assert result is not None
        assert result.attempts == 3  # two injected failures, then success
        record = next(
            c for c in sweep.manifest.cells if (c.label, c.index) == (label, 0)
        )
        assert record.status == "ok"
        assert record.attempts == 3
        # Everyone else succeeded first try.
        assert all(
            c.attempts == 1
            for c in sweep.manifest.cells
            if (c.label, c.index) != (label, 0)
        )

    def test_flaky_results_match_serial(self):
        label = "outer-product lru"
        serial = order_sweep(ENTRIES, MACHINE, [4, 6])
        sweep = parallel_order_sweep(
            ENTRIES,
            MACHINE,
            [4, 6],
            workers=1,
            chunksize=1,
            retries=1,
            backoff=0.01,
            fault_plan={(label, 1): FaultSpec(kind="flaky", fail_attempts=1)},
        )
        for lab in serial.labels():
            assert sweep.values(lab, "ms") == serial.values(lab, "ms")
            assert sweep.values(lab, "tdata") == serial.values(lab, "tdata")


class TestPermanentFailures:
    def test_error_cell_becomes_failure_record(self):
        label = "shared-opt ideal"
        sweep = parallel_order_sweep(
            ENTRIES,
            MACHINE,
            [4, 6],
            workers=1,
            chunksize=1,
            retries=1,
            backoff=0.01,
            fault_plan={(label, 1): FaultSpec(kind="error")},
        )
        assert not sweep.complete
        assert sweep.result(label, 1) is None
        failed = sweep.failed_cells()
        assert [(r.label, r.index) for r in failed] == [(label, 1)]
        record = failed[0]
        assert record.status == "failed"
        assert record.error_type == "FaultInjectionError"
        assert record.attempts == 2  # 1 + retries
        assert sweep.cell_counts() == {"ok": 3, "failed": 1, "skipped": 0}
        # Dense-series access names the failed cell instead of crashing
        # cryptically downstream.
        with pytest.raises(ValueError, match="inspect SweepResult.failures"):
            sweep.values(label, "ms")
        # The untouched series stays fully usable.
        assert len(sweep.values("outer-product lru", "ms")) == 2


class TestCrashes:
    def test_crash_cell_does_not_abort_sweep(self):
        label = "outer-product lru"
        sweep = parallel_order_sweep(
            ENTRIES,
            MACHINE,
            [4, 6],
            workers=1,
            chunksize=1,
            retries=1,
            backoff=0.01,
            fault_plan={(label, 0): FaultSpec(kind="crash")},
        )
        failed = sweep.failed_cells()
        assert [(r.label, r.index) for r in failed] == [(label, 0)]
        assert failed[0].error_type == "BrokenProcessPool"
        assert failed[0].attempts == 2
        # Every crash costs one pool: initial attempt + one retry.
        assert sweep.manifest.pool_rebuilds == 2
        assert sweep.cell_counts() == {"ok": 3, "failed": 1, "skipped": 0}
        assert len(sweep.values("shared-opt ideal", "ms")) == 2


class TestHangs:
    def test_hang_cell_times_out(self):
        label = "shared-opt ideal"
        sweep = parallel_order_sweep(
            ENTRIES,
            MACHINE,
            [4, 6],
            workers=1,
            chunksize=1,
            retries=0,
            cell_timeout=1.0,
            backoff=0.01,
            fault_plan={(label, 0): FaultSpec(kind="hang", hang_s=60.0)},
        )
        failed = sweep.failed_cells()
        assert [(r.label, r.index) for r in failed] == [(label, 0)]
        assert failed[0].error_type == "TimeoutError"
        assert failed[0].attempts == 1
        assert sweep.manifest.pool_rebuilds == 1
        assert sweep.cell_counts() == {"ok": 3, "failed": 1, "skipped": 0}


class TestCombined:
    def test_crash_hang_and_flaky_in_one_sweep(self, tmp_path):
        """The acceptance scenario: all three fault kinds in one
        multi-worker sweep; the sweep completes with correct records."""
        crash = ("shared-opt ideal", 0)
        hang = ("shared-opt ideal", 2)
        flaky = ("outer-product lru", 1)
        manifest_path = os.environ.get(
            "REPRO_FAULT_MANIFEST", str(tmp_path / "manifest.json")
        )
        serial = order_sweep(ENTRIES, MACHINE, [4, 6, 8])
        sweep = parallel_order_sweep(
            ENTRIES,
            MACHINE,
            [4, 6, 8],
            workers=2,
            chunksize=1,
            retries=3,
            cell_timeout=1.0,
            backoff=0.01,
            manifest_path=manifest_path,
            fault_plan={
                crash: FaultSpec(kind="crash"),
                hang: FaultSpec(kind="hang", hang_s=60.0),
                flaky: FaultSpec(kind="flaky", fail_attempts=1),
            },
        )
        records = {(c.label, c.index): c for c in sweep.manifest.cells}
        assert records[crash].status == "failed"
        assert records[crash].error_type == "BrokenProcessPool"
        assert records[hang].status == "failed"
        # The hang normally ends as TimeoutError, but if it was in
        # flight at the instant the crasher killed the pool its *last*
        # charge is the collateral BrokenProcessPool — both are correct.
        assert records[hang].error_type in ("TimeoutError", "BrokenProcessPool")
        assert records[flaky].status == "ok"
        assert records[flaky].attempts >= 2
        # Every cell without an injected permanent fault produced a
        # result identical to the serial sweep.
        for lab in serial.labels():
            for index, expected in enumerate(serial.series[lab]):
                if (lab, index) in (crash, hang):
                    assert sweep.result(lab, index) is None
                    continue
                actual = sweep.result(lab, index)
                assert actual is not None
                assert actual.stats == expected.stats
                assert actual.comp == expected.comp
        counts = sweep.cell_counts()
        assert counts["ok"] == 4 and counts["failed"] == 2
        # The JSON manifest on disk mirrors the in-memory accounting.
        on_disk = json.loads(open(manifest_path).read())
        assert on_disk["schema"] == 4  # v4 dropped the replay telemetry
        assert on_disk["cell_counts"] == {"ok": 4, "failed": 2, "skipped": 0}
        assert on_disk["engine"]["pool_rebuilds"] >= 2
        assert len(on_disk["cells"]) == 6
        assert on_disk["workers"], "worker utilization stats must be recorded"


class TestSerialFallback:
    def test_pool_unavailable_falls_back_to_serial(self):
        def no_pool(**_kwargs):
            raise OSError("no processes for you")

        serial = order_sweep(ENTRIES, MACHINE, [4, 6])
        sweep = parallel_order_sweep(
            ENTRIES,
            MACHINE,
            [4, 6],
            workers=2,
            pool_factory=no_pool,
        )
        assert sweep.complete
        assert sweep.manifest.serial_fallback
        for lab in serial.labels():
            assert sweep.values(lab, "ms") == serial.values(lab, "ms")

    def test_fallback_skips_suspected_worker_killers(self):
        """A crasher kills the first pool; the rebuild fails; the
        in-process fallback must run the innocent cells and *skip* the
        crasher rather than risk the host process."""
        built = []

        def one_shot_factory(**kwargs):
            if built:
                raise OSError("pool budget exhausted")
            from concurrent.futures import ProcessPoolExecutor

            built.append(True)
            return ProcessPoolExecutor(**kwargs)

        crash = ("outer-product lru", 0)
        sweep = parallel_order_sweep(
            ENTRIES,
            MACHINE,
            [4, 6],
            workers=1,
            chunksize=1,
            retries=2,
            backoff=0.01,
            fault_plan={crash: FaultSpec(kind="crash")},
            pool_factory=one_shot_factory,
        )
        assert sweep.manifest.serial_fallback
        skipped = sweep.skipped_cells()
        assert [(r.label, r.index) for r in skipped] == [crash]
        assert skipped[0].status == "skipped"
        assert "crashed or hung" in skipped[0].error
        # All innocent cells still produced results.
        assert sweep.cell_counts() == {"ok": 3, "failed": 0, "skipped": 1}

    def test_no_fallback_marks_cells_skipped(self):
        def no_pool(**_kwargs):
            raise OSError("nope")

        sweep = parallel_order_sweep(
            ENTRIES,
            MACHINE,
            [4],
            workers=2,
            serial_fallback=False,
            pool_factory=no_pool,
        )
        assert not sweep.complete
        counts = sweep.cell_counts()
        assert counts == {"ok": 0, "failed": 0, "skipped": 2}
