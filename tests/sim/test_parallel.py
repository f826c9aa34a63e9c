"""Tests for process-parallel sweeps: identical results, just faster."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine
from repro.sim import clear_memos
from repro.sim.parallel import parallel_order_sweep
from repro.sim.sweep import order_sweep

MACHINE = MulticoreMachine(p=4, cs=100, cd=21, q=8)
ENTRIES = [("shared-opt", "ideal"), ("outer-product", "lru")]


class TestParallelOrderSweep:
    def test_matches_serial_exactly(self):
        orders = [4, 8, 12]
        serial = order_sweep(ENTRIES, MACHINE, orders)
        # Forked workers would inherit the serial run's result memo and
        # compare it with a copy of itself.
        clear_memos()
        parallel = parallel_order_sweep(ENTRIES, MACHINE, orders, workers=2)
        assert parallel.xs == serial.xs
        assert set(parallel.labels()) == set(serial.labels())
        for label in serial.labels():
            assert parallel.values(label, "ms") == serial.values(label, "ms")
            assert parallel.values(label, "md") == serial.values(label, "md")
            # Bit-identical: the full simulated state, not just headline
            # metrics, must match the serial run.
            for ppoint, spoint in zip(parallel.series[label], serial.series[label]):
                assert ppoint.trace_source != "memo"
                assert ppoint.stats == spoint.stats
                assert ppoint.comp == spoint.comp

    def test_clean_run_is_complete_with_manifest(self):
        sweep = parallel_order_sweep(ENTRIES, MACHINE, [4, 8], workers=2)
        assert sweep.complete
        assert sweep.failures == []
        manifest = sweep.manifest
        assert manifest is not None
        assert manifest.counts() == {"ok": 4, "failed": 0, "skipped": 0}
        assert manifest.pool_rebuilds == 0
        assert not manifest.serial_fallback
        assert all(cell.attempts == 1 for cell in manifest.cells)
        assert sum(w.cells for w in manifest.worker_stats) == 4

    def test_single_worker(self):
        sweep = parallel_order_sweep([("shared-opt", "ideal")], MACHINE, [6], workers=1)
        assert len(sweep.series["shared-opt ideal"]) == 1

    def test_params_forwarded(self):
        sweep = parallel_order_sweep(
            [("shared-opt", "ideal", {"lam": 4})], MACHINE, [8], workers=2
        )
        assert sweep.series["shared-opt ideal lam=4"][0].parameters["lambda"] == 4

    def test_param_variants_keep_distinct_series(self):
        sweep = parallel_order_sweep(
            [("shared-opt", "ideal", {"lam": 4}), ("shared-opt", "ideal", {"lam": 8})],
            MACHINE,
            [8],
            workers=2,
        )
        assert set(sweep.labels()) == {
            "shared-opt ideal lam=4",
            "shared-opt ideal lam=8",
        }

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate series label"):
            parallel_order_sweep(
                [("shared-opt", "ideal"), ("shared-opt", "ideal")],
                MACHINE,
                [4],
                workers=2,
            )


class TestWorkerValidation:
    @pytest.mark.parametrize("workers", [0, -1, -8])
    def test_order_sweep_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ConfigurationError, match="at least one worker"):
            parallel_order_sweep(ENTRIES, MACHINE, [4], workers=workers)

    def test_none_means_default(self):
        # The default (cpu-count) path must stay accessible.
        sweep = parallel_order_sweep([("shared-opt", "ideal")], MACHINE, [4])
        assert len(sweep.series["shared-opt ideal"]) == 1


class TestSerialParallelAgreement:
    @given(
        orders=st.lists(
            st.integers(min_value=3, max_value=10), min_size=1, max_size=3, unique=True
        ),
        workers=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=5, deadline=None)
    def test_every_successful_cell_matches_serial(self, orders, workers):
        # Process pools are slow to spin up, so few examples — but each
        # one checks the engine's core contract: parallelism must never
        # change a result, only who computes it.
        serial = order_sweep(ENTRIES, MACHINE, orders)
        clear_memos()
        parallel = parallel_order_sweep(ENTRIES, MACHINE, orders, workers=workers)
        assert parallel.complete
        for label in serial.labels():
            for ppoint, spoint in zip(parallel.series[label], serial.series[label]):
                assert ppoint.trace_source != "memo"
                assert ppoint.stats == spoint.stats
                assert ppoint.comp == spoint.comp
                assert ppoint.parameters == spoint.parameters
