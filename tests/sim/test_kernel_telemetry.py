"""Kernel/trace-source telemetry: who evaluated a cell, from what.

``ExperimentResult.kernel`` names the evaluation path (``bulk-lru``,
``bulk-fifo``, ``ideal``, ``step``) and ``trace_source`` where the
counters came from (a ``compiled``/``memory``/``disk`` trace, or the
runner's result ``memo``).  These
tests pin the values across engines and past the ``REPRO_STREAM_FMAS``
bound, their serde round-trip (including legacy payloads without the
fields), and their mirroring onto sweep manifests.
"""

import pytest

from repro.cache.replay import configure_trace_tier, trace_tier_root
from repro.model.machine import PRESETS
from repro.sim.runner import clear_memos, run_experiment
from repro.sim.telemetry import CellRecord
from repro.store.serde import result_from_dict, result_to_dict

MACHINE = PRESETS["q32"]


@pytest.fixture(autouse=True)
def _fresh_state():
    # Earlier tests may leave a process-global trace tier configured
    # (e.g. an in-process fabric worker adopting its coordinator's run
    # dir); these tests pin trace_source, so they must start tierless.
    previous_tier = trace_tier_root()
    configure_trace_tier(None)
    clear_memos()
    yield
    configure_trace_tier(previous_tier)
    clear_memos()


class TestRunnerTelemetry:
    def test_lru_replay_reports_bulk_kernel(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru-50", engine="replay"
        )
        assert result.kernel == "bulk-lru"
        assert result.trace_source == "compiled"

    def test_fifo_replay_reports_bulk_kernel(self):
        result = run_experiment(
            "shared-opt",
            MACHINE,
            4,
            4,
            4,
            "lru-50",
            policy="fifo",
            engine="replay",
        )
        assert result.kernel == "bulk-fifo"

    def test_memoized_trace_reports_memory_source(self):
        run_experiment("shared-opt", MACHINE, 4, 4, 4, "lru-50", engine="replay")
        warm = run_experiment(
            "shared-opt",
            MACHINE,
            4,
            4,
            4,
            "lru-50",
            policy="fifo",
            engine="replay",
        )
        assert warm.trace_source == "memory"

    def test_ideal_replay_reports_ideal_kernel(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "ideal", engine="replay"
        )
        assert result.kernel == "ideal"

    def test_step_engine_reports_step_kernel(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru-50", engine="step"
        )
        assert result.kernel == "step"
        assert result.trace_source == ""


class TestStreamingThreshold:
    def test_large_ideal_cell_falls_back_to_step(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_FMAS", "10")
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "ideal", engine="replay"
        )
        assert result.engine == "step"
        assert result.engine_fallback
        baseline = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "ideal", engine="step"
        )
        assert baseline.trace_source == ""  # simulated, not the fallback's entry
        assert result.stats == baseline.stats


class TestSerde:
    def test_kernel_telemetry_round_trips(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru-50", engine="replay"
        )
        again = result_from_dict(result_to_dict(result))
        assert again.kernel == "bulk-lru"
        assert again.trace_source == "compiled"

    def test_legacy_payload_defaults_to_empty(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru-50", engine="replay"
        )
        payload = result_to_dict(result)
        payload.pop("kernel", None)
        payload.pop("trace_source", None)
        again = result_from_dict(payload)
        assert again.kernel == ""
        assert again.trace_source == ""


class TestCellRecord:
    def test_to_dict_emits_only_when_known(self):
        bare = CellRecord(label="a", index=0, x=4)
        assert "kernel" not in bare.to_dict()
        assert "trace_source" not in bare.to_dict()
        known = CellRecord(
            label="a", index=0, x=4, kernel="bulk-lru", trace_source="disk"
        )
        d = known.to_dict()
        assert d["kernel"] == "bulk-lru"
        assert d["trace_source"] == "disk"
