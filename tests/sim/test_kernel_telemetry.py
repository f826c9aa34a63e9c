"""Engine/trace-source telemetry: who evaluated a cell, from what.

``ExperimentResult.engine`` names the engine that ran (the kernel
follows from it, the setting and the policy: ``bulk-lru``,
``bulk-fifo`` and ``ideal`` are replay's, ``step`` is step's) and
``trace_source`` where the counters came from (a ``compiled`` or
``disk`` trace, or the runner's result ``memo``).  These tests pin the
values across engines and past the
:data:`~repro.cache.replay.STREAM_FMAS` bound, their serde round-trip
(including payloads without the fields, and older payloads that still
carry ``kernel``), and that sweep manifests no longer carry them.
"""

import pytest

from repro.cache import replay
from repro.cache.replay import configure_trace_tier, trace_tier_root
from repro.model.machine import PRESETS
from repro.sim.runner import clear_memos, run_experiment
from repro.sim.telemetry import CellRecord
from repro.store.serde import result_from_dict, result_to_dict

MACHINE = PRESETS["q32"]


@pytest.fixture(autouse=True)
def _fresh_state():
    # Earlier tests may leave a process-global trace tier configured;
    # these tests pin trace_source, so they must start tierless.
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
        assert (result.engine, result.engine_fallback) == ("replay", False)
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
        assert (result.engine, result.engine_fallback) == ("replay", False)
        assert result.trace_source == "compiled"

    def test_ideal_replay_reports_ideal_kernel(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "ideal", engine="replay"
        )
        assert (result.engine, result.engine_fallback) == ("replay", False)
        assert result.trace_source == "compiled"

    def test_step_engine_reports_step_kernel(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru-50", engine="step"
        )
        assert result.engine == "step"
        assert result.trace_source == ""


class TestStreamingThreshold:
    def test_large_ideal_cell_falls_back_to_step(self, monkeypatch):
        monkeypatch.setattr(replay, "STREAM_FMAS", 10)
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
        payload = result_to_dict(result)
        assert "kernel" not in payload
        again = result_from_dict(payload)
        assert again.engine == "replay"
        assert again.trace_source == "compiled"

    def test_legacy_payload_defaults_to_empty(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru-50", engine="replay"
        )
        payload = result_to_dict(result)
        payload.pop("trace_source", None)
        again = result_from_dict(payload)
        assert again.trace_source == ""
        # Checkpoints written before the field went still carry it.
        older = result_from_dict({**result_to_dict(result), "kernel": "bulk-lru"})
        assert result_to_dict(older) == result_to_dict(result)


class TestCellRecord:
    def test_to_dict_emits_only_when_known(self):
        bare = CellRecord(label="a", index=0, x=4).to_dict()
        for key in ("error_type", "error", "worker", "resumed"):
            assert key not in bare
        # No replay telemetry at all: executors never ask for replay.
        for key in ("engine_fallback", "kernel", "trace_source"):
            assert key not in bare
        known = CellRecord(
            label="a",
            index=0,
            x=4,
            error_type="TimeoutError",
            error="late",
            worker=7,
            resumed=True,
        ).to_dict()
        assert (known["error_type"], known["error"]) == ("TimeoutError", "late")
        assert (known["worker"], known["resumed"]) == (7, True)
