"""Durability tests: kill a sweep, resume it, get identical results.

The run store's contract has three teeth, each with its own test class:

* **Kill-and-resume** — a sweep SIGKILLed mid-run (a real subprocess,
  a real ``kill -9``) resumes re-executing *only* the incomplete
  cells, and the resumed ``SweepResult`` is bit-identical to an
  uninterrupted serial run.
* **Corruption** — an injected checksum flip forces a recompute of
  exactly the quarantined cell; everything else replays from the log.
* **Graceful signals** — SIGTERM during a run drains in-flight work,
  flushes the checkpoint and records the interruption; a subsequent
  resume finishes the sweep.

The bit-identical assertions compare simulated state (stats, comp,
parameters) like the existing parallel-engine tests do; telemetry such
as wall times is legitimately different across runs.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.machine import MulticoreMachine
from repro.sim.faults import FaultSpec
from repro.sim.parallel import parallel_order_sweep
from repro.sim.sweep import order_sweep
from repro.store import RunStore, STATUS_COMPLETE, STATUS_INTERRUPTED

MACHINE = MulticoreMachine(p=4, cs=100, cd=21, q=8)
ENTRIES = [("shared-opt", "ideal"), ("outer-product", "lru")]
ORDERS = [4, 6, 8]
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def assert_bit_identical(sweep, serial):
    """The resumed sweep's simulated state must equal the serial run's."""
    assert sweep.xs == serial.xs
    assert set(sweep.labels()) == set(serial.labels())
    for label in serial.labels():
        for point, spoint in zip(sweep.series[label], serial.series[label]):
            assert point is not None
            assert point.stats == spoint.stats
            assert point.comp == spoint.comp
            assert point.parameters == spoint.parameters


class TestResumeBasics:
    def test_fresh_run_writes_store(self, tmp_path):
        run_dir = tmp_path / "run"
        sweep = parallel_order_sweep(
            ENTRIES, MACHINE, ORDERS, workers=1, run_dir=run_dir
        )
        assert sweep.complete
        store = RunStore(run_dir)
        meta = store.load_meta()
        assert meta is not None
        assert meta["status"] == STATUS_COMPLETE
        assert len(store.load_checkpoint().ok_records()) == 6
        assert store.manifest_path.exists()
        manifest = json.loads(store.manifest_path.read_text())
        assert manifest["resumed_cells"] == 0

    def test_full_resume_skips_all_dispatch(self, tmp_path):
        run_dir = tmp_path / "run"
        parallel_order_sweep(ENTRIES, MACHINE, ORDERS, workers=1, run_dir=run_dir)
        resumed = parallel_order_sweep(
            ENTRIES, MACHINE, ORDERS, workers=1, run_dir=run_dir, resume=True
        )
        assert resumed.complete
        assert resumed.manifest is not None
        assert resumed.manifest.resumed_cells == 6
        assert all(cell.resumed for cell in resumed.manifest.cells)
        assert_bit_identical(resumed, order_sweep(ENTRIES, MACHINE, ORDERS))
        meta = RunStore(run_dir).load_meta()
        assert meta is not None
        assert meta["resumes"] == 1

    def test_resume_requires_run_dir(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="resume"):
            parallel_order_sweep(ENTRIES, MACHINE, [4], workers=1, resume=True)

    def test_resume_reruns_failed_cells(self, tmp_path):
        # First run: one cell fails terminally (error fault, no retries
        # left).  Resume without the fault: only that cell re-runs.
        run_dir = tmp_path / "run"
        label = "shared-opt ideal"
        first = parallel_order_sweep(
            ENTRIES,
            MACHINE,
            ORDERS,
            workers=1,
            chunksize=1,
            retries=0,
            run_dir=run_dir,
            fault_plan={(label, 1): FaultSpec(kind="error")},
        )
        assert not first.complete
        assert [(r.label, r.x) for r in first.failures] == [(label, 6)]
        resumed = parallel_order_sweep(
            ENTRIES, MACHINE, ORDERS, workers=1, run_dir=run_dir, resume=True
        )
        assert resumed.complete
        assert resumed.manifest is not None
        assert resumed.manifest.resumed_cells == 5
        assert_bit_identical(resumed, order_sweep(ENTRIES, MACHINE, ORDERS))


class TestKillAndResume:
    CHILD = textwrap.dedent(
        """
        from repro.model.machine import MulticoreMachine
        from repro.sim.faults import FaultSpec
        from repro.sim.parallel import parallel_order_sweep

        machine = MulticoreMachine(p=4, cs=100, cd=21, q=8)
        parallel_order_sweep(
            [("shared-opt", "ideal"), ("outer-product", "lru")],
            machine,
            [4, 6, 8],
            workers=1,
            chunksize=1,
            run_dir={run_dir!r},
            # The last cell hangs forever: the child is guaranteed to be
            # alive, mid-sweep, with every earlier cell checkpointed.
            fault_plan={{("outer-product lru", 2): FaultSpec(kind="hang")}},
        )
        """
    )

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        run_dir = tmp_path / "run"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        child = subprocess.Popen(
            [sys.executable, "-c", self.CHILD.format(run_dir=str(run_dir))],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            # Its own process group, so the kill below also takes down
            # the pool worker stuck in the hang fault.
            start_new_session=True,
        )
        try:
            # Wait until the five non-hanging cells are all checkpointed.
            checkpoint = run_dir / "checkpoint.jsonl"
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    pytest.fail("child sweep exited before it was killed")
                if (
                    checkpoint.exists()
                    and len(RunStore(run_dir).load_checkpoint().ok_records()) >= 5
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("child never checkpointed its first five cells")
            # SIGKILL: no handlers, no flushes, no mercy
            os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait(timeout=30)

        audit = RunStore(run_dir).audit()
        assert audit.ok  # torn tail at worst — never corruption
        assert len(audit.checkpoint.ok_records()) >= 5

        resumed = parallel_order_sweep(
            ENTRIES, MACHINE, ORDERS, workers=1, run_dir=run_dir, resume=True
        )
        assert resumed.complete
        assert resumed.manifest is not None
        assert resumed.manifest.resumed_cells >= 5
        recomputed = 6 - resumed.manifest.resumed_cells
        assert recomputed >= 1  # the hung cell never reached the log
        assert resumed.manifest.counts() == {"ok": 6, "failed": 0, "skipped": 0}
        assert_bit_identical(resumed, order_sweep(ENTRIES, MACHINE, ORDERS))
        # The run directory now audits clean end to end.
        final = RunStore(run_dir).audit()
        assert final.ok
        meta = RunStore(run_dir).load_meta()
        assert meta is not None
        assert meta["status"] == STATUS_COMPLETE


class TestResumeProperty:
    @given(keep=st.integers(min_value=0, max_value=6))
    @settings(max_examples=6, deadline=None)
    def test_any_checkpoint_prefix_resumes_bit_identical(self, keep):
        # Property: whatever prefix of the checkpoint survives a crash,
        # resuming completes the sweep with results bit-identical to an
        # uninterrupted serial run.  (TemporaryDirectory, not tmp_path:
        # function-scoped fixtures don't reset across hypothesis examples.)
        serial = order_sweep(ENTRIES, MACHINE, ORDERS)
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp) / "run"
            parallel_order_sweep(
                ENTRIES, MACHINE, ORDERS, workers=1, chunksize=1, run_dir=run_dir
            )
            checkpoint = run_dir / "checkpoint.jsonl"
            lines = checkpoint.read_text().splitlines(keepends=True)
            assert len(lines) == 6
            checkpoint.write_text("".join(lines[:keep]))
            resumed = parallel_order_sweep(
                ENTRIES, MACHINE, ORDERS, workers=1, run_dir=run_dir, resume=True
            )
            assert resumed.complete
            assert resumed.manifest is not None
            assert resumed.manifest.resumed_cells == keep
            assert_bit_identical(resumed, serial)


class TestCorruptionRecompute:
    def test_quarantined_cell_recomputed_exactly(self, tmp_path):
        run_dir = tmp_path / "run"
        parallel_order_sweep(
            ENTRIES, MACHINE, ORDERS, workers=1, chunksize=1, run_dir=run_dir
        )
        checkpoint = run_dir / "checkpoint.jsonl"
        lines = checkpoint.read_text().splitlines()
        record = json.loads(lines[2])
        record["attempts"] = 99  # flip a field without resealing
        lines[2] = json.dumps(record, separators=(",", ":"))
        checkpoint.write_text("\n".join(lines) + "\n")

        audit = RunStore(run_dir).audit()
        assert not audit.ok
        assert any("checksum mismatch" in e for e in audit.errors)

        resumed = parallel_order_sweep(
            ENTRIES, MACHINE, ORDERS, workers=1, run_dir=run_dir, resume=True
        )
        assert resumed.complete
        assert resumed.manifest is not None
        assert resumed.manifest.quarantined_records == 1
        assert resumed.manifest.resumed_cells == 5  # all but the bad record
        assert_bit_identical(resumed, order_sweep(ENTRIES, MACHINE, ORDERS))
        # The recompute re-appended a sealed record: the log audits clean.
        assert RunStore(run_dir).audit().ok


class TestGracefulSignals:
    def test_sigterm_drains_flushes_and_resumes(self, tmp_path):
        run_dir = tmp_path / "run"
        label = "outer-product lru"
        timer = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            sweep = parallel_order_sweep(
                ENTRIES,
                MACHINE,
                ORDERS,
                workers=1,
                chunksize=1,
                run_dir=run_dir,
                drain_grace_s=0.5,
                # One cell hangs: the signal always lands mid-sweep.
                fault_plan={(label, 2): FaultSpec(kind="hang")},
            )
        finally:
            timer.cancel()
        assert sweep.interrupted == "SIGTERM"
        assert not sweep.complete
        assert sweep.manifest is not None
        assert sweep.manifest.interrupted == "SIGTERM"
        counts = sweep.manifest.counts()
        assert counts["ok"] >= 1  # pre-signal cells were checkpointed
        assert counts["ok"] + counts["failed"] + counts["skipped"] == 6
        interrupted = [
            c for c in sweep.manifest.cells if c.error_type == "Interrupted"
        ]
        assert interrupted  # undispatched cells are explicitly skipped

        store = RunStore(run_dir)
        meta = store.load_meta()
        assert meta is not None
        assert meta["status"] == STATUS_INTERRUPTED
        assert store.manifest_path.exists()  # partial manifest was written

        resumed = parallel_order_sweep(
            ENTRIES, MACHINE, ORDERS, workers=1, run_dir=run_dir, resume=True
        )
        assert resumed.complete
        assert resumed.manifest is not None
        assert resumed.manifest.resumed_cells == counts["ok"]
        assert_bit_identical(resumed, order_sweep(ENTRIES, MACHINE, ORDERS))


class TestEngineAgnosticFingerprints:
    def test_resume_across_engines_replays_checkpoints(self, tmp_path):
        """A run checkpointed under one engine resumes under the other.

        Cell fingerprints exclude the engine knob (counters are
        bit-identical by contract), so switching engines must not force
        any recomputation — the resumed sweep replays every cell.  The
        sweep has no engine knob; each entry's params ask for replay.
        """
        run_dir = tmp_path / "run"
        parallel_order_sweep(
            [(algorithm, setting, {"engine": "replay"}) for algorithm, setting in ENTRIES],
            MACHINE,
            ORDERS,
            workers=1,
            run_dir=run_dir,
        )
        resumed = parallel_order_sweep(
            ENTRIES, MACHINE, ORDERS, workers=1, run_dir=run_dir, resume=True
        )
        assert resumed.manifest.resumed_cells == len(ENTRIES) * len(ORDERS)
        assert {
            result.engine for results in resumed.series.values() for result in results
        } == {"replay"}
        serial = order_sweep(ENTRIES, MACHINE, ORDERS)
        assert_bit_identical(resumed, serial)
