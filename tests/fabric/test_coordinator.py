"""Coordinator state machine, driven through ``handle()`` — no sockets.

The TCP layer is a thin shell around :meth:`Coordinator.handle`; these
tests call it directly with an injected clock, so every lease expiry
and backoff promotion is deterministic.  The crash/restart tests
simulate a SIGKILL at the storage level: the run directory is abandoned
mid-flight (no stop event, no terminals, ``run.json`` left
``running``) and a second coordinator resumes against it.
"""

import os
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.coordinator import fabric_order_sweep
from repro.fabric.journal import load_journal
from repro.model.machine import MulticoreMachine
from repro.sim.runner import run_experiment
from repro.sim.sweep import order_sweep
from repro.store import RunStore
from repro.store.serde import machine_from_dict, result_to_dict

MACHINE = MulticoreMachine(p=4, cs=100, cd=21, q=8)
ENTRIES = [("shared-opt", "ideal")]
ORDERS = [4, 6]


class Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def build(run_dir, clock, *, entries=ENTRIES, orders=ORDERS, resume=False,
          lease_s=10.0, retries=2, backoff=0.01):
    """A prepared coordinator with no server/ticker threads running."""
    coordinator = fabric_order_sweep(
        entries,
        MACHINE,
        orders,
        run_dir=run_dir,
        resume=resume,
        lease_s=lease_s,
        retries=retries,
        backoff=backoff,
    )
    coordinator.clock = clock
    coordinator.leases.clock = clock
    coordinator._started_at = time.perf_counter()
    coordinator._open()
    return coordinator


def abandon(coordinator):
    """Simulate a coordinator SIGKILL at the storage level.

    No terminals, no stop event, ``run.json`` left ``running`` — the
    run directory looks exactly as a killed coordinator leaves it.
    """
    coordinator.ledger.writer.close()
    coordinator.journal.close()


def ok_message(grant, worker):
    cell = grant["cell"]
    machine = machine_from_dict(cell["machine"])
    result = run_experiment(
        cell["algorithm"], machine, cell["m"], cell["n"], cell["z"],
        cell["setting"], **cell["kwargs"],
    )
    result.attempts = grant["attempt"]
    return {
        "type": "result",
        "worker": worker,
        "fp": grant["fp"],
        "attempt": grant["attempt"],
        "pid": os.getpid(),
        "cell": {"label": cell["label"], "index": cell["index"], "x": cell["x"]},
        "ok": True,
        "result": result_to_dict(result),
        "wall_s": 0.001,
    }


def fail_message(grant, worker, *, retryable=True, error_type="Boom"):
    cell = grant["cell"]
    return {
        "type": "result",
        "worker": worker,
        "fp": grant["fp"],
        "attempt": grant["attempt"],
        "pid": os.getpid(),
        "cell": {"label": cell["label"], "index": cell["index"], "x": cell["x"]},
        "ok": False,
        "error_type": error_type,
        "error": "injected",
        "retryable": retryable,
        "wall_s": 0.001,
    }


def drain(coordinator, clock, worker="w1", bound=200):
    """Lease+complete until drained; returns how many cells this ran."""
    ran = 0
    for _ in range(bound):
        reply = coordinator.handle({"type": "lease", "worker": worker})
        kind = reply["type"]
        if kind == "drained":
            return ran
        if kind == "wait":
            clock.now += reply["delay_s"] + 0.01
            coordinator.tick()
            continue
        assert kind == "grant"
        coordinator.handle(ok_message(reply, worker))
        ran += 1
    raise AssertionError("queue failed to drain")


class TestHappyPath:
    def test_serves_every_cell_once_matches_serial(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock)
        assert drain(coordinator, clock) == len(ORDERS)
        sweep = coordinator.finish()
        assert sweep.complete
        serial = order_sweep(ENTRIES, MACHINE, ORDERS)
        for label in serial.labels():
            assert sweep.values(label, "ms") == serial.values(label, "ms")
        replay = load_journal(RunStore(tmp_path / "run").journal_path)
        assert replay.exactly_once()
        assert len(replay.terminal) == len(ORDERS)
        stats = sweep.manifest.fabric
        assert stats.leases_granted == len(ORDERS)
        assert stats.results_accepted == len(ORDERS)
        assert stats.expired_leases == 0

    def test_wait_when_everything_is_leased(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock)
        grants = []
        for worker in ("w1", "w2"):
            reply = coordinator.handle({"type": "lease", "worker": worker})
            assert reply["type"] == "grant"
            grants.append(reply)
        reply = coordinator.handle({"type": "lease", "worker": "w3"})
        assert reply["type"] == "wait"
        assert reply["delay_s"] > 0
        for grant, worker in zip(grants, ("w1", "w2")):
            coordinator.handle(ok_message(grant, worker))
        assert coordinator.handle({"type": "lease", "worker": "w3"})["type"] == "drained"
        assert coordinator.finish().complete

    def test_status_snapshot(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock)
        status = coordinator.handle({"type": "status"})
        assert status["outstanding"] == len(ORDERS)
        assert status["leased"] == 0
        assert not status["done"]
        coordinator.finish()

    def test_malformed_requests_get_error_replies(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock)
        assert coordinator.handle({"type": "lease"})["type"] == "error"
        assert coordinator.handle({"type": "nonsense"})["type"] == "error"
        reply = coordinator.handle(
            {"type": "result", "worker": "w1", "fp": "no-such", "attempt": 1}
        )
        assert reply["type"] == "error"
        coordinator.finish()


class TestGrantWithResult:
    """A ``result`` that asks for the worker's next cell (``next``) gets
    its grant in the ``accepted`` reply: one round trip per cell."""

    def test_accepted_reply_carries_the_next_grant(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock, orders=[4, 6, 8])
        first = coordinator.handle({"type": "lease", "worker": "w1"})
        reply = coordinator.handle({**ok_message(first, "w1"), "next": True})
        assert reply["type"] == "accepted"
        assert reply["remaining"] == 2
        grant = reply["grant"]
        assert grant["type"] == "grant"
        assert grant["fp"] != first["fp"]
        assert grant["attempt"] == 1
        assert set(grant) == set(first)
        assert coordinator.leases.get(grant["fp"]).worker == "w1"
        assert coordinator.fabric.leases_granted == 2
        coordinator.finish()

    def test_journal_records_terminal_before_grant(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock, orders=[4, 6])
        first = coordinator.handle({"type": "lease", "worker": "w1"})
        grant = coordinator.handle({**ok_message(first, "w1"), "next": True})["grant"]
        coordinator.finish()
        events = [
            (e["event"], e["fp"])
            for e in load_journal(RunStore(tmp_path / "run").journal_path).events
        ]
        assert events.index(("terminal", first["fp"])) < events.index(
            ("grant", grant["fp"])
        )

    def test_failure_and_duplicate_replies_carry_no_grant(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock, orders=[4, 6, 8], lease_s=5.0)
        first = coordinator.handle({"type": "lease", "worker": "w1"})
        failed = coordinator.handle({**fail_message(first, "w1"), "next": True})
        assert failed["type"] == "accepted" and failed["retrying"]
        assert "grant" not in failed
        # A stale result for a finished cell is a duplicate: no grant.
        second = coordinator.handle({"type": "lease", "worker": "w2"})
        coordinator.handle(ok_message(second, "w2"))
        duplicate = coordinator.handle({**ok_message(second, "w3"), "next": True})
        assert duplicate["type"] == "duplicate"
        assert "grant" not in duplicate
        assert coordinator.fabric.leases_granted == 2
        coordinator.finish()

    def test_no_grant_unless_asked_or_servable(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock, orders=[4, 6, 8])
        first = coordinator.handle({"type": "lease", "worker": "w1"})
        # A worker that does not ask would never run a granted cell.
        assert "grant" not in coordinator.handle(ok_message(first, "w1"))
        second = coordinator.handle({"type": "lease", "worker": "w1"})
        third = coordinator.handle({"type": "lease", "worker": "w2"})
        # The one remaining cell is leased to w2: nothing to hand out.
        reply = coordinator.handle({**ok_message(second, "w1"), "next": True})
        assert reply["remaining"] == 1
        assert "grant" not in reply
        # The last result drains the queue: nothing to hand out either.
        reply = coordinator.handle({**ok_message(third, "w2"), "next": True})
        assert reply == {"type": "accepted", "remaining": 0}
        assert coordinator.fabric.leases_granted == 3
        assert coordinator.finish().complete

    def test_worker_runs_granted_cells_without_lease_requests(self, tmp_path):
        from repro.fabric.worker import EXIT_DRAINED, FabricWorker

        clock = Clock()
        coordinator = build(tmp_path / "run", clock, orders=[4, 6, 8])
        kinds = []

        def request(message):
            kinds.append(message["type"])
            return coordinator.handle(message)

        worker = FabricWorker(("127.0.0.1", 0), worker_id="w1")
        worker._request = request
        assert worker.run() == EXIT_DRAINED
        assert kinds == ["lease", "result", "result", "result"]
        sweep = coordinator.finish()
        assert sweep.complete
        assert sweep.manifest.fabric.leases_granted == 3

    def test_worker_without_a_grant_falls_back_to_a_lease(self, tmp_path):
        from repro.fabric.worker import EXIT_DRAINED, FabricWorker

        clock = Clock()
        coordinator = build(tmp_path / "run", clock, orders=[4, 6])
        held = coordinator.handle({"type": "lease", "worker": "w2"})
        kinds = []

        def request(message):
            kinds.append(message["type"])
            if kinds == ["lease", "result", "lease"]:
                # w2 finishes its cell while w1 asks for work.
                coordinator.handle(ok_message(held, "w2"))
            return coordinator.handle(message)

        worker = FabricWorker(("127.0.0.1", 0), worker_id="w1")
        worker._request = request
        assert worker.run() == EXIT_DRAINED
        assert kinds == ["lease", "result", "lease"]
        assert coordinator.finish().complete


class TestLeaseExpiry:
    def test_expired_lease_requeues_within_budget(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock, orders=[4], lease_s=10.0)
        grant = coordinator.handle({"type": "lease", "worker": "w1"})
        assert grant["attempt"] == 1
        # Heartbeats keep it alive...
        clock.now = 9.0
        assert coordinator.handle(
            {"type": "heartbeat", "worker": "w1", "fp": grant["fp"]}
        )["renewed"]
        # ...until the worker goes silent past the renewed deadline.
        clock.now = 19.5
        coordinator.tick()
        assert coordinator.fabric.expired_leases == 1
        # Backoff, then the cell is re-leased as attempt 2.
        clock.now += 1.0
        regrant = coordinator.handle({"type": "lease", "worker": "w2"})
        assert regrant["type"] == "grant"
        assert regrant["attempt"] == 2
        assert regrant["fp"] == grant["fp"]
        coordinator.handle(ok_message(regrant, "w2"))
        sweep = coordinator.finish()
        assert sweep.complete
        replay = load_journal(RunStore(tmp_path / "run").journal_path)
        assert replay.expired == 1
        assert replay.exactly_once()

    def test_late_result_from_expired_worker(self, tmp_path):
        """The stalled worker finishes after its lease expired and the
        cell was re-leased: first submission wins, second is a journaled
        duplicate — exactly one terminal either way."""
        clock = Clock()
        coordinator = build(tmp_path / "run", clock, orders=[4], lease_s=5.0)
        stale = coordinator.handle({"type": "lease", "worker": "w1"})
        clock.now = 6.0
        coordinator.tick()  # w1's lease expires
        clock.now += 1.0
        fresh = coordinator.handle({"type": "lease", "worker": "w2"})
        assert fresh["attempt"] == 2
        # The stalled worker wakes up and submits first.
        assert coordinator.handle(ok_message(stale, "w1"))["type"] == "accepted"
        # The re-leased attempt finishes later: duplicate, ignored.
        assert coordinator.handle(ok_message(fresh, "w2"))["type"] == "duplicate"
        sweep = coordinator.finish()
        assert sweep.complete
        assert sweep.manifest.fabric.duplicate_results == 1
        replay = load_journal(RunStore(tmp_path / "run").journal_path)
        assert replay.duplicates == 1
        assert replay.exactly_once()

    def test_expiry_exhausts_retry_budget(self, tmp_path):
        clock = Clock()
        coordinator = build(
            tmp_path / "run", clock, orders=[4], lease_s=5.0, retries=1
        )
        for expected_attempt in (1, 2):
            grant = coordinator.handle({"type": "lease", "worker": "w1"})
            while grant["type"] == "wait":
                clock.now += grant["delay_s"] + 0.01
                coordinator.tick()
                grant = coordinator.handle({"type": "lease", "worker": "w1"})
            assert grant["attempt"] == expected_attempt
            clock.now += 6.0
            coordinator.tick()  # never heartbeats: expire
        sweep = coordinator.finish()
        assert not sweep.complete
        failure = sweep.failures[0]
        assert failure.status == "failed"
        assert failure.error_type == "LeaseExpired"
        replay = load_journal(RunStore(tmp_path / "run").journal_path)
        assert replay.expired == 2
        assert replay.terminal[grant["fp"]] == "failed"
        assert replay.exactly_once()


class TestRetries:
    def test_retryable_failure_backs_off_then_succeeds(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock, orders=[4], retries=2)
        grant = coordinator.handle({"type": "lease", "worker": "w1"})
        reply = coordinator.handle(fail_message(grant, "w1"))
        assert reply == {"type": "accepted", "retrying": True, "remaining": 1}
        # Before the backoff elapses the cell is not served.
        assert coordinator.handle({"type": "lease", "worker": "w1"})["type"] == "wait"
        clock.now += 1.0
        regrant = coordinator.handle({"type": "lease", "worker": "w1"})
        assert regrant["attempt"] == 2
        coordinator.handle(ok_message(regrant, "w1"))
        sweep = coordinator.finish()
        assert sweep.complete
        record = next(c for c in sweep.manifest.cells if c.index == 0)
        assert record.attempts == 2
        assert sweep.manifest.fabric.retried_failures == 1

    def test_permanent_failure_is_terminal_on_first_attempt(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock, orders=[4], retries=5)
        grant = coordinator.handle({"type": "lease", "worker": "w1"})
        reply = coordinator.handle(
            fail_message(grant, "w1", retryable=False, error_type="ScheduleError")
        )
        assert reply == {"type": "accepted", "retrying": False, "remaining": 0}
        sweep = coordinator.finish()
        assert not sweep.complete
        assert sweep.failures[0].attempts == 1
        assert sweep.failures[0].error_type == "ScheduleError"

    def test_retry_budget_exhaustion_checkpoints_failure(self, tmp_path):
        clock = Clock()
        coordinator = build(tmp_path / "run", clock, orders=[4], retries=1)
        for _attempt in (1, 2):
            grant = coordinator.handle({"type": "lease", "worker": "w1"})
            while grant["type"] == "wait":
                clock.now += grant["delay_s"] + 0.01
                grant = coordinator.handle({"type": "lease", "worker": "w1"})
            coordinator.handle(fail_message(grant, "w1"))
        coordinator.finish()
        store = RunStore(tmp_path / "run")
        loaded = store.load_checkpoint()
        record = next(iter(loaded.records.values()))
        assert record["status"] == "failed"
        assert record["attempts"] == 2
        assert record["error_type"] == "Boom"


class TestCrashRestart:
    def test_restart_restores_terminals_and_expires_open_grants(self, tmp_path):
        run_dir = tmp_path / "run"
        clock = Clock()
        first = build(run_dir, clock, orders=[4, 6], lease_s=10.0)
        done = first.handle({"type": "lease", "worker": "w1"})
        first.handle(ok_message(done, "w1"))        # cell 0: terminal ok
        first.handle({"type": "lease", "worker": "w2"})  # cell 1: in flight
        abandon(first)                              # SIGKILL

        second = build(run_dir, Clock(), orders=[4, 6], resume=True)
        # The completed cell came back from the checkpoint, not a re-run.
        assert second.manifest.resumed_cells == 1
        assert len(second.outstanding) == 1
        # The in-flight grant was expired and requeued as attempt 2.
        regrant = second.handle({"type": "lease", "worker": "w3"})
        while regrant["type"] == "wait":
            second.clock.now += regrant["delay_s"] + 0.01
            regrant = second.handle({"type": "lease", "worker": "w3"})
        assert regrant["type"] == "grant"
        assert regrant["attempt"] == 2
        second.handle(ok_message(regrant, "w3"))
        sweep = second.finish()
        assert sweep.complete
        replay = load_journal(RunStore(run_dir).journal_path)
        assert replay.exactly_once()
        assert len(replay.terminal) == 2
        assert all(s == "ok" for s in replay.terminal.values())
        events = [e["event"] for e in replay.events]
        assert "expire" in events
        expire = next(e for e in replay.events if e["event"] == "expire")
        assert expire["reason"] == "coordinator-restart"
        # Counters carried over: the whole run's story, not one incarnation's.
        assert sweep.manifest.fabric.expired_leases == 1
        assert sweep.manifest.fabric.leases_granted == 3

    def test_crash_between_checkpoint_and_journal_terminal(self, tmp_path):
        """The checkpoint append lands, the journal terminal does not
        (SIGKILL between the two writes): the restart re-emits the
        terminal flagged ``resumed`` — never a lost or doubled cell."""
        run_dir = tmp_path / "run"
        clock = Clock()
        first = build(run_dir, clock, orders=[4])
        grant = first.handle({"type": "lease", "worker": "w1"})
        real_event = first.journal.event
        first.journal.event = lambda event, fp="-", **fields: (
            None if event == "terminal" else real_event(event, fp, **fields)
        )
        first.handle(ok_message(grant, "w1"))  # checkpoint lands, terminal lost
        first.journal.event = real_event
        abandon(first)

        replay = load_journal(RunStore(run_dir).journal_path)
        assert replay.terminal == {}  # the crash window really was simulated

        second = build(run_dir, Clock(), orders=[4], resume=True)
        # Nothing left to serve: the checkpoint restored the cell.
        assert second.handle({"type": "lease", "worker": "w2"})["type"] == "drained"
        sweep = second.finish()
        assert sweep.complete
        replay = load_journal(RunStore(run_dir).journal_path)
        assert replay.exactly_once()
        assert replay.terminal == {grant["fp"]: "ok"}
        terminal = next(e for e in replay.events if e["event"] == "terminal")
        assert terminal.get("resumed") is True

    def test_restart_does_not_rerun_terminal_failures(self, tmp_path):
        """Fabric resume restores failed cells too: re-running one
        would double its journal terminal."""
        run_dir = tmp_path / "run"
        clock = Clock()
        first = build(run_dir, clock, orders=[4], retries=0)
        grant = first.handle({"type": "lease", "worker": "w1"})
        first.handle(fail_message(grant, "w1"))  # terminal failed
        abandon(first)

        second = build(run_dir, Clock(), orders=[4], resume=True, retries=0)
        assert second.handle({"type": "lease", "worker": "w2"})["type"] == "drained"
        sweep = second.finish()
        assert not sweep.complete
        replay = load_journal(RunStore(run_dir).journal_path)
        assert replay.exactly_once()
        assert replay.terminal == {grant["fp"]: "failed"}


OPS = ("lease_a", "lease_b", "ok", "fail", "dup", "advance", "tick")


class TestExactlyOnceProperty:
    @given(ops=st.lists(st.sampled_from(OPS), max_size=25))
    @settings(max_examples=20, deadline=None)
    def test_any_interleaving_yields_one_terminal_per_cell(self, ops):
        with tempfile.TemporaryDirectory() as td:
            run_dir = Path(td) / "run"
            clock = Clock()
            coordinator = build(run_dir, clock, orders=[4, 6], lease_s=3.0,
                                retries=2)
            in_flight = []
            last_message = None
            for op in ops:
                if op in ("lease_a", "lease_b"):
                    worker = "wA" if op == "lease_a" else "wB"
                    reply = coordinator.handle({"type": "lease", "worker": worker})
                    if reply["type"] == "grant":
                        in_flight.append((reply, worker))
                elif op in ("ok", "fail") and in_flight:
                    grant, worker = in_flight.pop(0)
                    message = (
                        ok_message(grant, worker)
                        if op == "ok"
                        else fail_message(grant, worker)
                    )
                    coordinator.handle(message)
                    last_message = message
                elif op == "dup" and last_message is not None:
                    coordinator.handle(last_message)
                elif op == "advance":
                    clock.now += 1.1
                elif op == "tick":
                    coordinator.tick()
            drain(coordinator, clock, worker="wA")
            sweep = coordinator.finish()
            replay = load_journal(RunStore(run_dir).journal_path)
            assert replay.exactly_once()
            assert set(replay.terminal) == set(
                coordinator.fingerprints.values()
            )
            counts = sweep.manifest.counts()
            assert counts["ok"] + counts["failed"] == 2
            assert counts["skipped"] == 0


class TestDeterminismScope:
    def test_fabric_modules_are_on_the_determinism_profile(self):
        """The monotonic-only waiver is enforced, not aspirational: every
        fabric module must sit on the determinism scope of the lint
        pass (wall-clock and RNG bans)."""
        import repro.fabric as fabric
        from repro.check.lint import _profile_for

        package_root = Path(fabric.__file__).resolve().parents[1]
        fabric_dir = package_root / "fabric"
        sources = sorted(fabric_dir.glob("*.py"))
        assert sources, "fabric package has no sources?"
        for source in sources:
            profile = _profile_for(source, package_root)
            assert profile.determinism, f"{source.name} escaped the scope"

    def test_fabric_sources_scan_clean(self):
        """Zero determinism/purity findings over the fabric package —
        the waiver check the issue demands."""
        import repro.fabric as fabric
        from repro.check.lint import run_lint

        fabric_dir = Path(fabric.__file__).resolve().parent
        findings = run_lint(paths=sorted(fabric_dir.glob("*.py")))
        assert findings == []


class TestDrainWithSockets:
    def test_served_over_tcp_end_to_end(self, tmp_path):
        """One real worker loop over the real socket layer."""
        from repro.fabric.worker import EXIT_DRAINED, FabricWorker

        coordinator = fabric_order_sweep(
            ENTRIES, MACHINE, ORDERS, run_dir=tmp_path / "run", lease_s=5.0
        )
        address = coordinator.start()
        try:
            worker = FabricWorker(address, worker_id="w1")
            assert worker.run() == EXIT_DRAINED
        finally:
            sweep = coordinator.finish()
        assert sweep.complete
        serial = order_sweep(ENTRIES, MACHINE, ORDERS)
        for label in serial.labels():
            assert sweep.values(label, "ms") == serial.values(label, "ms")
        assert sweep.manifest.fabric.heartbeats >= 0
