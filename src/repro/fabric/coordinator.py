"""The fabric coordinator: a durable, lease-based cell queue.

The coordinator owns everything the pool engine's dispatch loop owns —
which cells remain, which attempt each is on, when a failure retries —
but across process boundaries and through its own death:

* **Durable queue** — the cell set, fingerprints and per-cell outcomes
  live in a :class:`~repro.sim.ledger.CellLedger` over a
  :class:`~repro.store.RunStore` run directory, the same books the pool
  engine keeps.  Every finalized cell is appended to the checkpoint log
  *before* the journal records its terminal event, so the checkpoint
  stays the source of truth and a crash between the two writes is
  healed on restart (the journal terminal is re-emitted, flagged
  ``resumed``).
* **Leases, not assignments** — a granted cell belongs to its worker
  only while heartbeats renew the monotonic-deadline lease
  (:mod:`repro.fabric.leases`).  The periodic tick re-queues expired
  leases within the retry budget, with the shared jittered backoff
  (:class:`~repro.sim.retrypolicy.BackoffPolicy`).
* **Crash-proof restart** — ``resume=True`` reloads ``ok`` *and*
  ``failed`` cells from the checkpoint (both are terminal for the
  fabric: re-running a terminally failed cell would double its journal
  terminal), replays the journal for accounting, journals an ``expire``
  for every grant that died with the previous coordinator, and serves
  only the rest.  Fingerprint dedup makes any worker-side re-execution
  idempotent.
* **At-most-one live lease per cell; exactly one terminal event** — a
  late result from a stalled worker whose cell was re-leased is either
  the first terminal (accepted; the newer lease is released unused) or
  a journaled ``duplicate`` (ignored).

* **One round trip per cell** — a ``result`` request may ask for the
  worker's next cell (``next``); the ``accepted`` reply to a successful
  result then carries that cell's grant, journaled after the finished
  cell's terminal event.

The TCP layer is deliberately thin: a threaded accept loop reads one
sealed line, calls :meth:`Coordinator.handle` under the state lock and
writes one sealed line back.  Tests drive :meth:`handle` directly.  A
child forked from the coordinator's process never keeps the listening
socket open (see :func:`_close_inherited_listeners`).
"""

from __future__ import annotations

import os
import selectors
import socket
import socketserver
import threading
import time
import weakref
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.exceptions import ConfigurationError, ProtocolError
from repro.model.machine import MulticoreMachine
from repro.sim.ledger import CellId, CellLedger, SweepPlan, order_plan
from repro.sim.results import SweepResult
from repro.sim.sweep import Entry
from repro.sim.telemetry import STATUS_FAILED, STATUS_OK, STATUS_SKIPPED, FabricStats
from repro.store.rundir import RunStore
from repro.store.serde import (
    machine_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.fabric.journal import (
    EVENT_DUPLICATE,
    EVENT_EXPIRE,
    EVENT_GRANT,
    EVENT_RETRY,
    EVENT_START,
    EVENT_STOP,
    EVENT_TERMINAL,
    FabricJournal,
    JournalReplay,
    load_journal,
)
from repro.fabric.leases import LeaseTable
from repro.fabric.protocol import encode_line, error_reply, read_message

#: How long an idle worker is told to wait before asking again when
#: every remaining cell is leased or backing off.
_DEFAULT_WAIT_S = 0.5


class Coordinator:
    """Serve one sweep's cells over leases until every cell is terminal.

    The lease transport only: the cell books (records, retry budget,
    checkpoint, manifest) live in :attr:`ledger`.
    """

    def __init__(
        self,
        plan: SweepPlan,
        *,
        run_dir: Union[str, Path],
        resume: bool = False,
        lease_s: float = 15.0,
        retries: int = 2,
        backoff: float = 0.1,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_s <= 0:
            raise ConfigurationError(f"lease_s must be positive, got {lease_s}")
        self.plan = plan
        self.store = RunStore(run_dir)
        # Fabric resume also restores ``failed`` cells: each already
        # has its journal terminal, and re-running one would emit a
        # second, breaking the exactly-once invariant.
        self.ledger = CellLedger(
            plan,
            retries=retries,
            backoff=backoff,
            store=self.store,
            resume=resume,
            restore_failed=True,
            encode=result_to_dict,
            decode=result_from_dict,
        )
        self.records = self.ledger.records
        self.outstanding = self.ledger.outstanding
        self.fingerprints = self.ledger.fingerprints
        self.manifest = self.ledger.manifest
        self.manifest.fabric = FabricStats()
        self.lease_s = lease_s
        self.host = host
        self.port = port
        self.clock = clock

        self.cells = {cell[:2]: cell for cell in plan.cells}
        self.fp_to_key = {fp: key for key, fp in self.fingerprints.items()}
        #: Next attempt number to grant, per cell.
        self.attempts: Dict[CellId, int] = {key: 1 for key in self.cells}
        self.pending: Deque[CellId] = deque(sorted(self.outstanding))
        #: Cells waiting out a backoff: (monotonic ready time, key).
        self.delayed: List[Tuple[float, CellId]] = []
        self.leases = LeaseTable(lease_s, clock=clock)
        self.workers_seen: Set[str] = set()
        self.workers_lost: Set[str] = set()

        self.journal: Optional[FabricJournal] = None
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._stop_ticker = threading.Event()
        self._server: Optional["_FabricServer"] = None
        self._server_thread: Optional[threading.Thread] = None
        self._ticker_thread: Optional[threading.Thread] = None
        self._started_at = 0.0

    @property
    def fabric(self) -> FabricStats:
        stats = self.manifest.fabric
        assert stats is not None
        return stats

    # -- lifecycle ------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Open the store, restore state, start serving; returns (host, port)."""
        self._started_at = time.perf_counter()
        self._open()
        server = _FabricServer((self.host, self.port), self)
        self._server = server
        self.port = server.server_address[1]
        self._server_thread = threading.Thread(
            target=server.serve,
            name="fabric-coordinator",
            daemon=True,
        )
        self._server_thread.start()
        self._ticker_thread = threading.Thread(
            target=self._ticker, name="fabric-ticker", daemon=True
        )
        self._ticker_thread.start()
        return (self.host, self.port)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every cell is terminal; ``True`` when done."""
        return self._done.wait(timeout)

    def abort(self, reason: str) -> None:
        """Give up on every unfinished cell (recorded as ``skipped``)."""
        with self._lock:
            for key in sorted(self.outstanding):
                self.ledger.skip(key, reason, "Aborted")
                self._journal_terminal(key, STATUS_SKIPPED)
            self.pending.clear()
            self.delayed = []
            self._done.set()

    def interrupt(self, signame: str) -> None:
        """Stop early on a signal, as a store-backed pool sweep does: the
        unfinished cells are skipped as ``Interrupted`` and the run ends
        ``interrupted``.  They get no journal terminal, because a resumed
        coordinator serves them again; a leased one stays an open grant,
        which the resume expires as it would after a crash."""
        with self._lock:
            self.manifest.interrupted = signame
            for key in sorted(self.outstanding):
                self.ledger.skip(key, f"interrupted by {signame}", "Interrupted")
            self.pending.clear()
            self.delayed = []
            self._done.set()

    def finish(self) -> SweepResult:
        """Stop serving, finalize the run directory, assemble the result.

        Unfinished cells (the coordinator was asked to stop early) are
        aborted first, so the manifest always accounts for every cell.
        """
        if self.outstanding:
            self.abort("coordinator stopped before the cell ran")
        self._stop_ticker.set()
        if self._server is not None:
            self._server.stop()
        if self._server_thread is not None:
            self._server_thread.join(timeout=5.0)
            self._server_thread = None
        if self._server is not None:
            self._server.server_close()
            self._server = None
        if self._ticker_thread is not None:
            self._ticker_thread.join(timeout=5.0)
            self._ticker_thread = None
        with self._lock:
            self.manifest.workers = len(self.workers_seen)
            self.fabric.workers_seen = len(self.workers_seen)
            self.fabric.workers_lost = len(self.workers_lost)
            if self.journal is not None:
                self.journal.event(
                    EVENT_STOP,
                    complete=all(r.status == STATUS_OK for r in self.records.values()),
                )
                self.journal.close()
                self.journal = None
            return self.ledger.finish(time.perf_counter() - self._started_at)

    def _ticker(self) -> None:
        period = min(self.lease_s / 4.0, 0.25)
        while not self._stop_ticker.wait(period):
            self.tick()

    def tick(self) -> None:
        """Expire lapsed leases and requeue their cells (thread-safe)."""
        with self._lock:
            self._expire_leases()

    # -- store ----------------------------------------------------------
    def _open(self) -> None:
        """Stamp the run dir, open the journal, reconcile it on resume."""
        resumed = self.ledger.open(fabric={"lease_s": self.lease_s})
        replay = load_journal(self.store.journal_path) if resumed else None
        # Opening the journal writer repairs any torn tail left by a
        # SIGKILL'd predecessor before new events are appended.
        self.journal = FabricJournal(self.store.journal_path)
        self.journal.event(EVENT_START, resumed=resumed, cells=len(self.records))
        if replay is not None:
            self._restore_from_journal(replay)
        self._check_done()

    def _restore_from_journal(self, replay: JournalReplay) -> None:
        """Reconcile the journal with the restored checkpoint state.

        * Counters (grants/expiries/retries/duplicates) carry over, so
          the final manifest tells the whole run's story, not just the
          last incarnation's.
        * A restored terminal cell missing its journal terminal (the
          predecessor died between the checkpoint append and the
          journal append) gets it now, flagged ``resumed``.
        * A journaled grant with no terminal was in flight when the
          predecessor died: its lease died too — journal the expiry and
          charge the attempt, exactly as if the lease had lapsed.
        """
        assert self.journal is not None
        stats = self.fabric
        stats.leases_granted += replay.grants
        stats.expired_leases += replay.expired
        stats.retried_failures += replay.retries
        stats.duplicate_results += replay.duplicates
        for key in sorted(self.records):
            record = self.records[key]
            if record.resumed and self.fingerprints[key] not in replay.terminal_events:
                self._journal_terminal(key, record.status, resumed=True)
        for fp in sorted(replay.open_grants):
            key = self.fp_to_key.get(fp)
            if key is None or key not in self.outstanding:
                continue
            attempt = max(replay.granted_attempts.get(fp, 1), 1)
            self.journal.event(
                EVENT_EXPIRE,
                fp,
                worker="",
                attempt=attempt,
                reason="coordinator-restart",
            )
            stats.expired_leases += 1
            delay = self.ledger.charge(
                key, attempt, "LeaseExpired", "lease died with the previous coordinator"
            )
            self._requeue_or_fail(key, attempt, delay)

    def _journal_terminal(
        self, key: CellId, status: str, *, resumed: bool = False
    ) -> None:
        if self.journal is None:
            return
        record = self.records[key]
        fields: Dict[str, Any] = {"status": status, "attempts": record.attempts}
        if resumed:
            fields["resumed"] = True
        self.journal.event(EVENT_TERMINAL, self.fingerprints[key], **fields)

    # -- queue mechanics (call with the lock held) ----------------------
    def _promote_delayed(self) -> None:
        now = self.clock()
        due = [key for ready, key in self.delayed if ready <= now]
        self.delayed = [(ready, key) for ready, key in self.delayed if ready > now]
        for key in due:
            self.pending.append(key)

    def _next_servable(self) -> Optional[CellId]:
        self._promote_delayed()
        while self.pending:
            key = self.pending.popleft()
            if key in self.outstanding and self.leases.get(self.fingerprints[key]) is None:
                return key
        return None

    def _requeue_or_fail(
        self, key: CellId, attempt: int, delay: Optional[float]
    ) -> None:
        """Act on the ledger's verdict for a failed attempt: requeue the
        cell after ``delay``, or journal its ``failed`` terminal."""
        if delay is None:
            self._journal_terminal(key, STATUS_FAILED)
            self._check_done()
            return
        self.attempts[key] = attempt + 1
        self.delayed.append((self.clock() + delay, key))

    def _expire_leases(self) -> None:
        for lease in self.leases.pop_expired():
            self.fabric.expired_leases += 1
            self.workers_lost.add(lease.worker)
            if self.journal is not None:
                self.journal.event(
                    EVENT_EXPIRE,
                    lease.fp,
                    worker=lease.worker,
                    attempt=lease.attempt,
                    reason="lease-expired",
                )
            key = lease.key
            if key in self.outstanding:
                delay = self.ledger.charge(
                    key,
                    lease.attempt,
                    "LeaseExpired",
                    f"worker {lease.worker!r} stopped heartbeating "
                    f"(lease of {self.lease_s:.3g}s lapsed)",
                )
                self._requeue_or_fail(key, lease.attempt, delay)

    def _check_done(self) -> None:
        if not self.outstanding:
            self._done.set()

    # -- protocol handling ----------------------------------------------
    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Process one request message; returns the reply message."""
        kind = message.get("type")
        with self._lock:
            worker = message.get("worker")
            if isinstance(worker, str) and worker:
                self.workers_seen.add(worker)
            if kind == "lease":
                return self._handle_lease(message)
            if kind == "heartbeat":
                return self._handle_heartbeat(message)
            if kind == "result":
                return self._handle_result(message)
            if kind == "status":
                return self._handle_status()
        return error_reply(f"unknown message type {kind!r}")

    def _handle_lease(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = message.get("worker")
        if not isinstance(worker, str) or not worker:
            return error_reply("lease request without a worker id")
        if not self.outstanding:
            return {"type": "drained"}
        grant = self._grant_next(worker)
        if grant is None:
            return {"type": "wait", "delay_s": self._wait_hint()}
        return grant

    def _grant_next(self, worker: str) -> Optional[Dict[str, Any]]:
        """Lease the next servable cell to ``worker``; its ``grant``
        message, or ``None`` when every remaining cell is leased or
        backing off."""
        key = self._next_servable()
        if key is None:
            return None
        attempt = self.attempts[key]
        fp = self.fingerprints[key]
        # Journal the grant *before* the lease exists: a coordinator
        # killed between the two leaves a journaled open grant, which a
        # restart expires and requeues — never a silently lost cell.
        if self.journal is not None:
            self.journal.event(EVENT_GRANT, fp, worker=worker, attempt=attempt)
        self.leases.grant(key, fp, worker, attempt)
        self.fabric.leases_granted += 1
        algorithm, setting, kwargs = self.plan.entries[key[0]]
        label, index, machine, m, n, z = self.cells[key]
        return {
            "type": "grant",
            "fp": fp,
            "attempt": attempt,
            "lease_s": self.lease_s,
            "cell": {
                "label": label,
                "index": index,
                "variable": self.plan.variable,
                "x": self.plan.xs[index],
                "algorithm": algorithm,
                "setting": setting,
                "kwargs": dict(kwargs),
                "machine": machine_to_dict(self.plan.machines[machine]),
                "m": m,
                "n": n,
                "z": z,
            },
        }

    def _wait_hint(self) -> float:
        """How long an idle worker should wait before asking again."""
        hint = min(self.lease_s / 4.0, _DEFAULT_WAIT_S)
        if self.delayed:
            now = self.clock()
            next_ready = min(ready for ready, _key in self.delayed)
            hint = min(hint, max(0.05, next_ready - now))
        return hint

    def _handle_heartbeat(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = message.get("worker")
        fp = message.get("fp")
        if not isinstance(worker, str) or not isinstance(fp, str):
            return error_reply("heartbeat without worker id and cell fingerprint")
        self.fabric.heartbeats += 1
        renewed = self.leases.renew(fp, worker)
        return {"type": "ack", "renewed": renewed}

    def _handle_result(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = message.get("worker")
        fp = message.get("fp")
        if not isinstance(worker, str) or not isinstance(fp, str):
            return error_reply("result without worker id and cell fingerprint")
        key = self.fp_to_key.get(fp)
        if key is None:
            return error_reply(f"result for unknown cell {fp[:12]}…")
        attempt = message.get("attempt")
        if not isinstance(attempt, int) or attempt < 1:
            return error_reply("result without a valid attempt number")
        if key not in self.outstanding:
            # The cell was finalized while this worker dawdled (its
            # lease expired and someone else finished it, or it double-
            # submitted).  Dedup makes the duplicate harmless.
            self.fabric.duplicate_results += 1
            if self.journal is not None:
                self.journal.event(
                    EVENT_DUPLICATE, fp, worker=worker, attempt=attempt
                )
            return {"type": "duplicate", "remaining": len(self.outstanding)}
        # Whoever holds the lease, this result finalizes the attempt:
        # release the (possibly re-granted) lease so expiry never fires
        # for a cell that already reported.
        self.leases.release(fp)
        self.fabric.results_accepted += 1
        wall = float(message.get("wall_s", 0.0))
        pid = message.get("pid")
        if not isinstance(pid, int):
            pid = None
        if not message.get("ok"):
            return self._accept_failure(
                key,
                attempt,
                str(message.get("error_type", "Error")),
                str(message.get("error", "")),
                bool(message.get("retryable", True)),
                pid,
                wall,
            )
        try:
            result = result_from_dict(message["result"])
        except (KeyError, TypeError, ValueError) as exc:
            return self._accept_failure(
                key, attempt, "CorruptResult",
                f"result payload did not deserialize: {exc}", True, pid, wall,
            )
        result.attempts = max(result.attempts, attempt)
        self.ledger.settle_ok(key, result, pid=pid, wall=wall)
        self._journal_terminal(key, STATUS_OK)
        self._check_done()
        reply: Dict[str, Any] = {"type": "accepted", "remaining": len(self.outstanding)}
        # Hand the worker its next cell with the reply, saving the lease
        # round trip.  Only when asked: a worker that does not ask would
        # never run the cell, and its lease would expire.
        if message.get("next") and worker and self.outstanding:
            grant = self._grant_next(worker)
            if grant is not None:
                reply["grant"] = grant
        return reply

    def _accept_failure(
        self,
        key: CellId,
        attempt: int,
        error_type: str,
        error: str,
        retryable: bool,
        pid: Optional[int],
        wall: float,
    ) -> Dict[str, Any]:
        delay = self.ledger.charge(
            key, attempt, error_type, error, retryable=retryable, pid=pid, wall=wall
        )
        if delay is not None:
            self.fabric.retried_failures += 1
            if self.journal is not None:
                self.journal.event(
                    EVENT_RETRY,
                    self.fingerprints[key],
                    attempt=attempt,
                    error_type=error_type,
                )
        self._requeue_or_fail(key, attempt, delay)
        return {
            "type": "accepted",
            "retrying": delay is not None,
            "remaining": len(self.outstanding),
        }

    def _handle_status(self) -> Dict[str, Any]:
        counts = self.manifest.counts()
        return {
            "type": "status",
            "outstanding": len(self.outstanding),
            "leased": len(self.leases),
            "pending": len(self.pending),
            "delayed": len(self.delayed),
            "done": self._done.is_set(),
            "counts": counts,
            "fabric": self.fabric.to_dict(),
        }


class _FabricHandler(socketserver.StreamRequestHandler):
    """One request, one reply, close — the whole TCP surface."""

    server: "_FabricServer"

    def handle(self) -> None:
        try:
            message = read_message(self.rfile)
        except ProtocolError as exc:
            self.wfile.write(encode_line(error_reply(str(exc))))
            return
        except OSError:
            return
        try:
            reply = self.server.coordinator.handle(message)
        except Exception as exc:  # noqa: BLE001 — a bad request must not kill the server
            reply = error_reply(f"{type(exc).__name__}: {exc}")
        try:
            self.wfile.write(encode_line(reply))
        except OSError:
            # The requester vanished before reading the reply; for a
            # result message the cell is already finalized and the
            # worker's re-submission will be deduplicated.
            return


class _FabricServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    #: ``handle_request`` never blocks: :meth:`serve` calls it only once
    #: the listening socket is readable.
    timeout = 0.0

    def __init__(self, address: Tuple[str, int], coordinator: Coordinator) -> None:
        self.coordinator = coordinator
        super().__init__(address, _FabricHandler)
        # One byte on this pair wakes :meth:`serve` to return at once;
        # ``serve_forever`` would notice a shutdown only at its next poll.
        self._wake_r, self._wake_w = socket.socketpair()
        _LISTENERS.add(self)

    def serve(self) -> None:
        """Handle requests until :meth:`stop`."""
        with selectors.PollSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_r, selectors.EVENT_READ)
            while not any(key.fileobj is self._wake_r for key, _ in selector.select()):
                self.handle_request()

    def stop(self) -> None:
        """Make :meth:`serve` return without handling another request."""
        self._wake_w.send(b"\0")

    def server_close(self) -> None:
        _LISTENERS.discard(self)
        super().server_close()
        self._wake_r.close()
        self._wake_w.close()


#: Servers whose listening socket is open in this process.
_LISTENERS: "weakref.WeakSet[_FabricServer]" = weakref.WeakSet()


def _close_inherited_listeners() -> None:
    """Close, in a forked child, every listening socket it inherited.

    A local worker is forked from its coordinator's process.  Had it
    kept the listening socket, the port would outlive a SIGKILLed
    coordinator: the kernel would go on queueing connections nobody
    accepts, and each of an orphaned worker's submit attempts would
    wait out the whole request timeout instead of failing at once.
    """
    for server in _LISTENERS:
        server.socket.close()


os.register_at_fork(after_in_child=_close_inherited_listeners)


def fabric_order_sweep(
    entries: Iterable[Entry],
    machine: MulticoreMachine,
    orders: Sequence[int],
    *,
    run_dir: Union[str, Path],
    resume: bool = False,
    check: bool = False,
    inclusive: bool = False,
    policy: str = "lru",
    engine: str = "step",
    lease_s: float = 15.0,
    retries: int = 2,
    backoff: float = 0.1,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Coordinator:
    """Build (but do not start) a coordinator for an order sweep.

    The cell plan is :func:`repro.sim.parallel.parallel_order_sweep`'s
    exactly — same labels, fingerprints and checkpoint payloads, kept
    by the same :class:`~repro.sim.ledger.CellLedger` — so a fabric run
    directory can be inspected, verified and even resumed by the pool
    engine, and vice versa.
    """
    plan = order_plan(
        entries,
        machine,
        orders,
        check=check,
        inclusive=inclusive,
        policy=policy,
        engine=engine,
    )
    return Coordinator(
        plan,
        run_dir=run_dir,
        resume=resume,
        lease_s=lease_s,
        retries=retries,
        backoff=backoff,
        host=host,
        port=port,
    )
