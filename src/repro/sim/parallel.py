"""Fault-tolerant, observable process-parallel sweep engine.

Simulating one experiment is inherently sequential (a cache's state is
a chain), but a *sweep* is embarrassingly parallel: every
(algorithm, setting, order) cell is independent.  This module fans the
cells of :func:`repro.sim.sweep.order_sweep` /
:func:`~repro.sim.sweep.ratio_sweep` out over a
:class:`~concurrent.futures.ProcessPoolExecutor` — successful cells are
bit-identical to the serial versions (tests assert it), only wall-clock
changes.

Unlike a bare ``pool.map``, the engine treats the pool as unreliable
infrastructure:

* **Bounded in-flight dispatch** — at most ``workers`` chunk tasks are
  outstanding, so every submitted task starts immediately and per-task
  deadlines are meaningful.
* **Shared state ships once** — the machine(s), the per-series
  algorithm/setting/kwargs table and the fault plan travel through the
  pool *initializer*, not with every cell; a submitted cell is a tiny
  index tuple, and first-round cells are submitted in chunks to
  amortize IPC further.
* **Per-cell timeouts** — a chunk gets ``cell_timeout × len(chunk)``
  seconds; an overdue chunk's worker is presumed hung, the pool is
  killed and rebuilt, and the chunk's cells are charged one attempt.
* **Bounded retry with exponential backoff** — a failed cell is retried
  (individually, never re-chunked) up to ``retries`` times, waiting up
  to ``backoff · 2^(attempt-1)`` seconds between attempts with
  deterministic per-cell jitter (:class:`~repro.sim.retrypolicy.BackoffPolicy`)
  so many cells failing together do not retry in lockstep.
* **Graceful degradation** — a worker crash (``BrokenProcessPool``)
  charges the cells that were in flight and rebuilds the pool; when a
  pool cannot be (re)built at all, remaining cells run serially
  in-process — except suspected worker-killers (cells whose last
  failure was a crash or timeout), which are *skipped* with an explicit
  record rather than risking the host process.
* **Telemetry** — every cell ends as an ``ok``/``failed``/``skipped``
  :class:`~repro.sim.telemetry.CellRecord` inside a
  :class:`~repro.sim.telemetry.RunManifest` (attempt counts, per-cell
  wall time, worker utilization, pool rebuilds) attached to the
  returned :class:`~repro.sim.results.SweepResult` and optionally
  written to JSON.
* **Durability** — with ``run_dir=`` the sweep is backed by a
  :class:`~repro.store.rundir.RunStore`: every completed cell is
  flushed to an append-only, checksummed checkpoint log the moment it
  finishes, so a SIGKILL/OOM/power loss costs at most the cell in
  flight.  ``resume=True`` reloads ``ok`` cells by deterministic
  fingerprint (engine knobs excluded) and dispatches only the rest;
  SIGINT/SIGTERM drain in-flight cells, flush the checkpoint and write
  a partial manifest instead of aborting.

See ``docs/SWEEPS.md`` and ``docs/RUNSTORE.md`` for the full semantics.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
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
    Tuple,
    Union,
)

from repro.cache import replay as replay_engine
from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine
from repro.sim.faults import FaultPlan, fire
from repro.sim.results import ExperimentResult, SweepResult
from repro.sim.retrypolicy import PERMANENT_ERRORS, BackoffPolicy
from repro.sim.runner import reset_fallback_warnings, run_experiment
from repro.sim.sweep import Entry, resolve_entries
from repro.sim.telemetry import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    CellRecord,
    RunManifest,
)
from repro.store.checkpoint import CellKey, CheckpointWriter, cell_fingerprint
from repro.store.rundir import (
    STATUS_COMPLETE,
    STATUS_INCOMPLETE,
    STATUS_INTERRUPTED,
    STATUS_RUNNING,
    RunStore,
)
from repro.store.serde import result_from_dict, result_to_dict

#: One submitted cell: (label, x-index, machine-index, m, n, z, attempt).
#: Everything heavy is resolved worker-side from the initializer state.
CellSpec = Tuple[str, int, int, int, int, int, int]

#: One per-cell outcome reported by a worker:
#: (label, index, ok, payload, pid, wall_s).  ``payload`` is the
#: ExperimentResult when ok, else (error_type, error_message, retryable).
CellOutcome = Tuple[str, int, bool, Any, int, float]

#: Errors that re-running cannot fix (shared with the fabric engine;
#: see :mod:`repro.sim.retrypolicy`).
_PERMANENT_ERRORS = PERMANENT_ERRORS

#: Failure types that mark a cell as a suspected worker-killer: the
#: in-process fallback refuses to re-run these (a crash would take the
#: host process down, a hang could never be interrupted).
_WORKER_KILLER_ERRORS = frozenset({"BrokenProcessPool", "TimeoutError"})

#: How often a store-backed engine wakes from blocking waits to notice
#: a pending SIGINT/SIGTERM drain request.
_SIGNAL_POLL_S = 0.25


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-sweep state installed once per worker by the pool initializer.
_WORKER_MACHINES: Sequence[MulticoreMachine] = ()
_WORKER_ENTRIES: Dict[str, Tuple[str, str, Dict[str, Any]]] = {}
_WORKER_FAULTS: Optional[FaultPlan] = None


def _init_worker(
    machines: Sequence[MulticoreMachine],
    entries: Dict[str, Tuple[str, str, Dict[str, Any]]],
    fault_plan: Optional[FaultPlan],
    trace_tier: Optional[str] = None,
) -> None:
    """Pool initializer: receive the shared per-sweep state exactly once."""
    global _WORKER_MACHINES, _WORKER_ENTRIES, _WORKER_FAULTS
    _WORKER_MACHINES = machines
    _WORKER_ENTRIES = entries
    _WORKER_FAULTS = fault_plan
    # Workers of a store-backed sweep share compiled traces through the
    # run dir's on-disk tier: the first worker to need a trace compiles
    # and stores it, siblings memmap it instead of recompiling.
    replay_engine.configure_trace_tier(trace_tier)
    # A store-backed engine traps SIGINT/SIGTERM in the host process —
    # and forked workers inherit those handlers.  A worker that treats
    # SIGTERM as "set the drain flag" can never be torn down by
    # ``_kill_pool`` (``process.terminate()`` would be a no-op on a hung
    # worker, wedging the executor's manager thread until interpreter
    # exit).  Reset: SIGTERM kills the worker again; SIGINT is ignored
    # so a terminal Ctrl-C reaches only the host, which drains
    # gracefully instead of losing in-flight cells to a broken pool.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover — exotic platforms
        pass


def _execute_cells(
    cells: Sequence[CellSpec],
    machines: Sequence[MulticoreMachine],
    entries: Dict[str, Tuple[str, str, Dict[str, Any]]],
    fault_plan: Optional[FaultPlan],
) -> List[CellOutcome]:
    """Run a chunk of cells against explicit state; never raises for a
    cell-level error — failures come back as data so one bad cell cannot
    take its chunk-mates' results with it."""
    pid = os.getpid()
    outcomes: List[CellOutcome] = []
    for label, index, machine_idx, m, n, z, attempt in cells:
        start = time.perf_counter()
        try:
            spec = fault_plan.get((label, index)) if fault_plan else None
            if spec is not None:
                fire(spec, attempt)
            algorithm, setting, kwargs = entries[label]
            result = run_experiment(
                algorithm, machines[machine_idx], m, n, z, setting, **kwargs
            )
            result.attempts = attempt
            outcomes.append(
                (label, index, True, result, pid, time.perf_counter() - start)
            )
        except Exception as exc:  # noqa: BLE001 — cell isolation is the point
            retryable = not isinstance(exc, _PERMANENT_ERRORS)
            outcomes.append(
                (
                    label,
                    index,
                    False,
                    (type(exc).__name__, str(exc), retryable),
                    pid,
                    time.perf_counter() - start,
                )
            )
    return outcomes


def _run_chunk(cells: Sequence[CellSpec]) -> List[CellOutcome]:
    """Worker entry point: run one chunk against the initializer state."""
    return _execute_cells(cells, _WORKER_MACHINES, _WORKER_ENTRIES, _WORKER_FAULTS)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def _default_workers() -> int:
    return max(os.cpu_count() or 1, 1)


def _resolve_workers(workers: Optional[int]) -> int:
    """Validate an explicit worker count, defaulting to the CPU count.

    Rejecting ``workers < 1`` here turns an opaque
    ``ProcessPoolExecutor`` ``ValueError`` traceback into the library's
    own :class:`~repro.exceptions.ConfigurationError`.
    """
    if workers is None:
        return _default_workers()
    if workers < 1:
        raise ConfigurationError(
            f"need at least one worker process, got workers={workers}"
        )
    return workers


def _kill_pool(pool: Executor) -> None:
    """Tear a pool down even when a worker is wedged.

    A hung worker never drains its call item, so a plain ``shutdown``
    would block forever; terminate the worker processes first (internal
    attribute, but stable across CPython 3.8–3.13), then release the
    executor without waiting.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


class _SweepEngine:
    """One engine run: dispatch, retry, degrade, record."""

    def __init__(
        self,
        *,
        variable: str,
        xs: Sequence[Any],
        labels: Sequence[str],
        cells: Sequence[CellSpec],
        machines: Sequence[MulticoreMachine],
        entries: Dict[str, Tuple[str, str, Dict[str, Any]]],
        workers: int,
        cell_timeout: Optional[float],
        retries: int,
        backoff: float,
        chunksize: Optional[int],
        fault_plan: Optional[FaultPlan],
        serial_fallback: bool,
        pool_factory: Optional[Callable[..., Executor]],
        store: Optional[RunStore] = None,
        resume: bool = False,
        drain_grace_s: float = 5.0,
    ) -> None:
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ConfigurationError(
                f"cell_timeout must be positive, got {cell_timeout}"
            )
        if drain_grace_s < 0:
            raise ConfigurationError(
                f"drain_grace_s must be >= 0, got {drain_grace_s}"
            )
        self.variable = variable
        self.xs = list(xs)
        self.labels = list(labels)
        self.machines = list(machines)
        self.entries = entries
        self.workers = workers
        self.cell_timeout = cell_timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_policy = BackoffPolicy(base_s=backoff)
        self.fault_plan = fault_plan
        self.serial_fallback = serial_fallback
        self.pool_factory = pool_factory or ProcessPoolExecutor
        self.store = store
        self.resume = resume
        self.drain_grace_s = drain_grace_s
        #: On-disk compiled-trace tier shared by host + workers (under
        #: the run dir, so it lives and dies with the run artifacts).
        self.trace_tier: Optional[str] = (
            str(store.root / "traces") if store is not None else None
        )
        self.writer: Optional[CheckpointWriter] = None
        #: Signal number once SIGINT/SIGTERM asked the run to drain.
        self.interrupt: Optional[int] = None
        self._old_handlers: Dict[int, Any] = {}

        self.records: Dict[Tuple[str, int], CellRecord] = {}
        for label, index, *_rest in cells:
            self.records[(label, index)] = CellRecord(
                label=label, index=index, x=self.xs[index], status=STATUS_SKIPPED
            )
        self.results: Dict[Tuple[str, int], ExperimentResult] = {}
        self.outstanding = set(self.records)
        self.manifest = RunManifest(
            variable=variable,
            xs=self.xs,
            workers=workers,
            cell_timeout_s=cell_timeout,
            retries=retries,
            backoff_s=backoff,
            chunksize=1,  # finalized below once pending cells are known
        )

        self.fingerprints: Dict[Tuple[str, int], str] = {}
        if store is not None:
            for label, index, machine_idx, m, n, z, _attempt in cells:
                self.fingerprints[(label, index)] = cell_fingerprint(
                    CellKey(
                        *entries[label],
                        machine=self.machines[machine_idx],
                        variable=variable,
                        x=self.xs[index],
                        m=m,
                        n=n,
                        z=z,
                    )
                )
            if resume:
                self._restore_from_checkpoint()

        pending = [s for s in cells if (s[0], s[1]) in self.outstanding]
        if chunksize is None:
            chunksize = max(1, len(pending) // (workers * 4))
        self.chunksize = max(1, chunksize)
        self.manifest.chunksize = self.chunksize
        self.ready: Deque[List[CellSpec]] = deque(
            [
                list(pending[i : i + self.chunksize])
                for i in range(0, len(pending), self.chunksize)
            ]
        )
        self.waiting_retry: List[Tuple[float, CellSpec]] = []
        self.inflight: Dict[Future[List[CellOutcome]], Tuple[List[CellSpec], Optional[float]]] = {}

    # -- durability -----------------------------------------------------
    def _restore_from_checkpoint(self) -> None:
        """Reload ``ok`` cells from the run directory's checkpoint log.

        A restored cell is finalized without dispatch and flagged
        ``resumed``; quarantined (corrupt) records are counted and their
        cells recompute.  Failure records never restore — a resumed
        sweep re-runs every failed/skipped/missing cell.
        """
        assert self.store is not None
        loaded = self.store.load_checkpoint()
        self.manifest.quarantined_records = len(loaded.quarantined)
        ok = loaded.ok_records()
        for key, fp in self.fingerprints.items():
            record = ok.get(fp)
            if record is None:
                continue
            try:
                result: ExperimentResult = result_from_dict(record["result"])
            except (KeyError, TypeError, ValueError):
                # A sealed record whose payload still doesn't deserialize
                # is treated exactly like a checksum mismatch: recompute.
                self.manifest.quarantined_records += 1
                continue
            cell = self.records[key]
            cell.status = STATUS_OK
            cell.attempts = result.attempts
            cell.wall_s = float(record.get("wall_s", 0.0))
            cell.worker = result.worker
            cell.resumed = True
            cell.engine_fallback = result.engine_fallback
            cell.kernel = result.kernel
            cell.trace_source = result.trace_source
            self.results[key] = result
            self.outstanding.discard(key)
            self.manifest.resumed_cells += 1

    def _checkpoint(
        self,
        key: Tuple[str, int],
        status: str,
        *,
        result: Optional[ExperimentResult] = None,
    ) -> None:
        """Flush one finalized cell to the checkpoint log (durable on return)."""
        if self.writer is None:
            return
        serialized = result_to_dict(result) if result is not None else None
        self.writer.append(
            self.records[key].checkpoint_payload(
                self.fingerprints[key], status, serialized
            )
        )

    # -- signals ---------------------------------------------------------
    def _on_signal(self, signum: int, _frame: Any) -> None:
        if self.interrupt is not None:
            # Second signal: the user means it — abort hard.
            raise KeyboardInterrupt
        self.interrupt = signum

    def _signal_name(self) -> Optional[str]:
        if self.interrupt is None:
            return None
        try:
            return signal.Signals(self.interrupt).name
        except ValueError:
            return f"signal {self.interrupt}"

    def _install_signal_handlers(self) -> None:
        """Trap SIGINT/SIGTERM for graceful draining (store-backed runs).

        Only installable from the main thread; elsewhere the engine
        keeps the default behaviour (the run is still crash-safe — the
        checkpoint is flushed per cell)."""
        if self.store is None:
            return
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old_handlers[sig] = signal.signal(sig, self._on_signal)
            except (ValueError, OSError):
                pass

    def _restore_signal_handlers(self) -> None:
        for sig, handler in self._old_handlers.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
        self._old_handlers = {}

    # -- bookkeeping ----------------------------------------------------
    def _finalize_ok(
        self, label: str, index: int, result: ExperimentResult, pid: int, wall: float
    ) -> None:
        record = self.records[(label, index)]
        record.status = STATUS_OK
        record.attempts = result.attempts
        record.wall_s += wall
        record.worker = pid
        record.error_type = None
        record.error = None
        record.engine_fallback = result.engine_fallback
        record.kernel = result.kernel
        record.trace_source = result.trace_source
        self.results[(label, index)] = result
        self.outstanding.discard((label, index))
        self._checkpoint((label, index), STATUS_OK, result=result)

    def _charge_failure(
        self,
        spec: CellSpec,
        error_type: str,
        error: str,
        retryable: bool,
        *,
        pid: Optional[int] = None,
        wall: float = 0.0,
    ) -> None:
        """One attempt of a cell ended badly: retry with backoff or fail."""
        label, index = spec[0], spec[1]
        key = (label, index)
        if key not in self.outstanding:
            return  # already finalized (defensive: stale duplicate)
        record = self.records[key]
        attempt = spec[6]
        record.attempts = max(record.attempts, attempt)
        record.wall_s += wall
        record.error_type = error_type
        record.error = error
        if pid is not None:
            record.worker = pid
        if retryable and attempt <= self.retries:
            delay = self.backoff_policy.delay(attempt, key=f"{label}:{index}")
            retry_spec = spec[:6] + (attempt + 1,)
            self.waiting_retry.append((time.monotonic() + delay, retry_spec))
        else:
            record.status = STATUS_FAILED
            self.outstanding.discard(key)
            self._checkpoint(key, STATUS_FAILED)

    def _skip(
        self, spec: CellSpec, reason: str, *, error_type: str = "Skipped"
    ) -> None:
        label, index = spec[0], spec[1]
        key = (label, index)
        if key not in self.outstanding:
            return
        record = self.records[key]
        record.status = STATUS_SKIPPED
        record.error = (
            f"{reason}" + (f" (last error: {record.error})" if record.error else "")
        )
        if record.error_type is None:
            record.error_type = error_type
        self.outstanding.discard(key)
        self._checkpoint(key, STATUS_SKIPPED)

    # -- pool management ------------------------------------------------
    def _make_pool(self) -> Optional[Executor]:
        try:
            return self.pool_factory(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(
                    self.machines,
                    self.entries,
                    self.fault_plan,
                    self.trace_tier,
                ),
            )
        except Exception:  # noqa: BLE001 — degrade, never abort the sweep
            return None

    def _handle_broken_pool(self) -> None:
        """Every in-flight chunk died with the pool: charge and retry."""
        for future, (chunk, _deadline) in list(self.inflight.items()):
            future.cancel()
            for spec in chunk:
                self._charge_failure(
                    spec,
                    "BrokenProcessPool",
                    "worker process died while the cell was in flight",
                    retryable=True,
                )
        self.inflight.clear()
        self.manifest.pool_rebuilds += 1

    def _handle_timeouts(self, overdue: List[Future[List[CellOutcome]]]) -> None:
        """Overdue chunks mean wedged workers: charge them, requeue the
        innocent in-flight chunks uncharged, and replace the pool."""
        assert self.cell_timeout is not None
        for future in overdue:
            chunk, _deadline = self.inflight.pop(future)
            future.cancel()
            budget = self.cell_timeout * len(chunk)
            for spec in chunk:
                self._charge_failure(
                    spec,
                    "TimeoutError",
                    f"chunk of {len(chunk)} cell(s) exceeded its "
                    f"{budget:.3g}s budget ({self.cell_timeout:.3g}s per cell)",
                    retryable=True,
                )
        for future, (chunk, _deadline) in list(self.inflight.items()):
            future.cancel()
            self.ready.appendleft(chunk)
        self.inflight.clear()
        self.manifest.pool_rebuilds += 1

    # -- serial degradation ---------------------------------------------
    def _run_serial_fallback(self) -> None:
        """Run every remaining cell in-process (no pool available).

        Suspected worker-killers — cells whose last failure was a crash
        or a timeout — are skipped with an explicit record: re-running
        them here could kill or wedge the host process.
        """
        self.manifest.serial_fallback = True
        pending: List[CellSpec] = [
            spec for chunk in self.ready for spec in chunk
        ] + [spec for _when, spec in self.waiting_retry]
        self.ready.clear()
        self.waiting_retry = []
        for spec in sorted(pending, key=lambda s: (s[0], s[1])):
            key = (spec[0], spec[1])
            if key not in self.outstanding:
                continue
            if self.interrupt is not None:
                self._skip(
                    spec,
                    f"interrupted by {self._signal_name()} before the cell ran",
                    error_type="Interrupted",
                )
                continue
            record = self.records[key]
            if record.error_type in _WORKER_KILLER_ERRORS:
                self._skip(
                    spec,
                    "not re-run in-process: previous attempt crashed or "
                    "hung a worker",
                )
                continue
            attempt = spec[6]
            while key in self.outstanding and self.interrupt is None:
                outcome = _execute_cells(
                    [spec[:6] + (attempt,)],
                    self.machines,
                    self.entries,
                    self.fault_plan,
                )[0]
                label, index, ok, payload, pid, wall = outcome
                self.manifest.record_execution(pid, wall)
                if ok:
                    self._finalize_ok(label, index, payload, pid, wall)
                else:
                    error_type, error, retryable = payload
                    serial_spec = spec[:6] + (attempt,)
                    if retryable and attempt <= self.retries:
                        time.sleep(
                            self.backoff_policy.delay(attempt, key=f"{label}:{index}")
                        )
                    self._charge_failure(
                        serial_spec, error_type, error, retryable, pid=pid, wall=0.0
                    )
                    attempt += 1

    # -- main loop -------------------------------------------------------
    def run(self) -> SweepResult:
        started = time.perf_counter()
        self._prepare_store()
        self._install_signal_handlers()
        # The host shares the run dir's trace tier with its workers
        # (serial fallback and in-process cells hit the same entries);
        # restored afterwards so one sweep doesn't leak its tier into
        # the next caller's process-global replay configuration.
        previous_tier = replay_engine.trace_tier_root()
        if self.trace_tier is not None:
            replay_engine.configure_trace_tier(self.trace_tier)
        try:
            if self.outstanding:
                pool = self._make_pool()
                if pool is None and self.serial_fallback:
                    self._run_serial_fallback()
                elif pool is None:
                    for key in sorted(self.outstanding):
                        record = self.records[key]
                        record.error_type = "PoolUnavailable"
                        record.error = "process pool could not be created"
                        self.outstanding.discard(key)
                        self._checkpoint(key, STATUS_SKIPPED)
                else:
                    try:
                        self._dispatch_loop(pool)
                    finally:
                        _kill_pool(pool)
            if self.interrupt is not None:
                self.manifest.interrupted = self._signal_name()
                for key in sorted(self.outstanding):
                    self._skip(
                        self._spec_for(key),
                        f"interrupted by {self._signal_name()}",
                        error_type="Interrupted",
                    )
        finally:
            if self.trace_tier is not None:
                replay_engine.configure_trace_tier(previous_tier)
            self._restore_signal_handlers()
            if self.writer is not None:
                self.writer.close()
                self.writer = None
        self.manifest.elapsed_s = time.perf_counter() - started
        sweep = self._assemble()
        self._finalize_store()
        return sweep

    def _prepare_store(self) -> None:
        """Stamp ``run.json``, open the checkpoint log for appending."""
        if self.store is None:
            return
        config = {
            "variable": self.variable,
            "xs": self.xs,
            "labels": self.labels,
            "engine": {
                "workers": self.workers,
                "cell_timeout_s": self.cell_timeout,
                "retries": self.retries,
                "backoff_s": self.backoff,
                "chunksize": self.chunksize,
            },
        }
        if self.resume and self.store.exists():
            meta = self.store.load_meta() or {}
            self.store.update_meta(
                status=STATUS_RUNNING,
                resumes=int(meta.get("resumes", 0)) + 1,
                **config,
            )
        else:
            self.store.initialize(config)
        self.writer = self.store.checkpoint_writer()

    def _finalize_store(self) -> None:
        """Write the manifest and final status into the run directory."""
        if self.store is None:
            return
        self.manifest.write(self.store.manifest_path)
        counts = self.manifest.counts()
        if self.manifest.interrupted is not None:
            status = STATUS_INTERRUPTED
        elif counts[STATUS_FAILED] or counts[STATUS_SKIPPED]:
            status = STATUS_INCOMPLETE
        else:
            status = STATUS_COMPLETE
        self.store.update_meta(
            status=status,
            cell_counts=counts,
            resumed_cells=self.manifest.resumed_cells,
            interrupted=self.manifest.interrupted,
            elapsed_s=round(self.manifest.elapsed_s, 6),
        )

    def _dispatch_loop(self, pool: Executor) -> None:
        while self.outstanding:
            if self.interrupt is not None:
                self._drain(pool)
                return
            now = time.monotonic()
            # Promote retries whose backoff has elapsed.
            due = [spec for when, spec in self.waiting_retry if when <= now]
            self.waiting_retry = [
                (when, spec) for when, spec in self.waiting_retry if when > now
            ]
            for spec in due:
                self.ready.append([spec])

            # Keep at most `workers` chunks outstanding so every task
            # starts immediately and submit-time deadlines are honest.
            broken = False
            while self.ready and len(self.inflight) < self.workers:
                chunk = self.ready.popleft()
                deadline = (
                    now + self.cell_timeout * len(chunk)
                    if self.cell_timeout is not None
                    else None
                )
                try:
                    future = pool.submit(_run_chunk, chunk)
                except BrokenProcessPool:
                    self.ready.appendleft(chunk)
                    broken = True
                    break
                except RuntimeError:
                    # shutdown executor (e.g. after a kill): rebuild
                    self.ready.appendleft(chunk)
                    broken = True
                    break
                self.inflight[future] = (chunk, deadline)

            if broken:
                self._handle_broken_pool()
                _kill_pool(pool)
                replacement = self._make_pool()
                if replacement is None:
                    if self.serial_fallback:
                        self._run_serial_fallback()
                    else:
                        for key in sorted(self.outstanding):
                            self._skip(
                                self._spec_for(key), "process pool unavailable"
                            )
                    return
                pool = replacement
                continue

            if not self.inflight:
                if self.waiting_retry:
                    next_due = min(when for when, _spec in self.waiting_retry)
                    pause = max(0.0, next_due - time.monotonic())
                    if self.store is not None:
                        # Stay responsive to SIGINT/SIGTERM drains.
                        pause = min(pause, _SIGNAL_POLL_S)
                    time.sleep(pause)
                    continue
                break  # defensive: nothing queued, nothing running

            done = self._wait_some()
            pool_broke = self._process_done(done)
            if pool_broke:
                self._handle_broken_pool()
                _kill_pool(pool)
                replacement = self._make_pool()
                if replacement is None:
                    if self.serial_fallback:
                        self._run_serial_fallback()
                    else:
                        for key in sorted(self.outstanding):
                            self._skip(
                                self._spec_for(key), "process pool unavailable"
                            )
                    return
                pool = replacement
                continue

            now = time.monotonic()
            overdue = [
                future
                for future, (_chunk, deadline) in self.inflight.items()
                if deadline is not None and now >= deadline and not future.done()
            ]
            if overdue:
                self._handle_timeouts(overdue)
                _kill_pool(pool)
                replacement = self._make_pool()
                if replacement is None:
                    if self.serial_fallback:
                        self._run_serial_fallback()
                    else:
                        for key in sorted(self.outstanding):
                            self._skip(
                                self._spec_for(key), "process pool unavailable"
                            )
                    return
                pool = replacement

    def _spec_for(self, key: Tuple[str, int]) -> CellSpec:
        """Reconstruct a minimal spec for bookkeeping-only paths."""
        record = self.records[key]
        return (key[0], key[1], 0, 0, 0, 0, max(record.attempts, 1))

    def _wait_some(self) -> List[Future[List[CellOutcome]]]:
        """Block until progress: a completion, a deadline, or a due retry."""
        now = time.monotonic()
        horizons = [
            deadline
            for _chunk, deadline in self.inflight.values()
            if deadline is not None
        ]
        horizons.extend(when for when, _spec in self.waiting_retry)
        timeout = max(0.0, min(horizons) - now) if horizons else None
        if self.store is not None:
            # A store-backed run traps SIGINT/SIGTERM; wake periodically
            # so the drain starts promptly even when nothing completes.
            timeout = _SIGNAL_POLL_S if timeout is None else min(timeout, _SIGNAL_POLL_S)
        done, _pending = wait(
            set(self.inflight), timeout=timeout, return_when=FIRST_COMPLETED
        )
        return list(done)

    def _drain(self, pool: Executor) -> None:
        """Graceful shutdown: finish in-flight chunks, dispatch nothing new.

        In-flight chunks get ``drain_grace_s`` to complete and be
        checkpointed; whatever is still running then (or queued, or
        waiting on a retry) is cancelled and recorded as an explicit
        ``skipped`` cell with ``error_type="Interrupted"`` — the caller
        (:meth:`run`) stamps those records after the drain."""
        deadline = time.monotonic() + self.drain_grace_s
        while self.inflight and time.monotonic() < deadline:
            budget = max(0.0, deadline - time.monotonic())
            done, _pending = wait(
                set(self.inflight),
                timeout=min(budget, _SIGNAL_POLL_S),
                return_when=FIRST_COMPLETED,
            )
            if done and self._process_done(list(done)):
                self._handle_broken_pool()
                break
        for future, (_chunk, _deadline) in list(self.inflight.items()):
            future.cancel()
        self.inflight.clear()
        _kill_pool(pool)

    def _process_done(self, done: List[Future[List[CellOutcome]]]) -> bool:
        """Fold completed futures into records; returns pool-broke."""
        pool_broke = False
        for future in done:
            chunk, _deadline = self.inflight.pop(future)
            try:
                outcomes = future.result()
            except BrokenProcessPool:
                pool_broke = True
                for spec in chunk:
                    self._charge_failure(
                        spec,
                        "BrokenProcessPool",
                        "worker process died while the cell was in flight",
                        retryable=True,
                    )
            except Exception as exc:  # noqa: BLE001 — e.g. unpicklable result
                for spec in chunk:
                    self._charge_failure(
                        spec, type(exc).__name__, str(exc), retryable=True
                    )
            else:
                for label, index, ok, payload, pid, wall in outcomes:
                    self.manifest.record_execution(pid, wall)
                    if ok:
                        self._finalize_ok(label, index, payload, pid, wall)
                    else:
                        error_type, error, retryable = payload
                        spec = next(
                            s for s in chunk if s[0] == label and s[1] == index
                        )
                        self._charge_failure(
                            spec, error_type, error, retryable, pid=pid, wall=wall
                        )
        return pool_broke

    def _assemble(self) -> SweepResult:
        sweep = SweepResult(variable=self.variable, xs=list(self.xs))
        buckets: Dict[str, List[Optional[ExperimentResult]]] = {
            label: [None] * len(self.xs) for label in self.labels
        }
        for (label, index), result in self.results.items():
            buckets[label][index] = result
        for label in self.labels:
            sweep.add(label, buckets[label])
        self.manifest.cells = list(self.records.values())
        sweep.failures = [
            record
            for record in self.records.values()
            if record.status != STATUS_OK
        ]
        sweep.manifest = self.manifest
        sweep.interrupted = self.manifest.interrupted
        return sweep


def _run_engine_sweep(
    *,
    variable: str,
    xs: Sequence[Any],
    labels: Sequence[str],
    cells: Sequence[CellSpec],
    machines: Sequence[MulticoreMachine],
    entries: Dict[str, Tuple[str, str, Dict[str, Any]]],
    workers: Optional[int],
    cell_timeout: Optional[float],
    retries: int,
    backoff: float,
    chunksize: Optional[int],
    fault_plan: Optional[FaultPlan],
    serial_fallback: bool,
    manifest_path: Optional[Union[str, Path]],
    pool_factory: Optional[Callable[..., Executor]],
    run_dir: Optional[Union[str, Path]],
    resume: bool,
    drain_grace_s: float,
) -> SweepResult:
    if resume and run_dir is None:
        raise ConfigurationError("resume=True requires a run_dir")
    engine = _SweepEngine(
        variable=variable,
        xs=xs,
        labels=labels,
        cells=cells,
        machines=machines,
        entries=entries,
        workers=_resolve_workers(workers),
        cell_timeout=cell_timeout,
        retries=retries,
        backoff=backoff,
        chunksize=chunksize,
        fault_plan=fault_plan,
        serial_fallback=serial_fallback,
        pool_factory=pool_factory,
        store=RunStore(run_dir) if run_dir is not None else None,
        resume=resume,
        drain_grace_s=drain_grace_s,
    )
    sweep = engine.run()
    if manifest_path is not None and sweep.manifest is not None:
        sweep.manifest.write(manifest_path)
    return sweep


# ----------------------------------------------------------------------
# Public sweeps
# ----------------------------------------------------------------------
def parallel_order_sweep(
    entries: Iterable[Entry],
    machine: MulticoreMachine,
    orders: Sequence[int],
    *,
    workers: Optional[int] = None,
    check: bool = False,
    inclusive: bool = False,
    policy: str = "lru",
    engine: str = "replay",
    strict_engine: bool = False,
    cell_timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.1,
    chunksize: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    serial_fallback: bool = True,
    manifest_path: Optional[Union[str, Path]] = None,
    pool_factory: Optional[Callable[..., Executor]] = None,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    drain_grace_s: float = 5.0,
) -> SweepResult:
    """Fault-tolerant parallel equivalent of :func:`repro.sim.sweep.order_sweep`.

    With ``run_dir`` the sweep is durably checkpointed per cell;
    ``resume=True`` reloads completed cells from that directory and
    dispatches only the rest (see ``docs/RUNSTORE.md``).
    """
    reset_fallback_warnings()
    resolved = resolve_entries(entries)
    labels = [label for _a, _s, _p, label in resolved]
    entry_table: Dict[str, Tuple[str, str, Dict[str, Any]]] = {}
    cells: List[CellSpec] = []
    for algorithm, setting, params, label in resolved:
        kwargs: Dict[str, Any] = dict(
            check=check,
            inclusive=inclusive,
            policy=policy,
            engine=engine,
            strict_engine=strict_engine,
            **params,
        )
        entry_table[label] = (algorithm, setting, kwargs)
        for index, order in enumerate(orders):
            cells.append((label, index, 0, order, order, order, 1))
    return _run_engine_sweep(
        variable="order",
        xs=list(orders),
        labels=labels,
        cells=cells,
        machines=[machine],
        entries=entry_table,
        workers=workers,
        cell_timeout=cell_timeout,
        retries=retries,
        backoff=backoff,
        chunksize=chunksize,
        fault_plan=fault_plan,
        serial_fallback=serial_fallback,
        manifest_path=manifest_path,
        pool_factory=pool_factory,
        run_dir=run_dir,
        resume=resume,
        drain_grace_s=drain_grace_s,
    )


def parallel_ratio_sweep(
    entries: Iterable[Entry],
    machine: MulticoreMachine,
    ratios: Sequence[float],
    order: int,
    *,
    workers: Optional[int] = None,
    total_bandwidth: float = 2.0,
    check: bool = False,
    inclusive: bool = False,
    policy: str = "lru",
    engine: str = "replay",
    strict_engine: bool = False,
    cell_timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.1,
    chunksize: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    serial_fallback: bool = True,
    manifest_path: Optional[Union[str, Path]] = None,
    pool_factory: Optional[Callable[..., Executor]] = None,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    drain_grace_s: float = 5.0,
) -> SweepResult:
    """Fault-tolerant parallel equivalent of :func:`repro.sim.sweep.ratio_sweep`.

    The per-ratio machines are derived once and shipped through the pool
    initializer; each submitted cell carries only the index of its
    machine.
    """
    reset_fallback_warnings()
    resolved = resolve_entries(entries)
    labels = [label for _a, _s, _p, label in resolved]
    machines = [
        machine.with_bandwidth_ratio(r, total=total_bandwidth) for r in ratios
    ]
    entry_table: Dict[str, Tuple[str, str, Dict[str, Any]]] = {}
    cells: List[CellSpec] = []
    for algorithm, setting, params, label in resolved:
        kwargs: Dict[str, Any] = dict(
            check=check,
            inclusive=inclusive,
            policy=policy,
            engine=engine,
            strict_engine=strict_engine,
            **params,
        )
        entry_table[label] = (algorithm, setting, kwargs)
        for index in range(len(ratios)):
            cells.append((label, index, index, order, order, order, 1))
    return _run_engine_sweep(
        variable="r",
        xs=list(ratios),
        labels=labels,
        cells=cells,
        machines=machines,
        entries=entry_table,
        workers=workers,
        cell_timeout=cell_timeout,
        retries=retries,
        backoff=backoff,
        chunksize=chunksize,
        fault_plan=fault_plan,
        serial_fallback=serial_fallback,
        manifest_path=manifest_path,
        pool_factory=pool_factory,
        run_dir=run_dir,
        resume=resume,
        drain_grace_s=drain_grace_s,
    )
