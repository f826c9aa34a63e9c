"""Fault-tolerant, observable process-parallel sweep engine.

Simulating one experiment is inherently sequential (a cache's state is
a chain), but a *sweep* is embarrassingly parallel: every
(algorithm, setting, order) cell is independent.  This module fans the
cells of :func:`repro.sim.sweep.order_sweep` out over a
:class:`~concurrent.futures.ProcessPoolExecutor` — successful cells are
bit-identical to the serial version (tests assert it), only wall-clock
changes.

Unlike a bare ``pool.map``, the engine treats the pool as unreliable
infrastructure:

* **Bounded in-flight dispatch** — at most ``workers`` chunk tasks are
  outstanding, so every submitted task starts immediately and per-task
  deadlines are meaningful.
* **Shared state ships once** — the sweep plan (machines, per-series
  algorithm/setting/kwargs table) and the fault plan travel through the
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
* **Telemetry and durability** — the cell books live in a
  :class:`~repro.sim.ledger.CellLedger`, the same one the fabric
  coordinator keeps: every cell ends as an ``ok``/``failed``/``skipped``
  :class:`~repro.sim.telemetry.CellRecord` in a
  :class:`~repro.sim.telemetry.RunManifest`, and with ``run_dir=``
  every finished cell is flushed to the run directory's checkpoint log
  the moment it finishes.  ``resume=True`` reloads ``ok`` cells by
  fingerprint and dispatches only the rest; SIGINT/SIGTERM drain
  in-flight cells, flush the checkpoint and write a partial manifest
  instead of aborting.

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

from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine
from repro.sim.faults import FaultPlan, fire
from repro.sim.ledger import CellLedger, SweepPlan, order_plan
from repro.sim.results import SweepResult
from repro.sim.retrypolicy import is_retryable
from repro.sim.runner import run_experiment
from repro.sim.sweep import Entry
from repro.store.rundir import RunStore
from repro.store.serde import result_from_dict, result_to_dict

#: One submitted cell: (label, x-index, machine-index, m, n, z, attempt).
#: Everything heavy is resolved worker-side from the initializer state.
CellSpec = Tuple[str, int, int, int, int, int, int]

#: One per-cell outcome reported by a worker:
#: (label, index, ok, payload, pid, wall_s).  ``payload`` is the
#: ExperimentResult when ok, else (error_type, error_message, retryable).
CellOutcome = Tuple[str, int, bool, Any, int, float]

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
_WORKER_PLAN: Optional[SweepPlan] = None
_WORKER_FAULTS: Optional[FaultPlan] = None


def _init_worker(plan: SweepPlan, fault_plan: Optional[FaultPlan]) -> None:
    """Pool initializer: receive the shared per-sweep state exactly once."""
    global _WORKER_PLAN, _WORKER_FAULTS
    _WORKER_PLAN = plan
    _WORKER_FAULTS = fault_plan
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
    plan: SweepPlan,
    fault_plan: Optional[FaultPlan],
) -> List[CellOutcome]:
    """Run a chunk of cells against explicit state; never raises for a
    cell-level error — failures come back as data so one bad cell cannot
    take its chunk-mates' results with it."""
    pid = os.getpid()
    outcomes: List[CellOutcome] = []
    for label, index, machine, m, n, z, attempt in cells:
        start = time.perf_counter()
        payload: Any
        try:
            spec = fault_plan.get((label, index)) if fault_plan else None
            if spec is not None:
                fire(spec, attempt)
            algorithm, setting, kwargs = plan.entries[label]
            result = run_experiment(
                algorithm, plan.machines[machine], m, n, z, setting, **kwargs
            )
            result.attempts = attempt
            ok, payload = True, result
        except Exception as exc:  # noqa: BLE001 — cell isolation is the point
            ok, payload = False, (type(exc).__name__, str(exc), is_retryable(exc))
        outcomes.append((label, index, ok, payload, pid, time.perf_counter() - start))
    return outcomes


def _run_chunk(cells: Sequence[CellSpec]) -> List[CellOutcome]:
    """Worker entry point: run one chunk against the initializer state."""
    assert _WORKER_PLAN is not None
    return _execute_cells(cells, _WORKER_PLAN, _WORKER_FAULTS)


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
    """The pool transport of one sweep: chunks, futures, deadlines, pool
    rebuilds, serial fallback and signal drains.  Every outcome is
    booked in the :class:`~repro.sim.ledger.CellLedger`."""

    def __init__(
        self,
        ledger: CellLedger,
        *,
        workers: int,
        cell_timeout: Optional[float],
        chunksize: Optional[int],
        fault_plan: Optional[FaultPlan],
        serial_fallback: bool,
        pool_factory: Optional[Callable[..., Executor]],
        drain_grace_s: float = 5.0,
    ) -> None:
        if cell_timeout is not None and cell_timeout <= 0:
            raise ConfigurationError(
                f"cell_timeout must be positive, got {cell_timeout}"
            )
        if drain_grace_s < 0:
            raise ConfigurationError(
                f"drain_grace_s must be >= 0, got {drain_grace_s}"
            )
        self.ledger = ledger
        self.plan = ledger.plan
        self.outstanding = ledger.outstanding
        self.manifest = ledger.manifest
        self.workers = workers
        self.cell_timeout = cell_timeout
        self.fault_plan = fault_plan
        self.serial_fallback = serial_fallback
        self.pool_factory = pool_factory or ProcessPoolExecutor
        self.drain_grace_s = drain_grace_s
        #: Signal number once SIGINT/SIGTERM asked the run to drain.
        self.interrupt: Optional[int] = None
        self._old_handlers: Dict[int, Any] = {}

        pending = [
            cell + (1,) for cell in self.plan.cells if cell[:2] in self.outstanding
        ]
        if chunksize is None:
            chunksize = max(1, len(pending) // (workers * 4))
        self.chunksize = max(1, chunksize)
        self.manifest.workers = workers
        self.manifest.cell_timeout_s = cell_timeout
        self.manifest.chunksize = self.chunksize
        self.ready: Deque[List[CellSpec]] = deque(
            [
                list(pending[i : i + self.chunksize])
                for i in range(0, len(pending), self.chunksize)
            ]
        )
        self.waiting_retry: List[Tuple[float, CellSpec]] = []
        self.inflight: Dict[Future[List[CellOutcome]], Tuple[List[CellSpec], Optional[float]]] = {}

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
        if self.ledger.store is None:
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

    # -- outcomes --------------------------------------------------------
    def _charge(
        self,
        spec: CellSpec,
        error_type: str,
        error: str,
        *,
        retryable: bool = True,
        pid: Optional[int] = None,
        wall: float = 0.0,
    ) -> None:
        """Book one failed attempt; queue the retry the ledger grants."""
        delay = self.ledger.charge(
            spec[:2], spec[6], error_type, error, retryable=retryable, pid=pid, wall=wall
        )
        if delay is not None:
            retry_spec = spec[:6] + (spec[6] + 1,)
            self.waiting_retry.append((time.monotonic() + delay, retry_spec))

    # -- pool management ------------------------------------------------
    def _make_pool(self) -> Optional[Executor]:
        try:
            return self.pool_factory(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.plan, self.fault_plan),
            )
        except Exception:  # noqa: BLE001 — degrade, never abort the sweep
            return None

    def _replace_pool(self, pool: Executor) -> Optional[Executor]:
        """Kill ``pool`` and build its successor; ``None`` when no pool
        can be built and the remaining cells were degraded instead."""
        _kill_pool(pool)
        replacement = self._make_pool()
        if replacement is None:
            self._degrade()
        return replacement

    def _degrade(self) -> None:
        """No pool: run the remaining cells in-process, or skip them."""
        if self.serial_fallback:
            self._run_serial_fallback()
            return
        for key in sorted(self.outstanding):
            self.ledger.skip(key, "process pool could not be created", "PoolUnavailable")

    def _handle_broken_pool(self) -> None:
        """Every in-flight chunk died with the pool: charge and retry."""
        for future, (chunk, _deadline) in list(self.inflight.items()):
            future.cancel()
            for spec in chunk:
                self._charge(
                    spec,
                    "BrokenProcessPool",
                    "worker process died while the cell was in flight",
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
                self._charge(
                    spec,
                    "TimeoutError",
                    f"chunk of {len(chunk)} cell(s) exceeded its "
                    f"{budget:.3g}s budget ({self.cell_timeout:.3g}s per cell)",
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
            key = spec[:2]
            if key not in self.outstanding:
                continue
            if self.interrupt is not None:
                self.ledger.skip(
                    key,
                    f"interrupted by {self._signal_name()} before the cell ran",
                    "Interrupted",
                )
                continue
            if self.ledger.records[key].error_type in _WORKER_KILLER_ERRORS:
                self.ledger.skip(
                    key,
                    "not re-run in-process: previous attempt crashed or "
                    "hung a worker",
                )
                continue
            attempt = spec[6]
            while key in self.outstanding and self.interrupt is None:
                (outcome,) = _execute_cells(
                    [spec[:6] + (attempt,)], self.plan, self.fault_plan
                )
                _label, _index, ok, payload, pid, wall = outcome
                if ok:
                    self.ledger.settle_ok(key, payload, pid=pid, wall=wall)
                    break
                error_type, error, retryable = payload
                delay = self.ledger.charge(
                    key, attempt, error_type, error,
                    retryable=retryable, pid=pid, wall=wall,
                )
                if delay is not None:
                    time.sleep(delay)
                attempt += 1

    # -- main loop -------------------------------------------------------
    def run(self) -> SweepResult:
        started = time.perf_counter()
        self.ledger.open()
        self._install_signal_handlers()
        try:
            if self.outstanding:
                pool = self._make_pool()
                if pool is None:
                    self._degrade()
                else:
                    self._dispatch_loop(pool)
            if self.interrupt is not None:
                self.manifest.interrupted = self._signal_name()
                for key in sorted(self.outstanding):
                    self.ledger.skip(
                        key, f"interrupted by {self._signal_name()}", "Interrupted"
                    )
        finally:
            self._restore_signal_handlers()
            self.ledger.close()
        return self.ledger.finish(time.perf_counter() - started)

    def _dispatch_loop(self, pool: Executor) -> None:
        """Keep ``workers`` chunks in flight until every cell settles; a
        broken or overdue pool is replaced, or the run degrades."""
        current: Optional[Executor] = pool
        try:
            while current is not None and self.outstanding:
                if self.interrupt is not None:
                    self._drain(current)
                    return
                now = time.monotonic()
                # Promote retries whose backoff has elapsed.
                self.ready.extend(
                    [spec] for when, spec in self.waiting_retry if when <= now
                )
                self.waiting_retry = [
                    (when, spec) for when, spec in self.waiting_retry if when > now
                ]
                if not self._submit_ready(current, now):
                    self._handle_broken_pool()
                elif not self.inflight:
                    if not self.waiting_retry:
                        return  # defensive: nothing queued, nothing running
                    pause = min(when for when, _spec in self.waiting_retry)
                    pause = max(0.0, pause - time.monotonic())
                    if self.ledger.store is not None:
                        # Stay responsive to SIGINT/SIGTERM drains.
                        pause = min(pause, _SIGNAL_POLL_S)
                    time.sleep(pause)
                    continue
                elif self._process_done(self._wait_some()):
                    self._handle_broken_pool()
                else:
                    now = time.monotonic()
                    overdue = [
                        future
                        for future, (_chunk, deadline) in self.inflight.items()
                        if deadline is not None and now >= deadline and not future.done()
                    ]
                    if not overdue:
                        continue
                    self._handle_timeouts(overdue)
                current = self._replace_pool(current)
        finally:
            if current is not None:
                _kill_pool(current)

    def _submit_ready(self, pool: Executor, now: float) -> bool:
        """Top the pool up to ``workers`` in-flight chunks, so every task
        starts immediately and submit-time deadlines are honest; ``False``
        when the pool turned out broken or shut down."""
        while self.ready and len(self.inflight) < self.workers:
            chunk = self.ready.popleft()
            deadline = (
                now + self.cell_timeout * len(chunk)
                if self.cell_timeout is not None
                else None
            )
            try:
                future = pool.submit(_run_chunk, chunk)
            except (BrokenProcessPool, RuntimeError):
                self.ready.appendleft(chunk)
                return False
            self.inflight[future] = (chunk, deadline)
        return True

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
        if self.ledger.store is not None:
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

    def _process_done(self, done: List[Future[List[CellOutcome]]]) -> bool:
        """Fold completed futures into the ledger; returns pool-broke.

        A chunk that died with the pool stays in flight: the caller's
        :meth:`_handle_broken_pool` charges it with the others."""
        pool_broke = False
        for future in done:
            if isinstance(future.exception(), BrokenProcessPool):
                pool_broke = True
                continue
            chunk, _deadline = self.inflight.pop(future)
            try:
                outcomes = future.result()
            except Exception as exc:  # noqa: BLE001 — e.g. unpicklable result
                for spec in chunk:
                    self._charge(spec, type(exc).__name__, str(exc))
            else:
                specs = {spec[:2]: spec for spec in chunk}
                for label, index, ok, payload, pid, wall in outcomes:
                    if ok:
                        self.ledger.settle_ok((label, index), payload, pid=pid, wall=wall)
                        continue
                    error_type, error, retryable = payload
                    self._charge(
                        specs[(label, index)], error_type, error,
                        retryable=retryable, pid=pid, wall=wall,
                    )
        return pool_broke


# ----------------------------------------------------------------------
# Public sweeps
# ----------------------------------------------------------------------
def parallel_order_sweep(
    entries: Iterable[Entry],
    machine: MulticoreMachine,
    orders: Sequence[int],
    *,
    workers: Optional[int] = None,
    inclusive: bool = False,
    policy: str = "lru",
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
    plan = order_plan(entries, machine, orders, inclusive=inclusive, policy=policy)
    ledger = CellLedger(
        plan,
        retries=retries,
        backoff=backoff,
        store=RunStore(run_dir) if run_dir is not None else None,
        resume=resume,
        encode=result_to_dict,
        decode=result_from_dict,
    )
    engine = _SweepEngine(
        ledger,
        workers=_resolve_workers(workers),
        cell_timeout=cell_timeout,
        chunksize=chunksize,
        fault_plan=fault_plan,
        serial_fallback=serial_fallback,
        pool_factory=pool_factory,
        drain_grace_s=drain_grace_s,
    )
    sweep = engine.run()
    if manifest_path is not None and sweep.manifest is not None:
        sweep.manifest.write(manifest_path)
    return sweep
