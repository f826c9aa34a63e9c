"""Sweep telemetry: per-cell records, worker utilization, run manifests.

The sweep engine (:mod:`repro.sim.parallel`) is infrastructure: when a
figure sweep of dozens of cells runs for minutes across a process pool,
"it returned a SweepResult" is not enough evidence of *what* actually
ran.  This module holds the observability layer:

* :class:`CellRecord` — one (series, x) cell's outcome: status, attempt
  count, cumulative in-worker wall time, the error that killed it (for
  failed cells) and the worker that produced the final outcome.
* :class:`WorkerStats` — per worker process: cells executed and busy
  seconds, from which the manifest derives pool utilization.
* :class:`RunManifest` — the JSON run manifest written alongside a
  sweep: engine configuration (timeout/retry/backoff/chunking), every
  cell record, worker statistics and ok/failed/skipped totals
  (mirroring the checker's schema-2 cell accounting).

Everything here is plain data; :mod:`repro.sim.ledger` owns the
bookkeeping for both sweep executors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.store.atomic import atomic_write_text

#: Cell statuses in the manifest.  ``ok`` — produced a result; ``failed``
#: — every attempt errored or timed out; ``skipped`` — never (re)ran,
#: e.g. a suspected worker-killer that the in-process fallback refuses
#: to execute.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"

#: Manifest schema version; bump on incompatible layout changes.
#: Schema 2 adds resume/interruption accounting (``resumed_cells``,
#: ``quarantined_records``, ``interrupted``, per-cell ``resumed``).
#: Schema 3 adds the optional ``fabric`` block (lease/requeue/worker-
#: death accounting for coordinator/worker runs).
MANIFEST_SCHEMA = 3


@dataclass
class CellRecord:
    """Outcome of one sweep cell (one series label at one x value)."""

    label: str
    index: int
    x: Any
    status: str = STATUS_OK
    attempts: int = 0
    wall_s: float = 0.0
    error_type: Optional[str] = None
    error: Optional[str] = None
    worker: Optional[int] = None
    #: Whether the result was restored from a run-directory checkpoint
    #: instead of being executed by this engine run.
    resumed: bool = False
    #: Whether replay was requested but the step engine ran the cell
    #: (see :func:`repro.cache.replay.replays`).
    engine_fallback: bool = False
    #: Replay-engine telemetry mirrored off the result: which kernel
    #: evaluated the cell (``"bulk-lru"``/``"bulk-fifo"``/``"ideal"``/
    #: ``"step"``) and where its compiled trace came from
    #: (``"compiled"``/``"memory"``/``"disk"``; older manifests may say
    #: ``"streamed"``).  Empty when unknown
    #: (failed cells, manifests predating the fields).
    kernel: str = ""
    trace_source: str = ""

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "label": self.label,
            "index": self.index,
            "x": self.x,
            "status": self.status,
            "attempts": self.attempts,
            "wall_s": round(self.wall_s, 6),
        }
        if self.error_type is not None:
            d["error_type"] = self.error_type
        if self.error is not None:
            d["error"] = self.error
        if self.worker is not None:
            d["worker"] = self.worker
        if self.resumed:
            d["resumed"] = True
        if self.engine_fallback:
            d["engine_fallback"] = True
        if self.kernel:
            d["kernel"] = self.kernel
        if self.trace_source:
            d["trace_source"] = self.trace_source
        return d

    def checkpoint_payload(
        self, fp: str, status: str, result: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """This cell's checkpoint-log record, shared by every executor.

        ``result`` is the already-serialized result of an ``ok`` cell;
        without one the record carries the cell's error instead.
        """
        payload: Dict[str, Any] = {
            "fp": fp,
            "label": self.label,
            "index": self.index,
            "x": self.x,
            "status": status,
            "attempts": self.attempts,
            "wall_s": round(self.wall_s, 6),
        }
        if result is not None:
            payload["result"] = result
        else:
            payload["error_type"] = self.error_type
            payload["error"] = self.error
        return payload


@dataclass
class WorkerStats:
    """Aggregate statistics of one worker process (keyed by pid)."""

    pid: int
    cells: int = 0
    busy_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "cells": self.cells,
            "busy_s": round(self.busy_s, 6),
        }


@dataclass
class FabricStats:
    """Lease/requeue/worker-death accounting of one fabric run.

    The counters tell the complete custody story of every cell: each
    granted lease ends in exactly one of a result accepted
    (``results_accepted``), an expiry requeue (``expired_leases``) or —
    for a stalled worker whose cell was re-leased and completed by
    someone else first — a duplicate-superseded release.  Retries
    (``retried_failures``) count accepted *failure* results that were
    requeued within the retry budget, and ``duplicate_results`` counts
    late submissions for already-finalized cells (dedup made them
    harmless).  ``workers_lost`` is the number of distinct workers
    whose leases expired — crashed, stalled or partitioned.
    """

    leases_granted: int = 0
    results_accepted: int = 0
    expired_leases: int = 0
    retried_failures: int = 0
    duplicate_results: int = 0
    heartbeats: int = 0
    workers_seen: int = 0
    workers_lost: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "leases_granted": self.leases_granted,
            "results_accepted": self.results_accepted,
            "expired_leases": self.expired_leases,
            "retried_failures": self.retried_failures,
            "duplicate_results": self.duplicate_results,
            "heartbeats": self.heartbeats,
            "workers_seen": self.workers_seen,
            "workers_lost": self.workers_lost,
        }


@dataclass
class RunManifest:
    """What one sweep engine run actually did, ready for JSON export."""

    variable: str
    xs: List[Any]
    workers: int
    cell_timeout_s: Optional[float]
    retries: int
    backoff_s: float
    chunksize: int
    elapsed_s: float = 0.0
    pool_rebuilds: int = 0
    serial_fallback: bool = False
    #: Cells restored from a run-directory checkpoint (never dispatched).
    resumed_cells: int = 0
    #: Checkpoint records rejected on load (checksum mismatch / corrupt).
    quarantined_records: int = 0
    #: Signal name (``"SIGINT"``/``"SIGTERM"``) when the run was
    #: interrupted and drained instead of finishing.
    interrupted: Optional[str] = None
    cells: List[CellRecord] = field(default_factory=list)
    worker_stats: List[WorkerStats] = field(default_factory=list)
    #: Present only for coordinator/worker (fabric) runs.
    fabric: Optional[FabricStats] = None

    def counts(self) -> Dict[str, int]:
        """Cell totals by status: ``{"ok": …, "failed": …, "skipped": …}``."""
        out = {STATUS_OK: 0, STATUS_FAILED: 0, STATUS_SKIPPED: 0}
        for cell in self.cells:
            out[cell.status] = out.get(cell.status, 0) + 1
        return out

    @property
    def engine_fallbacks(self) -> int:
        """Cells whose requested replay engine degraded to step."""
        return sum(1 for cell in self.cells if cell.engine_fallback)

    def utilization(self) -> float:
        """Fraction of the pool's capacity spent running cells.

        ``sum(worker busy time) / (elapsed * workers)``; 0 when the run
        finished instantaneously or never dispatched.
        """
        denom = self.elapsed_s * max(self.workers, 1)
        if denom <= 0:
            return 0.0
        return min(1.0, sum(w.busy_s for w in self.worker_stats) / denom)

    def record_execution(self, pid: int, wall_s: float) -> None:
        """Credit one cell execution to worker ``pid``."""
        for stats in self.worker_stats:
            if stats.pid == pid:
                stats.cells += 1
                stats.busy_s += wall_s
                return
        self.worker_stats.append(WorkerStats(pid=pid, cells=1, busy_s=wall_s))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema": MANIFEST_SCHEMA,
            "variable": self.variable,
            "xs": list(self.xs),
            "engine": {
                "workers": self.workers,
                "cell_timeout_s": self.cell_timeout_s,
                "retries": self.retries,
                "backoff_s": self.backoff_s,
                "chunksize": self.chunksize,
                "pool_rebuilds": self.pool_rebuilds,
                "serial_fallback": self.serial_fallback,
            },
            "resumed_cells": self.resumed_cells,
            "quarantined_records": self.quarantined_records,
            "engine_fallbacks": self.engine_fallbacks,
            "interrupted": self.interrupted,
            "cells": [cell.to_dict() for cell in self.cells],
            "cell_counts": self.counts(),
            "workers": [w.to_dict() for w in sorted(self.worker_stats, key=lambda s: s.pid)],
            "utilization": round(self.utilization(), 6),
            "elapsed_s": round(self.elapsed_s, 6),
        }
        if self.fabric is not None:
            out["fabric"] = self.fabric.to_dict()
        return out

    def write(self, path: Union[str, Path]) -> Path:
        """Atomically write the manifest as indented JSON; returns the path."""
        return atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")
