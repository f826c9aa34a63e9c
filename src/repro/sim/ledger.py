"""One sweep's cells from plan to manifest, shared by both executors.

The paper's evidence (Figs. 4–12) is a grid of independent
(algorithm, setting, order or bandwidth-ratio) cells.  Two transports
fan the order grids out — the process pool
(:mod:`repro.sim.parallel`) and the lease-based fabric coordinator
(:mod:`repro.fabric.coordinator`) — and both keep their books here:

* :class:`SweepPlan` — the cells of an order sweep: series
  labels, machines, ``run_experiment`` kwargs and each cell's
  :class:`~repro.store.checkpoint.CellKey` fingerprint.  Unknown
  algorithm or setting names are rejected while planning, before any
  worker starts.
* :class:`CellLedger` — every cell's
  :class:`~repro.sim.telemetry.CellRecord` and result, resume from a
  run directory, the per-cell checkpoint append, the retry-or-fail
  decision (:class:`~repro.sim.retrypolicy.BackoffPolicy`) and the
  final ``run.json`` status and :class:`~repro.sim.telemetry.RunManifest`.

A transport decides where and when an attempt runs; the ledger decides
what its outcome means.  Cells are keyed by ``(label, x-index)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algorithms.registry import get_algorithm
from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine
from repro.sim.results import ExperimentResult, SweepResult
from repro.sim.retrypolicy import BackoffPolicy
from repro.sim.settings import get_setting
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

#: A cell's identity inside one sweep: (series label, x-index).
CellId = Tuple[str, int]

#: One planned cell: (label, x-index, machine-index, m, n, z).
PlanCell = Tuple[str, int, int, int, int, int]


@dataclass(frozen=True)
class SweepPlan:
    """Every cell of one sweep and what ``run_experiment`` needs for it."""

    variable: str
    xs: List[Any]
    labels: List[str]
    cells: List[PlanCell]
    machines: List[MulticoreMachine]
    #: Per label: (algorithm, setting, ``run_experiment`` kwargs).
    entries: Dict[str, Tuple[str, str, Dict[str, Any]]]

    def fingerprint(self, cell: PlanCell) -> str:
        label, index, machine, m, n, z = cell
        return cell_fingerprint(
            CellKey(
                *self.entries[label],
                machine=self.machines[machine],
                variable=self.variable,
                x=self.xs[index],
                m=m,
                n=n,
                z=z,
            )
        )


def order_plan(
    entries: Iterable[Entry],
    machine: MulticoreMachine,
    orders: Sequence[int],
    **run_kwargs: Any,
) -> SweepPlan:
    """Cells of :func:`repro.sim.sweep.order_sweep` (square ``m=n=z``)."""
    labels: List[str] = []
    table: Dict[str, Tuple[str, str, Dict[str, Any]]] = {}
    cells: List[PlanCell] = []
    for algorithm, setting, params, label in resolve_entries(entries):
        get_algorithm(algorithm)
        get_setting(setting)
        labels.append(label)
        table[label] = (algorithm, setting, dict(**run_kwargs, **params))
        for index, order in enumerate(orders):
            cells.append((label, index, 0, order, order, order))
    return SweepPlan("order", list(orders), labels, cells, [machine], table)


class CellLedger:
    """The books of one sweep execution, whichever transport runs it.

    ``records``, ``results``, ``outstanding`` and ``fingerprints`` are
    updated in place and never rebound, so a transport may hold them.
    ``encode``/``decode`` (de)serialize checkpointed results; each
    transport passes the ``result_to_dict``/``result_from_dict`` its
    own module imports, where perfbench's traced run times serde.
    """

    def __init__(
        self,
        plan: SweepPlan,
        *,
        retries: int,
        backoff: float,
        store: Optional[RunStore] = None,
        resume: bool = False,
        restore_failed: bool = False,
        encode: Callable[[ExperimentResult], Dict[str, Any]] = result_to_dict,
        decode: Callable[[Dict[str, Any]], ExperimentResult] = result_from_dict,
    ) -> None:
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if resume and store is None:
            raise ConfigurationError("resume=True requires a run_dir")
        self.plan = plan
        self.retries = retries
        self.backoff_policy = BackoffPolicy(base_s=backoff)
        self.store = store
        self.resume = resume
        self.encode = encode
        self.decode = decode
        self.writer: Optional[CheckpointWriter] = None
        self.records: Dict[CellId, CellRecord] = {
            (label, index): CellRecord(
                label=label, index=index, x=plan.xs[index], status=STATUS_SKIPPED
            )
            for label, index, *_rest in plan.cells
        }
        self.results: Dict[CellId, ExperimentResult] = {}
        self.outstanding: Set[CellId] = set(self.records)
        self.manifest = RunManifest(
            variable=plan.variable,
            xs=plan.xs,
            workers=0,
            cell_timeout_s=None,
            retries=retries,
            backoff_s=backoff,
            chunksize=1,
        )
        #: Per cell: its checkpoint identity (only store-backed runs).
        self.fingerprints: Dict[CellId, str] = (
            {(c[0], c[1]): plan.fingerprint(c) for c in plan.cells}
            if store is not None
            else {}
        )
        if resume:
            self._restore(restore_failed)

    # -- run directory ---------------------------------------------------
    def _restore(self, restore_failed: bool) -> None:
        """Reload finished cells from the run directory's checkpoint log.

        ``ok`` cells always restore; ``failed`` cells only with
        ``restore_failed`` (the fabric: a failed cell already spent its
        retry budget and has its journal terminal, so re-running it
        would emit a second one).  A record whose payload does not
        deserialize counts as quarantined and its cell recomputes.
        """
        assert self.store is not None
        loaded = self.store.load_checkpoint()
        self.manifest.quarantined_records = len(loaded.quarantined)
        for key, fp in self.fingerprints.items():
            saved = loaded.records.get(fp)
            if saved is None:
                continue
            record = self.records[key]
            status = saved.get("status")
            if status == STATUS_OK:
                try:
                    result = self.decode(saved["result"])
                except (KeyError, TypeError, ValueError):
                    self.manifest.quarantined_records += 1
                    continue
                self._fill_ok(key, result)
                record.worker = result.worker
            elif status == STATUS_FAILED and restore_failed:
                record.status = STATUS_FAILED
                record.attempts = int(saved.get("attempts", 0))
                error_type, error = saved.get("error_type"), saved.get("error")
                record.error_type = None if error_type is None else str(error_type)
                record.error = None if error is None else str(error)
                self.outstanding.discard(key)
            else:
                continue
            record.wall_s = float(saved.get("wall_s", 0.0))
            record.resumed = True
            self.manifest.resumed_cells += 1

    def open(self, **config: Any) -> bool:
        """Stamp ``run.json`` and open the checkpoint log for appending.

        The ``engine`` block comes from the manifest; ``config`` adds
        transport-specific blocks.  Returns whether this run continues
        an existing run directory.
        """
        if self.store is None:
            return False
        manifest = self.manifest
        config = {
            "variable": manifest.variable,
            "xs": manifest.xs,
            "labels": self.plan.labels,
            "engine": {
                "workers": manifest.workers,
                "cell_timeout_s": manifest.cell_timeout_s,
                "retries": manifest.retries,
                "backoff_s": manifest.backoff_s,
                "chunksize": manifest.chunksize,
            },
            **config,
        }
        resumed = self.resume and self.store.exists()
        if resumed:
            meta = self.store.load_meta() or {}
            self.store.update_meta(
                status=STATUS_RUNNING,
                resumes=int(meta.get("resumes", 0)) + 1,
                **config,
            )
        else:
            self.store.initialize(config)
        self.writer = self.store.checkpoint_writer()
        return resumed

    def close(self) -> None:
        """Close the checkpoint log (idempotent)."""
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    def finish(self, elapsed_s: float) -> SweepResult:
        """Assemble the sweep; write its manifest and final status."""
        self.close()
        manifest = self.manifest
        manifest.elapsed_s = elapsed_s
        manifest.cells = list(self.records.values())
        sweep = SweepResult(variable=manifest.variable, xs=list(manifest.xs))
        for label in self.plan.labels:
            sweep.add(label, [self.results.get((label, i)) for i in range(len(manifest.xs))])
        sweep.failures = [r for r in manifest.cells if r.status != STATUS_OK]
        sweep.manifest = manifest
        sweep.interrupted = manifest.interrupted
        if self.store is not None:
            manifest.write(self.store.manifest_path)
            counts = manifest.counts()
            if manifest.interrupted is not None:
                status = STATUS_INTERRUPTED
            elif counts[STATUS_FAILED] or counts[STATUS_SKIPPED]:
                status = STATUS_INCOMPLETE
            else:
                status = STATUS_COMPLETE
            self.store.update_meta(
                status=status,
                cell_counts=counts,
                resumed_cells=manifest.resumed_cells,
                interrupted=manifest.interrupted,
                elapsed_s=round(manifest.elapsed_s, 6),
            )
        return sweep

    # -- outcomes --------------------------------------------------------
    def settle_ok(
        self,
        key: CellId,
        result: ExperimentResult,
        *,
        pid: Optional[int] = None,
        wall: float = 0.0,
    ) -> None:
        """An attempt produced ``result``: the cell is ``ok``, durably."""
        self._credit(key, pid, wall)
        self._fill_ok(key, result)
        self._append(key, STATUS_OK, result)

    def charge(
        self,
        key: CellId,
        attempt: int,
        error_type: str,
        error: str,
        *,
        retryable: bool = True,
        pid: Optional[int] = None,
        wall: float = 0.0,
    ) -> Optional[float]:
        """An attempt failed: the backoff before attempt ``attempt + 1``,
        or ``None`` when the cell is now durably ``failed``."""
        record = self._credit(key, pid, wall)
        record.attempts = max(record.attempts, attempt)
        record.error_type = error_type
        record.error = error
        if retryable and attempt <= self.retries:
            return self.backoff_policy.delay(attempt, key=f"{key[0]}:{key[1]}")
        record.status = STATUS_FAILED
        self._append(key, STATUS_FAILED)
        return None

    def skip(self, key: CellId, reason: str, error_type: str = "Skipped") -> None:
        """Give up on a cell without running it (again), durably."""
        record = self.records[key]
        record.status = STATUS_SKIPPED
        if record.error:
            reason += f" (last error: {record.error})"
        record.error = reason
        if record.error_type is None:
            record.error_type = error_type
        self._append(key, STATUS_SKIPPED)

    def _credit(self, key: CellId, pid: Optional[int], wall: float) -> CellRecord:
        """Charge one attempt's wall time to the cell and its worker."""
        record = self.records[key]
        record.wall_s += wall
        if pid is not None:
            record.worker = pid
            self.manifest.record_execution(pid, wall)
        return record

    def _fill_ok(self, key: CellId, result: ExperimentResult) -> None:
        """Fill a cell's record from its result: the only place that does."""
        record = self.records[key]
        record.status = STATUS_OK
        record.attempts = max(record.attempts, result.attempts)
        record.error_type = None
        record.error = None
        self.results[key] = result
        self.outstanding.discard(key)

    def _append(
        self, key: CellId, status: str, result: Optional[ExperimentResult] = None
    ) -> None:
        """Finalize a cell and flush it to the checkpoint log (durable on return)."""
        self.outstanding.discard(key)
        if self.writer is None:
            return
        serialized = self.encode(result) if result is not None else None
        self.writer.append(
            self.records[key].checkpoint_payload(
                self.fingerprints[key], status, serialized
            )
        )
