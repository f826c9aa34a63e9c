"""Durable run store: crash-safe checkpointing and atomic artifacts.

``repro.store`` is the persistence layer that makes long sweeps behave
like preemptible training jobs instead of all-or-nothing scripts:

* :mod:`repro.store.atomic` — the one tmp-file + fsync + rename writer
  every artifact in the repository goes through;
* :mod:`repro.store.serde` — exact JSON round-tripping of
  :class:`~repro.sim.results.ExperimentResult`;
* :mod:`repro.store.checkpoint` — the append-only, checksummed JSONL
  cell checkpoint log with torn-tail repair and record quarantine;
* :mod:`repro.store.rundir` — run directories (`run.json`,
  `checkpoint.jsonl`, `manifest.json`) plus auditing and listing.

See ``docs/RUNSTORE.md`` for the on-disk formats and corruption
semantics, and ``docs/SWEEPS.md`` for how the sweep engine resumes.
"""

from repro.store.atomic import atomic_write_bytes, atomic_write_text
from repro.store.checkpoint import (
    CHECKPOINT_SCHEMA,
    CellKey,
    CheckpointWriter,
    LoadedCheckpoint,
    QuarantinedRecord,
    SealedLog,
    cell_fingerprint,
    load_checkpoint,
    load_sealed_lines,
    record_intact,
    seal_record,
)
from repro.store.rundir import (
    RUN_KIND,
    RUN_SCHEMA,
    STATUS_COMPLETE,
    STATUS_INCOMPLETE,
    STATUS_INTERRUPTED,
    STATUS_RUNNING,
    RunAudit,
    RunStore,
    list_runs,
)
from repro.store.serde import result_from_dict, result_to_dict

__all__ = [
    "CHECKPOINT_SCHEMA",
    "RUN_KIND",
    "RUN_SCHEMA",
    "STATUS_COMPLETE",
    "STATUS_INCOMPLETE",
    "STATUS_INTERRUPTED",
    "STATUS_RUNNING",
    "CellKey",
    "CheckpointWriter",
    "LoadedCheckpoint",
    "QuarantinedRecord",
    "RunAudit",
    "RunStore",
    "SealedLog",
    "atomic_write_bytes",
    "atomic_write_text",
    "cell_fingerprint",
    "list_runs",
    "load_checkpoint",
    "load_sealed_lines",
    "record_intact",
    "result_from_dict",
    "result_to_dict",
    "seal_record",
]
