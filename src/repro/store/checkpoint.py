"""Append-only JSONL checkpoint log with checksums and tail repair.

The checkpoint is the durable heart of a run directory: every completed
sweep cell becomes one JSON line, flushed and fsynced *immediately*, so
a SIGKILL one instruction later loses at most the record being written
— never a completed cell.  Each record carries:

* ``fp`` — the deterministic **cell fingerprint**
  (:func:`cell_fingerprint` of a :class:`CellKey`): a hash of
  everything that determines the cell's *result* — algorithm, setting,
  resolved kwargs, machine specification, swept variable and x value,
  dimensions.  Engine knobs (workers, timeouts, retries, chunking) have
  no :class:`CellKey` field: a re-run with different infrastructure
  settings must still hit the checkpoint.
* ``sum`` — a SHA-256 content checksum over the canonical JSON of the
  record (minus the checksum itself), so bit rot or hand editing is
  *detected*, not silently replayed.

Corruption semantics on load (:func:`load_checkpoint`):

* a **torn tail** — the final line is incomplete or unparseable, the
  signature of a crash mid-append — is tolerated: the record is
  dropped with a warning and the cell simply re-runs;
* a **checksum mismatch** or an unparseable/incomplete *interior*
  record **quarantines** that record: it is never replayed, the cell
  is recomputed, and the quarantine is reported (``repro-mmm runs
  verify`` surfaces it);
* duplicate fingerprints are legal (a resume re-appends): the loader
  keeps the *last* valid record per fingerprint, with ``ok`` records
  taking precedence over failure records.

:meth:`CheckpointWriter.open` repairs a torn tail before appending —
truncating the partial line — so one crash never poisons the next
resume's log with an interior corrupt record.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.model.machine import MulticoreMachine
from repro.store.serde import machine_to_dict

#: Checkpoint record schema; bump on incompatible layout changes.
CHECKPOINT_SCHEMA = 1


#: Entry kwargs that choose an engine, never a result: every ``engine=``
#: selects a bit-identical code path.
ENGINE_KWARGS = ("engine",)


@dataclass(frozen=True)
class CellKey:
    """The declared parameters that determine one sweep cell's result.

    Resume correctness (``docs/RUNSTORE.md``) rests on a fingerprint
    being a pure function of these fields.  Engine knobs (``workers``,
    timeouts, retries, backoff, chunking, run-dir paths) have no field
    to travel in: ``CellKey(..., workers=2)`` raises ``TypeError`` and
    fails ``mypy --strict``.  The constructor also drops
    :data:`ENGINE_KWARGS` from ``kwargs``, so an entry's
    ``(algorithm, setting, kwargs)`` triple can be splatted in as is.
    """

    algorithm: str
    setting: str
    kwargs: Mapping[str, Any]
    machine: MulticoreMachine
    variable: str
    x: Any
    m: int
    n: int
    z: int

    def __post_init__(self) -> None:
        kept = {k: v for k, v in self.kwargs.items() if k not in ENGINE_KWARGS}
        object.__setattr__(self, "kwargs", kept)


def cell_fingerprint(key: CellKey) -> str:
    """Deterministic identity of one sweep cell's *result*.

    Two cells share a fingerprint exactly when a correct simulator must
    produce identical results for them.  The machine's cosmetic ``name``
    is excluded (it never affects a simulation); engine knobs cannot be
    part of a :class:`CellKey` at all, so retrying or re-sharding a
    sweep never invalidates its checkpoint.
    """
    payload = {f.name: getattr(key, f.name) for f in fields(key)}
    payload["kwargs"] = dict(key.kwargs)
    payload["machine"] = machine_to_dict(key.machine)
    payload["machine"].pop("name", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _checksum(payload: Mapping[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def seal_record(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Return ``payload`` with its content checksum under ``"sum"``."""
    body = {k: v for k, v in payload.items() if k != "sum"}
    return {**body, "sum": _checksum(body)}


def record_intact(record: Mapping[str, Any]) -> bool:
    """Whether a parsed record's checksum matches its content."""
    declared = record.get("sum")
    if not isinstance(declared, str):
        return False
    body = {k: v for k, v in record.items() if k != "sum"}
    return _checksum(body) == declared


@dataclass
class QuarantinedRecord:
    """One checkpoint line that cannot be trusted."""

    line: int  # 1-based line number in the log
    reason: str
    fingerprint: Optional[str] = None

    def describe(self) -> str:
        fp = f" (cell {self.fingerprint[:12]}…)" if self.fingerprint else ""
        return f"line {self.line}: {self.reason}{fp}"


@dataclass
class LoadedCheckpoint:
    """Result of parsing a checkpoint log, corruption and all."""

    #: Last valid record per fingerprint, ``ok`` taking precedence.
    records: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Lines that failed checksum/parse and will force a recompute.
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    #: Whether the final line was dropped as a torn (crash-truncated) tail.
    torn_tail: bool = False
    #: Total physical lines seen (including bad ones).
    total_lines: int = 0
    #: Human-readable load warnings, in order.
    warnings: List[str] = field(default_factory=list)

    def ok_records(self) -> Dict[str, Dict[str, Any]]:
        """Fingerprint → record for cells that completed successfully."""
        return {
            fp: record
            for fp, record in self.records.items()
            if record.get("status") == "ok"
        }


def _parse_line(text: str) -> Tuple[Optional[Dict[str, Any]], str]:
    """Parse one checkpoint line; returns (record, reason-if-bad)."""
    try:
        record = json.loads(text)
    except ValueError:
        return None, "unparseable JSON"
    if not isinstance(record, dict):
        return None, "record is not a JSON object"
    if record.get("schema") != CHECKPOINT_SCHEMA:
        return record, f"unsupported record schema {record.get('schema')!r}"
    if not isinstance(record.get("fp"), str):
        return record, "record has no fingerprint"
    if not record_intact(record):
        return record, "content checksum mismatch"
    return record, ""


@dataclass
class SealedLog:
    """Every intact record of a sealed JSONL log, *in append order*.

    This is the event-log view of a checkpoint-format file: unlike
    :class:`LoadedCheckpoint` it performs **no deduplication** — the
    fabric journal (:mod:`repro.fabric.journal`) is a history, and
    collapsing events by fingerprint would erase exactly the
    re-lease/retry story the journal exists to tell.
    """

    #: Intact records in file order.
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Lines that failed checksum/parse (interior corruption).
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    #: Whether the final line was dropped as a torn (crash-truncated) tail.
    torn_tail: bool = False
    #: Total physical lines seen (including bad ones).
    total_lines: int = 0


def load_sealed_lines(path: Union[str, Path]) -> SealedLog:
    """Parse a sealed JSONL log in order, tolerating a torn tail.

    A missing file is an empty log.  Shares the line grammar of
    :func:`load_checkpoint` (schema tag, fingerprint, content
    checksum): a torn final line is dropped and flagged, an interior
    bad line is quarantined, and everything intact is returned in
    append order without dedup.
    """
    log = SealedLog()
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return log
    text = raw.decode("utf-8", errors="replace")
    lines = text.split("\n")
    # A well-formed log ends with a newline, so the final split element
    # is empty; anything else is an unterminated (torn) final line.
    unterminated = lines and lines[-1] != ""
    if lines and lines[-1] == "":
        lines = lines[:-1]
    log.total_lines = len(lines)
    for number, line in enumerate(lines, start=1):
        record, reason = _parse_line(line)
        last = number == len(lines)
        if reason:
            if last and (unterminated or record is None):
                log.torn_tail = True
            else:
                fp = record.get("fp") if isinstance(record, dict) else None
                log.quarantined.append(
                    QuarantinedRecord(
                        line=number,
                        reason=reason,
                        fingerprint=fp if isinstance(fp, str) else None,
                    )
                )
            continue
        assert record is not None
        log.records.append(record)
    return log


def load_checkpoint(path: Union[str, Path]) -> LoadedCheckpoint:
    """Parse a checkpoint log, tolerating a torn tail.

    A missing file is an empty checkpoint.  See the module docstring
    for the exact corruption semantics.
    """
    loaded = LoadedCheckpoint()
    log = load_sealed_lines(path)
    loaded.total_lines = log.total_lines
    loaded.quarantined = list(log.quarantined)
    loaded.torn_tail = log.torn_tail
    if log.torn_tail:
        loaded.warnings.append(
            f"dropped torn checkpoint tail at line {log.total_lines} "
            "(crash mid-append); the cell will be recomputed"
        )
    for bad in log.quarantined:
        loaded.warnings.append(
            f"quarantined checkpoint record at line {bad.line} "
            f"({bad.reason}); the cell will be recomputed"
        )
    for record in log.records:
        fp = record["fp"]
        previous = loaded.records.get(fp)
        if previous is None or record.get("status") == "ok" or previous.get("status") != "ok":
            loaded.records[fp] = record
    return loaded


def _intact_prefix_length(raw: bytes) -> int:
    """Byte length of the longest prefix of whole, newline-terminated lines."""
    end = raw.rfind(b"\n")
    return end + 1 if end >= 0 else 0


class CheckpointWriter:
    """Append-only, fsync-per-record writer over a checkpoint log.

    Opening for append first *repairs the tail*: a trailing partial
    line (crash mid-append) is truncated away so the log stays a clean
    sequence of complete records.  Interior lines are never rewritten —
    the log is append-only once a line is terminated.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_tail()
        self._fh: Optional[io.BufferedWriter] = open(self.path, "ab")

    def _repair_tail(self) -> None:
        try:
            raw = self.path.read_bytes()
        except OSError:
            return
        keep = _intact_prefix_length(raw)
        if keep < len(raw):
            with open(self.path, "r+b") as fh:
                fh.truncate(keep)
                fh.flush()
                os.fsync(fh.fileno())

    def append(self, payload: Dict[str, Any]) -> None:
        """Seal, append and fsync one record; durable on return."""
        if self._fh is None:
            raise ValueError("checkpoint writer is closed")
        record = seal_record({"schema": CHECKPOINT_SCHEMA, **payload})
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self._fh.write(line.encode("utf-8"))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
