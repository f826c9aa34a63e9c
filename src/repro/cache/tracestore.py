"""On-disk content-addressed tier for compiled traces (memmap-shared).

No compiled trace stays in memory: without a tier, every replay cell
that misses the result memo compiles its schedule's trace.  This
module gives :func:`repro.cache.replay.compiled_trace_for` a
cross-process store — a content-addressed directory of ``np.save``
artifacts under the root a process configures
(:func:`repro.cache.replay.configure_trace_tier`; ``repro-mmm figure
--trace-tier``):

.. code-block:: text

    <root>/<key[:2]>/<key>/fmas.npy   # (n, 4) int64 compute stream
    <root>/<key[:2]>/<key>/dirs.npy   # (4, d) int64 directives (optional)
    <root>/<key[:2]>/<key>/meta.json  # format version, p, comp, counts

``key`` is the SHA-256 of the trace's
:class:`~repro.algorithms.base.ScheduleKey` (the key the result memo
starts from), so identical schedules hash to identical entries no matter
which process compiled them, or for which bandwidths.  Readers memmap
``fmas.npy`` read-only — IDEAL replay reads only its core and C
columns, so N processes share one page-cache copy of a trace instead
of N private recompilations.

Crash consistency without locks: every file is written through
:func:`repro.store.atomic_write_bytes` (tmp + fsync + rename), and
``meta.json`` is written *last* — a reader that finds no valid
``meta.json`` treats the entry as absent, so a torn store (crash
between files) is a cache miss, never a corrupt trace.  Concurrent
stores of the same entry are idempotent races: both writers produce
byte-identical content, and the atomic renames make either winner
valid.  Overwrites (the directive-upgrade path) atomically replace the
files; existing memmaps keep their old inodes alive until unmapped.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
from typing import Any, Dict, Hashable, Optional, Union

import numpy as np

from repro.store import atomic_write_bytes, atomic_write_text

#: Bump when the on-disk layout changes; readers reject other versions
#: (a stale cache directory degrades to misses, never to bad data).
FORMAT_VERSION = 1

_META_NAME = "meta.json"
_FMAS_NAME = "fmas.npy"
_DIRS_NAME = "dirs.npy"


def content_key(schedule: Hashable) -> str:
    """Stable content address of a schedule key.

    ``schedule`` is a :class:`~repro.algorithms.base.ScheduleKey`:
    algorithm name, core count, shape and the tile plan the schedule
    reads — not the bandwidths, nor a capacity the plan does not read.
    Its ``repr`` is deterministic (a frozen dataclass over ints, strings
    and a sorted plan tuple), so hashing it gives the same address in
    every process and across runs, which is what lets CI cache the tier
    across workflow runs keyed on content.
    """
    digest = hashlib.sha256(
        f"v{FORMAT_VERSION}:{schedule!r}".encode("utf-8")
    )
    return digest.hexdigest()


def entry_dir(root: Union[str, Path], schedule: Hashable) -> Path:
    """Directory holding ``schedule``'s trace (may not exist)."""
    key = content_key(schedule)
    return Path(root) / key[:2] / key


def _save_array(path: Path, arr: "np.ndarray") -> None:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr))
    atomic_write_bytes(path, buf.getvalue())


def store(root: Union[str, Path], schedule: Hashable, trace: Any) -> bool:
    """Persist a compiled trace under its content address.

    ``trace`` is a :class:`repro.cache.replay.CompiledTrace` (typed as
    ``Any`` to keep this module import-light).  Write order is arrays
    first, ``meta.json`` last — the entry only becomes visible to
    readers once every byte of it is durably in place.  Best-effort:
    returns ``False`` instead of raising, so a full disk degrades the
    tier to a no-op rather than failing sweeps.
    """
    entry = entry_dir(root, schedule)
    try:
        entry.mkdir(parents=True, exist_ok=True)
        _save_array(entry / _FMAS_NAME, trace.fma_array)
        dir_lists = trace._dir_lists
        has_dirs = dir_lists is not None
        if has_dirs:
            dirs = np.asarray(dir_lists, dtype=np.int64).reshape(4, -1)
            _save_array(entry / _DIRS_NAME, dirs)
        meta = {
            "format": FORMAT_VERSION,
            "p": trace.p,
            "comp": list(trace.comp),
            "n_fmas": int(trace.fma_array.shape[0]),
            "has_directives": has_dirs,
        }
        atomic_write_text(
            entry / _META_NAME, json.dumps(meta, sort_keys=True)
        )
    except OSError:
        return False
    return True


def load(root: Union[str, Path], schedule: Hashable) -> Optional[Any]:
    """Load ``schedule``'s trace from the tier, or ``None`` on miss.

    The compute stream comes back as a read-only memmap, so page cache
    (shared across processes) backs the replay instead of private heap
    copies.  Any inconsistency
    (missing/invalid ``meta.json``, wrong format version, shape
    mismatch from a torn write) is a miss, never an exception.
    """
    from repro.cache.replay import CompiledTrace

    entry = entry_dir(root, schedule)
    meta_path = entry / _META_NAME
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    try:
        if meta.get("format") != FORMAT_VERSION:
            raise ValueError(f"unsupported trace format {meta.get('format')!r}")
        fmas = np.load(entry / _FMAS_NAME, mmap_mode="r")
        if fmas.ndim != 2 or fmas.shape[1] != 4 or fmas.dtype != np.int64:
            raise ValueError(f"bad fma array {fmas.dtype} {fmas.shape}")
        if int(fmas.shape[0]) != int(meta["n_fmas"]):
            raise ValueError(
                f"fma count mismatch: meta says {meta['n_fmas']}, "
                f"array has {fmas.shape[0]}"
            )
        directives = None
        if meta.get("has_directives"):
            dirs = np.load(entry / _DIRS_NAME, mmap_mode="r")
            if dirs.ndim != 2 or dirs.shape[0] != 4 or dirs.dtype != np.int64:
                raise ValueError(f"bad directive array {dirs.dtype} {dirs.shape}")
            directives = (dirs[0], dirs[1], dirs[2], dirs[3])
        comp = [int(x) for x in meta["comp"]]
        trace = CompiledTrace(int(meta["p"]), fmas, comp, directives)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return trace


def tier_info(root: Union[str, Path]) -> Dict[str, int]:
    """Scan a tier directory: entries, recorded fmas, bytes on disk.

    Powers ``repro-mmm traces stats`` and the nightly's tier-contents
    step.
    """
    entries = 0
    fmas = 0
    n_bytes = 0
    directive_entries = 0
    root_path = Path(root)
    if not root_path.is_dir():
        return {"entries": 0, "fmas": 0, "bytes": 0, "directive_entries": 0}
    for meta_path in sorted(root_path.glob(f"*/*/{_META_NAME}")):
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if meta.get("format") != FORMAT_VERSION:
            continue
        entries += 1
        fmas += int(meta.get("n_fmas", 0))
        if meta.get("has_directives"):
            directive_entries += 1
        for sibling in sorted(meta_path.parent.iterdir()):
            try:
                n_bytes += sibling.stat().st_size
            except OSError:
                continue
    return {
        "entries": entries,
        "fmas": fmas,
        "bytes": n_bytes,
        "directive_entries": directive_entries,
    }
