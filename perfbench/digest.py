"""Output check: every cell's simulated counters against a reference digest.

Simulated statistics are deterministic, so the benchmark uses them as exact
output checks, never as metrics.  ``reference.json`` maps every cell the
workloads can run to a digest of its counters: hits, misses, write-backs
and per-matrix miss splits of the shared cache and of each distributed
cache, plus the per-core multiply-add counts.  ``record_reference.py``
writes it and proves each digest against the step engine first.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")


def cell_key(result: Any) -> str:
    """Identity of one cell: algorithm, setting, shape and full machine."""
    machine = result.machine
    return "|".join(
        (
            result.algorithm,
            result.setting,
            f"{result.m}x{result.n}x{result.z}",
            machine.name,
            repr(machine.sigma_s),
            repr(machine.sigma_d),
        )
    )


def cell_digest(result: Any) -> str:
    """Short hash of every counter the simulator produced for the cell."""
    stats = result.stats
    caches = [
        [c.hits, c.misses, c.writebacks, list(c.misses_by_matrix)]
        for c in (stats.shared, *stats.distributed)
    ]
    payload = json.dumps([caches, list(result.comp)], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_cells(
    results: Sequence[Any], reference: Dict[str, str], expected: int
) -> Tuple[int, List[str]]:
    """``(failed cells, problems)`` for one repetition.

    A cell whose digest differs from (or is missing in) the reference
    fails the whole repetition: every planned cell counts as failed.
    Otherwise only the planned cells that produced no result fail.
    """
    problems: List[str] = []
    for result in results:
        key = cell_key(result)
        want = reference.get(key)
        got = cell_digest(result)
        if want is None:
            problems.append(f"{key}: no reference digest")
        elif want != got:
            problems.append(f"{key}: counters digest {got} != reference {want}")
    if len(results) > expected:
        problems.append(f"{len(results)} results for {expected} planned cells")
    if problems:
        return expected, problems
    missing = expected - len(results)
    if missing:
        problems.append(f"{missing} of {expected} planned cells produced no result")
    return missing, problems
