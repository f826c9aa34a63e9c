"""Optimality-gap certificates: counted misses over the tight bounds.

The cost analyzer proves counted ``MS``/``MD`` never *beat* the lower
bounds; this module certifies how close each algorithm gets.  For every
analyzed (algorithm × machine × order) cell the tight-bound analyzer
(:mod:`repro.check.tightbounds`) records a :class:`GapCell` — the
counted misses, every lower bound at each level, and the measured
gap ``counted / best bound`` per level.  :func:`build_gap_report`
aggregates the cells into a schema-versioned :class:`GapReport`:

* per-algorithm summaries (min/median/max gap per level over the
  sweep's cells), and
* a *certification* per level: an algorithm is certified near-optimal
  at the shared (distributed) level when its best shared (distributed)
  gap is at most :data:`SHARED_CERTIFY_GAP` (:data:`DISTRIBUTED_CERTIFY_GAP`).

The report is written through :mod:`repro.store.atomic` as
``gap-report.json`` and ratcheted against a committed
``check-gap-baseline.json``: :func:`compare_gap_reports` emits

* ``gap/regression`` when a certified level's best gap worsens beyond
  tolerance, and
* ``gap/uncertified-algorithm`` when an algorithm the baseline
  certifies loses its certificate (or vanishes from the report).

Schedules are deterministic, so gaps are bit-stable run to run; the
comparison tolerance only absorbs bound-formula refinements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.check.findings import CHECKER_VERSION, ERROR, Finding
from repro.exceptions import ReproError
from repro.store.atomic import atomic_write_text

#: Gap-report JSON schema; bump on incompatible layout changes.
GAP_SCHEMA = 1

#: Best-gap thresholds under which an algorithm is certified
#: near-optimal at a level.  Calibrated against the paper's optimized
#: schedules (Shared/Distributed Opt. and Tradeoff sit at 1.1–1.8 on
#: their target level; the baselines sit at 5–40).
SHARED_CERTIFY_GAP = 2.0
DISTRIBUTED_CERTIFY_GAP = 2.0

#: Relative worsening of a certified best gap tolerated before
#: ``gap/regression`` fires.  Gaps are deterministic; the tolerance
#: absorbs only deliberate bound refinements, not measurement noise.
GAP_REL_TOL = 0.01


@dataclass(frozen=True)
class GapCell:
    """One cell's counted misses against every lower bound.

    ``ms_bounds``/``md_bounds`` map bound names
    (``loomis-whitney``/``tight``/``compulsory`` resp.
    ``loomis-whitney``/``tight``/``memory-independent``) to values;
    ``ms_binding``/``md_binding`` name the strongest.  ``ms_envelope``
    carries the ragged-order formula-envelope slack
    (:class:`repro.check.cost.FormulaEnvelope` fields) when the
    algorithm has a registered closed form.
    """

    algorithm: str
    machine: str
    m: int
    n: int
    z: int
    ms: int
    md: int
    ms_bounds: Dict[str, float]
    md_bounds: Dict[str, float]
    ms_binding: str
    md_binding: str
    divisible: bool
    envelope: Optional[Dict[str, float]] = None

    @property
    def ms_gap(self) -> float:
        """Counted ``MS`` over the best shared-level bound (≥ 1)."""
        best = max(self.ms_bounds.values())
        return self.ms / best if best > 0 else float("inf")

    @property
    def md_gap(self) -> float:
        """Counted ``MD`` over the best distributed-level bound (≥ 1)."""
        best = max(self.md_bounds.values())
        return self.md / best if best > 0 else float("inf")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "algorithm": self.algorithm,
            "machine": self.machine,
            "m": self.m,
            "n": self.n,
            "z": self.z,
            "ms": self.ms,
            "md": self.md,
            "ms_bounds": {k: round(v, 6) for k, v in self.ms_bounds.items()},
            "md_bounds": {k: round(v, 6) for k, v in self.md_bounds.items()},
            "ms_binding": self.ms_binding,
            "md_binding": self.md_binding,
            "ms_gap": round(self.ms_gap, 6),
            "md_gap": round(self.md_gap, 6),
            "divisible": self.divisible,
        }
        if self.envelope is not None:
            out["envelope"] = {k: round(v, 6) for k, v in self.envelope.items()}
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GapCell":
        envelope = data.get("envelope")
        return cls(
            algorithm=str(data["algorithm"]),
            machine=str(data["machine"]),
            m=int(data["m"]),
            n=int(data["n"]),
            z=int(data["z"]),
            ms=int(data["ms"]),
            md=int(data["md"]),
            ms_bounds={str(k): float(v) for k, v in data["ms_bounds"].items()},
            md_bounds={str(k): float(v) for k, v in data["md_bounds"].items()},
            ms_binding=str(data["ms_binding"]),
            md_binding=str(data["md_binding"]),
            divisible=bool(data["divisible"]),
            envelope=(
                {str(k): float(v) for k, v in envelope.items()}
                if envelope is not None
                else None
            ),
        )


@dataclass(frozen=True)
class AlgorithmGap:
    """Per-algorithm aggregate over one report's cells."""

    algorithm: str
    cells: int
    ms_gap_min: float
    ms_gap_median: float
    ms_gap_max: float
    md_gap_min: float
    md_gap_median: float
    md_gap_max: float

    @property
    def certified_shared(self) -> bool:
        """Near-optimal at the shared level (best gap ≤ threshold)."""
        return self.ms_gap_min <= SHARED_CERTIFY_GAP

    @property
    def certified_distributed(self) -> bool:
        """Near-optimal at the distributed level (best gap ≤ threshold)."""
        return self.md_gap_min <= DISTRIBUTED_CERTIFY_GAP

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "cells": self.cells,
            "ms_gap": {
                "min": round(self.ms_gap_min, 6),
                "median": round(self.ms_gap_median, 6),
                "max": round(self.ms_gap_max, 6),
            },
            "md_gap": {
                "min": round(self.md_gap_min, 6),
                "median": round(self.md_gap_median, 6),
                "max": round(self.md_gap_max, 6),
            },
            "certified_shared": self.certified_shared,
            "certified_distributed": self.certified_distributed,
        }


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class GapReport:
    """A sweep's gap certificate: cells plus per-algorithm aggregates."""

    cells: List[GapCell]

    def algorithms(self) -> List[AlgorithmGap]:
        grouped: Dict[str, List[GapCell]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.algorithm, []).append(cell)
        out: List[AlgorithmGap] = []
        for name in sorted(grouped):
            cells = grouped[name]
            ms_gaps = [c.ms_gap for c in cells]
            md_gaps = [c.md_gap for c in cells]
            out.append(
                AlgorithmGap(
                    algorithm=name,
                    cells=len(cells),
                    ms_gap_min=min(ms_gaps),
                    ms_gap_median=_median(ms_gaps),
                    ms_gap_max=max(ms_gaps),
                    md_gap_min=min(md_gaps),
                    md_gap_median=_median(md_gaps),
                    md_gap_max=max(md_gaps),
                )
            )
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": GAP_SCHEMA,
            "checker_version": CHECKER_VERSION,
            "thresholds": {
                "shared": SHARED_CERTIFY_GAP,
                "distributed": DISTRIBUTED_CERTIFY_GAP,
            },
            "algorithms": [a.to_dict() for a in self.algorithms()],
            "cells": [c.to_dict() for c in self.cells],
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Atomically write the certificate as indented JSON."""
        return atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")


def build_gap_report(cells: List[Optional[GapCell]]) -> GapReport:
    """Assemble a report from per-cell gap data (``None``s dropped —
    skipped cells and compute-only schedules carry no gap)."""
    return GapReport(cells=[c for c in cells if c is not None])


def load_gap_report(path: Union[str, Path]) -> GapReport:
    """Load a written report/baseline, validating the schema version.

    Raises
    ------
    ReproError
        Naming ``path``, if it cannot be read or is not a gap report
        of schema :data:`GAP_SCHEMA`.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read gap report {path}: {exc}") from exc
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != GAP_SCHEMA:
        raise ReproError(
            f"unsupported gap-report schema {schema!r} in {path}; "
            f"expected {GAP_SCHEMA}"
        )
    try:
        return GapReport(cells=[GapCell.from_dict(c) for c in data["cells"]])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ReproError(f"malformed gap report {path}: {exc!r}") from exc


def _gap_finding(rule: str, algorithm: str, message: str) -> Finding:
    return Finding(
        "gap", ERROR, message, algorithm=algorithm, rule=rule
    )


def compare_gap_reports(
    current: GapReport, baseline: GapReport, *, rel_tol: float = GAP_REL_TOL
) -> List[Finding]:
    """Ratchet ``current`` against a committed baseline report.

    Only regressions fire: a *better* gap, a newly certified algorithm
    or a brand-new algorithm passes silently (refresh the baseline to
    ratchet the improvement in).
    """
    findings: List[Finding] = []
    now = {a.algorithm: a for a in current.algorithms()}
    for base in baseline.algorithms():
        cur = now.get(base.algorithm)
        if cur is None:
            findings.append(
                _gap_finding(
                    "gap/uncertified-algorithm",
                    base.algorithm,
                    f"algorithm has a committed gap certificate "
                    f"({base.cells} cell(s)) but produced no gap cells in "
                    "this run",
                )
            )
            continue
        for level, was_certified, is_certified, base_gap, cur_gap in (
            (
                "shared",
                base.certified_shared,
                cur.certified_shared,
                base.ms_gap_min,
                cur.ms_gap_min,
            ),
            (
                "distributed",
                base.certified_distributed,
                cur.certified_distributed,
                base.md_gap_min,
                cur.md_gap_min,
            ),
        ):
            if not was_certified:
                continue
            if not is_certified:
                findings.append(
                    _gap_finding(
                        "gap/uncertified-algorithm",
                        base.algorithm,
                        f"lost its {level}-level near-optimality certificate: "
                        f"best gap {cur_gap:.3f} exceeds the certification "
                        f"threshold (baseline best gap {base_gap:.3f})",
                    )
                )
            elif cur_gap > base_gap * (1.0 + rel_tol):
                findings.append(
                    _gap_finding(
                        "gap/regression",
                        base.algorithm,
                        f"{level}-level best gap regressed from "
                        f"{base_gap:.3f} to {cur_gap:.3f} "
                        f"(> {rel_tol:.0%} tolerance)",
                    )
                )
    return findings
