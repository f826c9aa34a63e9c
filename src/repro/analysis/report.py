"""Predicted-vs-simulated comparison reports.

Turns finished experiments into the accuracy tables the reproduction
leans on: closed-form prediction next to simulated count, with the
ratio and the paper's lower bound.  Used by tests, the CLI examples and
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from repro.model.bounds import (
    distributed_misses_lower_bound,
    shared_misses_lower_bound,
)

if TYPE_CHECKING:  # avoid a circular import at runtime: analysis is
    # imported by the algorithms, which the sim package also imports.
    from repro.sim.results import ExperimentResult


def accuracy_row(result: "ExperimentResult") -> Dict[str, Any]:
    """One experiment's prediction accuracy as a flat row."""
    row: Dict[str, Any] = {
        "algorithm": result.algorithm,
        "setting": result.setting,
        "order": result.m,
        "MS_sim": result.ms,
        "MD_sim": result.md,
    }
    if result.predicted is not None:
        row["MS_pred"] = round(result.predicted.ms, 1)
        row["MD_pred"] = round(result.predicted.md, 1)
        row["MS_ratio"] = (
            round(result.ms / result.predicted.ms, 3) if result.predicted.ms else None
        )
        row["MD_ratio"] = (
            round(result.md / result.predicted.md, 3) if result.predicted.md else None
        )
    return row


def accuracy_table(results: Iterable["ExperimentResult"]) -> List[Dict[str, Any]]:
    """Prediction-accuracy rows for a batch of experiments."""
    return [accuracy_row(r) for r in results]


def bound_gap_row(result: "ExperimentResult") -> Dict[str, Any]:
    """Distance of one experiment's counts from the §2.3 lower bounds."""
    machine = result.machine
    ms_bound = shared_misses_lower_bound(machine, result.m, result.n, result.z)
    md_bound = distributed_misses_lower_bound(machine, result.m, result.n, result.z)
    return {
        "algorithm": result.algorithm,
        "setting": result.setting,
        "order": result.m,
        "MS/bound": round(result.ms / ms_bound, 2),
        "MD/bound": round(result.md / md_bound, 2),
        "Tdata": round(result.tdata, 1),
    }


def bound_gap_table(results: Iterable["ExperimentResult"]) -> List[Dict[str, Any]]:
    """Bound-gap rows for a batch of experiments."""
    return [bound_gap_row(r) for r in results]


def ranking(
    results: Sequence["ExperimentResult"], metric: str = "tdata"
) -> List["ExperimentResult"]:
    """Sort experiments by a metric (``"ms"``, ``"md"``, ``"tdata"``)."""
    return sorted(results, key=lambda r: getattr(r, metric))


def winner(
    results: Sequence["ExperimentResult"], metric: str = "tdata"
) -> Optional["ExperimentResult"]:
    """The best experiment under a metric (None for an empty batch)."""
    ordered = ranking(results, metric)
    return ordered[0] if ordered else None
