"""Tight-bound conformance: counted misses vs the strongest lower bounds.

This analyzer proves counted traffic never beats the *strongest known*
lower bound per level (:func:`repro.model.bounds.shared_bounds` /
:func:`~repro.model.bounds.distributed_bounds`): the maximum of the
paper's §2.3 Loomis–Whitney bound, the SLLvdG tight two-term bound,
the Al Daas memory-independent floor and the compulsory traffic.  A
counted value below the binding bound is a ``cost/below-tight-bound``
error — the counting model (not the schedule) is unsound.

On divisible orders the counted values equal the closed forms exactly
(``cost/formula-mismatch`` guarantees it), so the proof is exact; on
ragged orders the counts are still exact per schedule but sit inside
the formula envelope, whose measured slack
(:func:`repro.check.cost.formula_envelope`) rides along in the
:class:`~repro.check.gap.GapCell` this analyzer emits for the
optimality-gap certificate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algorithms.base import MatmulAlgorithm
from repro.check.cost import (
    EXACT_REL_TOL,
    CountedCosts,
    FormulaEnvelope,
    formula_envelope,
)
from repro.check.findings import ERROR, Finding
from repro.check.gap import GapCell
from repro.model.bounds import distributed_bounds, shared_bounds


def check_tight_bounds(
    alg: MatmulAlgorithm,
    counted: CountedCosts,
    *,
    machine: str = "",
) -> Tuple[List[Finding], GapCell]:
    """Prove one cell's counted misses clear every lower bound.

    Returns the (possibly empty) findings plus the cell's gap-report
    entry.  ``counted`` comes from the residency walk,
    :func:`~repro.check.presence.check_residency`.
    """
    platform = alg.machine
    m, n, z = alg.m, alg.n, alg.z
    sb = shared_bounds(platform, m, n, z)
    db = distributed_bounds(platform, m, n, z)
    findings: List[Finding] = []

    def fail(message: str) -> None:
        findings.append(
            Finding(
                "cost",
                ERROR,
                message,
                algorithm=alg.name,
                machine=machine,
                rule="cost/below-tight-bound",
            )
        )

    if counted.ms < sb.best * (1.0 - EXACT_REL_TOL):
        fail(
            f"counted MS={counted.ms} beats the {sb.binding} shared-level "
            f"lower bound {sb.best:.1f} (loomis-whitney="
            f"{sb.loomis_whitney:.1f}, tight={sb.tight:.1f}, compulsory="
            f"{sb.compulsory:.1f}); the counting model is unsound for this "
            "schedule"
        )
    if counted.md_max < db.best * (1.0 - EXACT_REL_TOL):
        fail(
            f"counted MD={counted.md_max} beats the {db.binding} "
            f"distributed-level lower bound {db.best:.1f} (loomis-whitney="
            f"{db.loomis_whitney:.1f}, tight={db.tight:.1f}, "
            f"memory-independent={db.memory_independent:.1f}); the counting "
            "model is unsound for this schedule"
        )

    envelope = formula_envelope(alg, counted)
    cell = GapCell(
        algorithm=alg.name,
        machine=machine,
        m=m,
        n=n,
        z=z,
        ms=counted.ms,
        md=counted.md_max,
        ms_bounds={
            "loomis-whitney": sb.loomis_whitney,
            "tight": sb.tight,
            "compulsory": sb.compulsory,
        },
        md_bounds={
            "loomis-whitney": db.loomis_whitney,
            "tight": db.tight,
            "memory-independent": db.memory_independent,
        },
        ms_binding=sb.binding,
        md_binding=db.binding,
        divisible=envelope.divisible if envelope is not None else False,
        envelope=_envelope_dict(envelope),
    )
    return findings, cell


def _envelope_dict(
    envelope: Optional[FormulaEnvelope],
) -> Optional[Dict[str, float]]:
    if envelope is None:
        return None
    # ``divisible`` is carried on the GapCell itself.
    return {
        "predicted_ms": envelope.predicted_ms,
        "predicted_md": envelope.predicted_md,
        "ms_ratio": envelope.ms_ratio,
        "md_ratio": envelope.md_ratio,
        "ms_used": envelope.ms_used,
        "md_used": envelope.md_used,
    }
