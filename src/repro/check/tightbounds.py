"""Tight-bound conformance: counted misses vs the strongest lower bounds.

This analyzer proves counted traffic never beats the *strongest known*
lower bound per level (:func:`repro.model.bounds.shared_bounds` /
:func:`~repro.model.bounds.distributed_bounds`): the maximum of the
paper's §2.3 Loomis–Whitney bound, the SLLvdG tight two-term bound,
the Al Daas memory-independent floor and the compulsory traffic.  A
counted value below the binding bound is a ``cost/below-tight-bound``
error — the counting model (not the schedule) is unsound.

This is the sound half of the paper's near-optimality claim: no
schedule beats a bound.  How close a schedule comes to it is a claim
about large orders, where the compulsory traffic no longer binds; it
is stated at order 60 by ``benchmarks/bench_bounds_gap.py``, not here.
"""

from __future__ import annotations

from typing import List

from repro.algorithms.base import MatmulAlgorithm
from repro.check.cost import EXACT_REL_TOL, CountedCosts
from repro.check.findings import ERROR, Finding
from repro.model.bounds import distributed_bounds, shared_bounds


def check_tight_bounds(
    alg: MatmulAlgorithm,
    counted: CountedCosts,
    *,
    machine: str = "",
) -> List[Finding]:
    """Prove one cell's counted misses clear every lower bound.

    Returns the (possibly empty) findings.  ``counted`` comes from the
    residency walk, :func:`~repro.check.presence.check_residency`.
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
    return findings
