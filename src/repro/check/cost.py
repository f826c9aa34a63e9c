"""Cost conformance: counted ``MS``/``MD`` vs the closed forms.

The paper's central quantitative claims are the miss-count formulas of
§3 (``MS = mn + 2mnz/λ`` and friends, implemented in
:mod:`repro.analysis.formulas`).  This analyzer proves them against
the *recorded* schedule, with no cache simulation.  The residency walk
(:func:`repro.check.presence.check_residency`) counts distinct-block
load traffic into a :class:`CountedCosts` — by construction,
integer-for-integer the count
:class:`~repro.cache.hierarchy.IdealHierarchy` would produce for the
same directive stream (redundant loads move no data in either).

:func:`check_cost` then checks the counts against the closed forms:
when :func:`~repro.analysis.formulas.divisibility_ok` holds, the
counted ``MS`` and max per-core ``MD`` must equal the registered
formula *exactly* (``cost/formula-mismatch``).  On ragged tiles the
formulas are only asymptotic; the counts must stay within a bounded
ratio (``cost/formula-ratio``).

The §2.3 lower bounds are proved by
:func:`repro.check.tightbounds.check_tight_bounds`
(``cost/below-tight-bound``), against the strongest of Loomis–Whitney
and its tighter successors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.algorithms.base import MatmulAlgorithm
from repro.analysis.formulas import FORMULAS, divisibility_ok, predict
from repro.check.findings import ERROR, Finding

#: Ragged-tile tolerance (multiplier, slack): the closed forms must
#: bracket the counted values within ``factor·x + slack`` both ways.
#: Mirrors the envelope the simulator-vs-formula tests have always
#: asserted; the slack term absorbs orders smaller than one tile.
MS_RATIO_BOUND: Tuple[float, float] = (2.5, 100.0)
MD_RATIO_BOUND: Tuple[float, float] = (4.0, 200.0)

#: Relative tolerance for float comparisons that should be exact.
EXACT_REL_TOL = 1e-9


@dataclass(frozen=True)
class CountedCosts:
    """Distinct-block load traffic derived from one recorded schedule."""

    ms: int
    md: Tuple[int, ...]

    @property
    def md_max(self) -> int:
        """Max per-core distributed misses — the paper's ``MD``."""
        return max(self.md) if self.md else 0


def envelope_ratio(counted: float, predicted: float) -> float:
    """Symmetric counted/predicted ratio: ``max(c/p, p/c)`` (≥ 1).

    ``inf`` when exactly one side is zero; 1 when both are.
    """
    lo, hi = sorted((counted, predicted))
    if lo <= 0.0:
        return 1.0 if hi <= 0.0 else math.inf
    return hi / lo


def envelope_used(
    counted: float, predicted: float, bound: Tuple[float, float]
) -> float:
    """Fraction of the ragged-tile envelope a cell consumes.

    The envelope is the symmetric ``x ≤ factor·y + slack`` band; the
    worst direction's ``x / (factor·y + slack)`` is the usage — ≤ 1
    inside the envelope, > 1 outside.  :func:`check_cost`'s
    ``cost/formula-ratio`` message reports it, so how far past the
    envelope edge a cell sits is visible without re-deriving it from
    the raw counts.
    """
    factor, slack = bound
    out = 0.0
    for x, y in ((counted, predicted), (predicted, counted)):
        allowed = factor * y + slack
        out = max(out, x / allowed if allowed > 0.0 else math.inf)
    return out


def _within_envelope(
    counted: float, predicted: float, bound: Tuple[float, float]
) -> bool:
    """Symmetric bounded-ratio check ``x ≤ factor·y + slack`` both ways."""
    return envelope_used(counted, predicted, bound) <= 1.0


def check_cost(
    alg: MatmulAlgorithm,
    counted: CountedCosts,
    *,
    machine: str = "",
) -> List[Finding]:
    """Prove the counted traffic conforms to the closed forms.

    At most one finding per level, so this pass needs no limiter.
    """
    if alg.name not in FORMULAS:
        return []
    findings: List[Finding] = []

    def fail(rule: str, message: str) -> None:
        findings.append(
            Finding(
                "cost",
                ERROR,
                message,
                algorithm=alg.name,
                machine=machine,
                rule=rule,
            )
        )

    # Closed forms: exact when divisibility holds, bracketed otherwise.
    predicted = predict(alg)
    if divisibility_ok(alg):
        if not math.isclose(counted.ms, predicted.ms, rel_tol=EXACT_REL_TOL):
            fail(
                "cost/formula-mismatch",
                f"counted MS={counted.ms} != predicted MS={predicted.ms:.1f} "
                "although the divisibility conditions for exactness hold",
            )
        if not math.isclose(counted.md_max, predicted.md, rel_tol=EXACT_REL_TOL):
            fail(
                "cost/formula-mismatch",
                f"counted MD={counted.md_max} != predicted MD="
                f"{predicted.md:.1f} although the divisibility conditions "
                "for exactness hold",
            )
    else:
        if not _within_envelope(counted.ms, predicted.ms, MS_RATIO_BOUND):
            factor, slack = MS_RATIO_BOUND
            fail(
                "cost/formula-ratio",
                f"counted MS={counted.ms} and predicted MS={predicted.ms:.1f} "
                f"diverge beyond the ragged-tile envelope "
                f"({factor}x + {slack:.0f}): ratio "
                f"{envelope_ratio(counted.ms, predicted.ms):.2f}, envelope "
                f"{envelope_used(counted.ms, predicted.ms, MS_RATIO_BOUND):.2f}x "
                "used",
            )
        if not _within_envelope(counted.md_max, predicted.md, MD_RATIO_BOUND):
            factor, slack = MD_RATIO_BOUND
            fail(
                "cost/formula-ratio",
                f"counted MD={counted.md_max} and predicted MD="
                f"{predicted.md:.1f} diverge beyond the ragged-tile envelope "
                f"({factor}x + {slack:.0f}): ratio "
                f"{envelope_ratio(counted.md_max, predicted.md):.2f}, envelope "
                f"{envelope_used(counted.md_max, predicted.md, MD_RATIO_BOUND):.2f}x "
                "used",
            )
    return findings
