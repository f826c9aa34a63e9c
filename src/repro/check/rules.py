"""The rule registry behind every :mod:`repro.check` analyzer.

Until PR 7 the checker's rules lived as hardcoded branches inside each
analyzer and a parallel id → description table inside the SARIF
exporter; adding a rule meant editing three files that could silently
drift.  This module is now the single source of truth:

* :class:`Rule` — one invariant with a stable id (``family/short-name``),
  a default severity, a one-line help text and the *tier* (analysis
  pass) that owns it.
* :data:`REGISTRY` — every rule the checker can emit, keyed by id and
  registered at import time.  The SARIF exporter renders its metadata
  into the ``rules`` array and ``repro-mmm check --list-rules`` prints
  it.  Every run applies every rule; there is no per-run toggle.
* Inline suppressions — ``# repro: noqa[rule-id]`` comments parsed by
  :func:`parse_suppressions` and applied by :class:`SuppressionIndex`.
  They are the one way to accept a source-scan finding.  A suppression
  names the exact rule ids it silences (never a blanket waiver), may
  carry a justification after ``--``, and is itself checked: one that
  silences nothing raises the ``meta/unused-suppression`` meta-rule,
  so dead waivers cannot accumulate and mask a future real finding.

Severity here is the rule's *default level* (what the analyzers emit);
a finding's own severity always wins when counting errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.check.findings import ERROR, WARNING, Finding

#: Analysis tiers (which pass owns a rule).  ``schedule`` rules come
#: from the recorded-event analyzers, ``lint`` and ``determinism`` from
#: the syntactic AST pass, ``meta`` from the checker's own self-checks
#: (suppression hygiene, the per-analyzer finding cap).
TIERS = ("schedule", "lint", "determinism", "meta")


@dataclass(frozen=True)
class Rule:
    """One registered invariant: stable id, default level, help, tier."""

    id: str
    severity: str
    help: str
    tier: str

    def __post_init__(self) -> None:
        if "/" not in self.id:
            raise ValueError(f"rule id {self.id!r} is not 'family/short-name'")
        if self.severity not in (ERROR, WARNING):
            raise ValueError(f"rule {self.id}: bad severity {self.severity!r}")
        if self.tier not in TIERS:
            raise ValueError(f"rule {self.id}: unknown tier {self.tier!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "severity": self.severity,
            "tier": self.tier,
            "help": self.help,
        }


# ----------------------------------------------------------------------
# Inline suppressions: ``# repro: noqa[rule-id, ...] -- justification``
# ----------------------------------------------------------------------
#: The meta-rule id raised for suppressions that silence nothing.
UNUSED_SUPPRESSION = "meta/unused-suppression"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<ids>[^\]]*)\](?:\s*--\s*(?P<why>.*))?"
)
#: What a plausible rule id looks like.  A comment whose bracket holds
#: *no* plausible id (``noqa[<rule-id>]`` in documentation prose) is
#: not a suppression at all; one that mixes a plausible id with a
#: typo'd one is, and the typo is reported as an unknown rule.
_ID_RE = re.compile(r"^[a-z0-9_-]+/[a-z0-9._-]+$")


@dataclass
class Suppression:
    """One parsed ``# repro: noqa[...]`` comment."""

    file: str
    line: int
    rule_ids: Tuple[str, ...]
    justification: str = ""
    #: Rule ids this comment actually silenced (filled by the filter).
    used: Set[str] = field(default_factory=set)


def parse_suppressions(source: str, filename: str) -> List[Suppression]:
    """Every ``# repro: noqa[...]`` comment in ``source``, in line order.

    The scan is line-based on purpose: a suppression silences findings
    anchored to *its own* line, exactly like flake8's ``noqa`` —
    position is the contract, not proximity.
    """
    out: List[Suppression] = []
    for number, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        ids = tuple(
            part.strip() for part in match.group("ids").split(",") if part.strip()
        )
        if not any(_ID_RE.match(part) for part in ids):
            continue  # documentation mentioning the syntax, not a waiver
        out.append(
            Suppression(
                file=filename,
                line=number,
                rule_ids=ids,
                justification=(match.group("why") or "").strip(),
            )
        )
    return out


def _finding_line(finding: Finding) -> Optional[int]:
    if not finding.location:
        return None
    _, _, line = finding.location.rpartition(":")
    return int(line) if line.isdigit() else None


class SuppressionIndex:
    """Applies one file's suppressions and tracks which ones earned it."""

    def __init__(self, suppressions: Sequence[Suppression]) -> None:
        self._by_line: Dict[int, Suppression] = {s.line: s for s in suppressions}

    @classmethod
    def from_source(cls, source: str, filename: str) -> "SuppressionIndex":
        return cls(parse_suppressions(source, filename))

    def filter(
        self, findings: Iterable[Finding]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Partition into (kept, suppressed).

        A finding is suppressed only when a noqa comment sits on its
        exact line *and* names its exact rule id — a suppression for a
        different rule never masks it (property-tested).
        """
        kept: List[Finding] = []
        suppressed: List[Finding] = []
        for finding in findings:
            line = _finding_line(finding)
            entry = self._by_line.get(line) if line is not None else None
            if entry is not None and finding.rule_id in entry.rule_ids:
                entry.used.add(finding.rule_id)
                suppressed.append(finding)
            else:
                kept.append(finding)
        return kept, suppressed

    def unused_findings(self, active_families: Collection[str]) -> List[Finding]:
        """``meta/unused-suppression`` findings for dead waivers.

        Only rule ids whose family actually *ran* on this file are
        judged: a ``determinism/...`` waiver in a file scanned with the
        lint family alone is neither used nor provably dead, so it is
        left alone.  Unknown rule ids are always reported — they can
        never match anything.
        """
        out: List[Finding] = []
        for suppression in self._by_line.values():
            for rule_id in suppression.rule_ids:
                if rule_id in suppression.used:
                    continue
                known = rule_id in REGISTRY
                family = rule_id.split("/", 1)[0]
                if known and family not in active_families:
                    continue
                reason = (
                    f"suppression names unknown rule {rule_id!r}"
                    if not known
                    else f"suppression of {rule_id!r} matches no finding"
                )
                out.append(
                    Finding(
                        "meta",
                        ERROR,
                        f"{reason}; delete the waiver (dead suppressions "
                        "mask future real findings)",
                        location=f"{suppression.file}:{suppression.line}",
                        rule=UNUSED_SUPPRESSION,
                    )
                )
        return out


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
#: Every rule the checker can emit, by id.
REGISTRY: Dict[str, Rule] = {}


def _r(rule_id: str, severity: str, help_text: str, tier: str) -> None:
    """Register one rule; a duplicate id is a programming error."""
    if rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    REGISTRY[rule_id] = Rule(rule_id, severity, help_text, tier)


# -- schedule analyzers (recorded-event proofs) ------------------------
_r("capacity/ws-overflow", ERROR,
   "Explicit working set exceeds a cache capacity", "schedule")
_r("capacity/param-constraint", ERROR,
   "Tile parameters violate a paper-§3 cache constraint", "schedule")
_r("presence/load-absent", ERROR,
   "Distributed load of a block absent from the shared cache", "schedule")
_r("presence/inclusion", ERROR,
   "Shared eviction while a core still holds the block", "schedule")
_r("presence/spurious-evict", ERROR,
   "Eviction of a non-resident block", "schedule")
_r("presence/absent-operand", ERROR,
   "Compute touches a block absent from the core's cache", "schedule")
_r("presence/redundant-load", WARNING,
   "Load of an already-resident block", "schedule")
_r("presence/dead-load", WARNING,
   "Block loaded and evicted without a single use", "schedule")
_r("presence/leaked-resident", WARNING,
   "Block still resident when the schedule ends", "schedule")
_r("coverage/wrong-matrix", ERROR,
   "Compute operands drawn from the wrong matrices", "schedule")
_r("coverage/inconsistent-update", ERROR,
   "Update coordinates are not C[i,j] += A[i,k]*B[k,j]", "schedule")
_r("coverage/out-of-space", ERROR,
   "Update outside the m*n*z iteration space", "schedule")
_r("coverage/duplicate-update", ERROR,
   "Update emitted more than once", "schedule")
_r("coverage/missing-update", ERROR,
   "C cell accumulated fewer than z contributions", "schedule")
_r("race/write-write", ERROR,
   "Two cores write one block in the same epoch", "schedule")
_r("race/read-write", ERROR,
   "A core reads a block another core concurrently writes", "schedule")
_r("cost/formula-mismatch", ERROR,
   "Counted misses contradict the closed-form prediction", "schedule")
_r("cost/formula-ratio", ERROR,
   "Counted misses leave the ragged-tile envelope of the formula",
   "schedule")
_r("cost/below-tight-bound", ERROR,
   "Counted misses beat the strongest (tight) lower bound", "schedule")
_r("schedule/raised", ERROR,
   "Schedule raised while being recorded", "schedule")

# -- syntactic lint -----------------------------------------------------
_r("lint/explicit-guard", ERROR,
   "Cache directive not wrapped in 'if ctx.explicit'", "lint")
_r("lint/dead-branch", ERROR,
   "'if' whose whole body is 'pass' and that has no 'else'", "lint")
_r("lint/init-self-call", ERROR,
   "Explicit self.__init__(...) call used as a reset", "lint")
_r("lint/nonatomic-artifact-write", ERROR,
   "Artifact written without the atomic store helper", "lint")
_r("lint/syntax", ERROR,
   "Source file does not parse", "lint")

# -- determinism ------------------------------------------------------
_r("determinism/wall-clock", ERROR,
   "Wall-clock read on a fingerprint/checkpoint/serde path", "determinism")
_r("determinism/rng", ERROR,
   "Unseeded randomness on a fingerprint/checkpoint/serde path",
   "determinism")
_r("determinism/unsorted-walk", ERROR,
   "Filesystem iteration order used without sorted()", "determinism")
_r("determinism/set-order", ERROR,
   "Unordered set iteration reaching serialized output", "determinism")
_r("determinism/hash-in-key", ERROR,
   "PYTHONHASHSEED-dependent hash() in a persisted key", "determinism")

# -- meta (checker self-checks) ----------------------------------------
_r(UNUSED_SUPPRESSION, ERROR,
   "A 'repro: noqa' suppression silences no finding", "meta")
_r("meta/findings-capped", WARNING,
   "An analyzer hit its per-schedule finding cap; the rest are counted, "
   "not listed", "meta")
