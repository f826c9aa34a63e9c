"""The finding record shared by every analyzer in :mod:`repro.check`.

Analyzers return plain lists of :class:`Finding`; the runner and the
CLI aggregate, render and count them.  ``severity`` is ``"error"`` for
invariant violations (wrong results, model violations, races) and
``"warning"`` for inefficiencies that do not threaten correctness
(dead loads, redundant loads).  Only errors fail ``repro-mmm check``.

Every finding carries a stable ``rule`` id (``analyzer/short-name``,
e.g. ``capacity/ws-overflow`` or ``cost/formula-mismatch``) and derives
a content :meth:`~Finding.fingerprint` from it.  Rule ids name *what*
went wrong independently of the message wording; fingerprints identify
*this* finding across runs, which is what the SARIF exporter keys on.
Line numbers are deliberately excluded from the fingerprint so lint
findings survive unrelated edits above them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Severity levels, in increasing order of gravity.
WARNING = "warning"
ERROR = "error"

#: Version of the checker as a whole: findings schema, rule set and
#: analyzer semantics.  It dates SARIF output and ``check --json``.
#: v1 = PR-1 analyzers; v2 = rule ids + cost-conformance analyzer;
#: v3 = tight-bound conformance + optimality-gap certificate +
#: engine-conformance analyzer; v4 = rule registry, inline
#: suppressions and the determinism rules; v5 = one verdict per run
#: (no report cache, fingerprint baseline or rule toggles) and 36
#: rules (the Loomis-Whitney cost rule folded into
#: cost/below-tight-bound; two lint rules retired); v6 = one residency
#: walk for capacity, presence and MS/MD, 35 rules
#: (cost/tdata-mismatch and lint/unregistered-algorithm retired, the
#: finding-cap notice registered as meta/findings-capped); v7 = 32
#: rules (the optimality-gap certificate with its two baseline rules
#: and the benchmark engine-pin lint rule retired).
CHECKER_VERSION = 7


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a schedule analyzer or the linter.

    Attributes
    ----------
    analyzer:
        Which pass produced the finding (``capacity``, ``presence``,
        ``coverage``, ``race``, ``cost``, ``lint`` or ``schedule``).
    severity:
        ``"error"`` or ``"warning"``.
    message:
        Human-readable description, self-contained.
    algorithm, machine:
        The schedule and machine under analysis (empty for lint).
    event:
        Global sequence number of the offending event in the recorded
        log, when applicable.
    location:
        ``path:line`` source position (lint findings only).
    rule:
        Stable ``analyzer/short-name`` id of the violated invariant;
        falls back to the bare analyzer name when unset.
    """

    analyzer: str
    severity: str
    message: str
    algorithm: str = ""
    machine: str = ""
    event: Optional[int] = None
    location: str = ""
    rule: str = ""

    @property
    def rule_id(self) -> str:
        """The stable rule id (``analyzer`` when no rule was assigned)."""
        return self.rule or self.analyzer

    def fingerprint(self) -> str:
        """Stable content hash identifying this finding across runs.

        Hashes rule, severity, schedule context, the location's *file*
        (not its line — edits above a lint finding must not re-open it)
        and the message.  Schedules are deterministic, so messages are
        reproducible run to run.
        """
        loc_file = self.location.rsplit(":", 1)[0] if self.location else ""
        payload = "|".join(
            (self.rule_id, self.severity, self.algorithm, self.machine,
             loc_file, self.message)
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form for ``--json`` output."""
        out: Dict[str, Any] = {
            "analyzer": self.analyzer,
            "severity": self.severity,
            "message": self.message,
            "rule": self.rule_id,
            "fingerprint": self.fingerprint(),
        }
        if self.algorithm:
            out["algorithm"] = self.algorithm
        if self.machine:
            out["machine"] = self.machine
        if self.event is not None:
            out["event"] = self.event
        if self.location:
            out["location"] = self.location
        return out

    def render(self) -> str:
        """One-line rendering for terminal output."""
        where = ""
        if self.algorithm:
            where = f" [{self.algorithm}" + (
                f" @ {self.machine}]" if self.machine else "]"
            )
        elif self.location:
            where = f" [{self.location}]"
        at = f" (event {self.event})" if self.event is not None else ""
        return f"{self.severity}: {self.rule_id}{where}: {self.message}{at}"


#: Findings one analyzer reports per schedule before the rest are
#: dropped behind one ``meta/findings-capped`` notice.
FINDING_LIMIT = 25


@dataclass
class FindingLimiter:
    """Cap the findings one analyzer emits so broken schedules do not flood.

    After :data:`FINDING_LIMIT` findings a single summary entry is
    appended and further :meth:`add` calls are dropped (but still
    counted).  The notice names the analyzer and carries the cell
    (``algorithm``, ``machine``) of the kept findings, so each analyzer
    and cell gets a notice with its own fingerprint and SARIF anchor.
    """

    analyzer: str
    findings: List[Finding] = field(default_factory=list)
    dropped: int = 0

    def add(self, finding: Finding) -> None:
        if len(self.findings) < FINDING_LIMIT:
            self.findings.append(finding)
        else:
            self.dropped += 1

    def results(self) -> List[Finding]:
        if self.dropped:
            kept = self.findings[0]
            return self.findings + [
                Finding(
                    analyzer=self.analyzer,
                    severity=WARNING,
                    message=(
                        f"{self.analyzer}: {self.dropped} further findings suppressed"
                    ),
                    algorithm=kept.algorithm,
                    machine=kept.machine,
                    rule="meta/findings-capped",
                )
            ]
        return list(self.findings)
