"""SARIF 2.1.0 export so checker findings annotate code on GitHub.

The Static Analysis Results Interchange Format is what GitHub code
scanning (and most editors) ingest: one ``run`` per tool, a ``rules``
catalogue, and per-finding ``results`` carrying a level, a message, a
physical location and stable ``partialFingerprints``.  We map:

* lint findings → their recorded ``path:line``;
* schedule findings (capacity, presence, coverage, race, cost,
  schedule) → line 1 of the source file defining the offending
  algorithm class, which is where a human starts reading anyway;
* :meth:`Finding.fingerprint` → ``partialFingerprints`` under the
  ``reproCheck/v1`` key, so GitHub tracks a finding's identity across
  pushes.

Only the subset of SARIF that code scanning consumes is emitted; the
document validates against the 2.1.0 schema.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.findings import CHECKER_VERSION, ERROR, Finding
from repro.check.rules import REGISTRY
from repro.store.atomic import atomic_write_text

#: The canonical 2.1.0 schema URI GitHub validates against.
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"

#: Rule id → short description, derived from the registry.
RULE_DESCRIPTIONS: Dict[str, str] = {
    rule_id: rule.help for rule_id, rule in REGISTRY.items()
}


def _relativize(path: str, root: Path) -> str:
    """URI for a source path, repo-relative when possible."""
    try:
        return Path(path).resolve().relative_to(root).as_posix()
    except ValueError:
        return Path(path).as_posix()


def _algorithm_location(algorithm: str, root: Path) -> Tuple[str, int]:
    """``(uri, line)`` of the module defining a registered algorithm."""
    from repro.algorithms.registry import get_algorithm
    from repro.exceptions import ReproError

    try:
        cls = get_algorithm(algorithm)
        source = inspect.getsourcefile(cls)
    except (ReproError, TypeError):
        source = None
    if source is None:
        return "src/repro/check/runner.py", 1
    return _relativize(source, root), 1


def _finding_location(finding: Finding, root: Path) -> Tuple[str, int]:
    if finding.location:
        path, _, line = finding.location.rpartition(":")
        if path and line.isdigit():
            return _relativize(path, root), max(int(line), 1)
        return _relativize(finding.location, root), 1
    if finding.algorithm:
        return _algorithm_location(finding.algorithm, root)
    return "src/repro/check/runner.py", 1


def _result(finding: Finding, root: Path) -> Dict[str, Any]:
    uri, line = _finding_location(finding, root)
    message = finding.message
    if finding.algorithm:
        where = finding.algorithm + (f" @ {finding.machine}" if finding.machine else "")
        message = f"[{where}] {message}"
    return {
        "ruleId": finding.rule_id,
        "level": "error" if finding.severity == ERROR else "warning",
        "message": {"text": message},
        "partialFingerprints": {"reproCheck/v1": finding.fingerprint()},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {"startLine": line},
                }
            }
        ],
    }


def to_sarif(
    findings: Sequence[Finding], *, root: Optional[Path] = None
) -> Dict[str, Any]:
    """Render findings as a single-run SARIF 2.1.0 document."""
    base = (root or Path.cwd()).resolve()
    rule_ids = sorted({f.rule_id for f in findings} | set(RULE_DESCRIPTIONS))
    rules: List[Dict[str, Any]] = []
    for rule_id in rule_ids:
        rule = REGISTRY.get(rule_id)
        entry: Dict[str, Any] = {
            "id": rule_id,
            "shortDescription": {
                "text": rule.help if rule is not None else rule_id
            },
        }
        if rule is not None:
            # Full registry metadata so code scanning surfaces rule
            # docs (tier, default level) instead of a bare id.
            entry["fullDescription"] = {
                "text": f"{rule.help}. "
                f"Emitted by the {rule.tier!r} analysis tier of "
                "repro-mmm check; see docs/CHECKER.md for the rule "
                "catalogue and the suppression syntax."
            }
            entry["defaultConfiguration"] = {
                "level": "error" if rule.severity == ERROR else "warning",
                "enabled": True,
            }
            entry["properties"] = {"tier": rule.tier}
        rules.append(entry)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-mmm-check",
                        "informationUri": "https://example.invalid/repro-mmm",
                        "version": f"{CHECKER_VERSION}.0.0",
                        "rules": rules,
                    }
                },
                "results": [_result(f, base) for f in findings],
            }
        ],
    }


def write_sarif(
    path: Path, findings: Sequence[Finding], *, root: Optional[Path] = None
) -> None:
    """Atomically serialize :func:`to_sarif` output to ``path``."""
    document = to_sarif(findings, root=root)
    atomic_write_text(path, json.dumps(document, indent=2) + "\n")
