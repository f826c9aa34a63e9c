"""Rule ids, fingerprints and SARIF export."""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.cache.block import MAT_A, block_key
from repro.check import AnalysisContext, check_residency, to_sarif, write_sarif
from repro.check.findings import (
    ERROR,
    FINDING_LIMIT,
    WARNING,
    CHECKER_VERSION,
    Finding,
    FindingLimiter,
)
from repro.check.sarif import RULE_DESCRIPTIONS

#: The checkout the package was imported from (``<root>/src/repro``).
REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def _spurious_evict_finding() -> Finding:
    ctx = AnalysisContext(1)
    ctx.evict_shared(block_key(MAT_A, 0, 0))
    (finding,) = check_residency(ctx.events, 1, 1, 1)[0]
    return finding


class TestRuleIds:
    def test_analyzer_findings_carry_slash_rules(self) -> None:
        finding = _spurious_evict_finding()
        assert finding.rule_id == "presence/spurious-evict"
        assert finding.to_dict()["rule"] == "presence/spurious-evict"

    def test_rule_falls_back_to_analyzer(self) -> None:
        bare = Finding("cost", ERROR, "msg")
        assert bare.rule_id == "cost"

    def test_rule_rendered_in_terminal_line(self) -> None:
        text = _spurious_evict_finding().render()
        assert "presence/spurious-evict" in text

    def test_every_known_rule_is_documented_for_sarif(self) -> None:
        # Rule ids are API: each one must have a catalogue description.
        assert "cost/formula-mismatch" in RULE_DESCRIPTIONS
        assert "cost/below-tight-bound" in RULE_DESCRIPTIONS
        assert all("/" in rule for rule in RULE_DESCRIPTIONS)


class TestFingerprints:
    def test_stable_across_runs(self) -> None:
        assert (
            _spurious_evict_finding().fingerprint()
            == _spurious_evict_finding().fingerprint()
        )

    def test_lint_line_number_excluded(self) -> None:
        # An edit above a lint finding moves its line; identity survives.
        f1 = Finding("lint", WARNING, "msg", location="src/x.py:10", rule="lint/r")
        f2 = Finding("lint", WARNING, "msg", location="src/x.py:99", rule="lint/r")
        assert f1.fingerprint() == f2.fingerprint()

    def test_distinct_rules_distinct_fingerprints(self) -> None:
        f1 = Finding("cost", ERROR, "msg", rule="cost/formula-mismatch")
        f2 = Finding("cost", ERROR, "msg", rule="cost/formula-ratio")
        assert f1.fingerprint() != f2.fingerprint()


def _capped_notice(analyzer: str, algorithm: str, machine: str) -> Finding:
    """The notice of a limiter that kept its cap and dropped five more."""
    limiter = FindingLimiter(analyzer)
    for i in range(FINDING_LIMIT + 5):
        limiter.add(
            Finding(
                analyzer,
                ERROR,
                f"finding {i}",
                algorithm=algorithm,
                machine=machine,
                rule=f"{analyzer}/flood",
            )
        )
    notice = limiter.results()[-1]
    assert notice.rule_id == "meta/findings-capped"
    return notice


class TestCappedNotice:
    def test_notice_names_its_analyzer_and_cell(self) -> None:
        ctx = AnalysisContext(1)
        for i in range(FINDING_LIMIT + 5):
            ctx.evict_shared(block_key(MAT_A, i, 0))  # spurious evictions
        findings = check_residency(
            ctx.events, 1, 1, 1, algorithm="shared-opt", machine="q32"
        )[0]
        notice = findings[-1]
        assert notice.rule_id == "meta/findings-capped"
        assert notice.message == "presence: 5 further findings suppressed"
        assert "[shared-opt @ q32]" in notice.render()
        (result,) = to_sarif([notice], root=REPO_ROOT)["runs"][0]["results"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/algorithms/shared_opt.py"

    def test_each_analyzer_and_cell_gets_its_own_fingerprint(self) -> None:
        notices = [
            _capped_notice(analyzer, algorithm, machine)
            for analyzer in ("presence", "race")
            for algorithm, machine in (("shared-opt", "q32"), ("tradeoff", "q64"))
        ]
        assert len({notice.fingerprint() for notice in notices}) == len(notices)



class TestSarif:
    def _findings(self):
        return [
            Finding(
                "cost",
                ERROR,
                "counted MS diverges",
                algorithm="shared-opt",
                machine="q32",
                rule="cost/formula-mismatch",
            ),
            Finding(
                "lint",
                WARNING,
                "dead branch",
                location="src/repro/cli.py:42",
                rule="lint/dead-branch",
            ),
        ]

    def test_document_shape(self) -> None:
        doc = to_sarif(self._findings(), root=REPO_ROOT)
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-mmm-check"
        assert driver["version"].startswith(f"{CHECKER_VERSION}.")
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"cost/formula-mismatch", "lint/dead-branch"} <= rule_ids

    def test_results_map_levels_locations_and_fingerprints(self) -> None:
        findings = self._findings()
        doc = to_sarif(findings, root=REPO_ROOT)
        cost_res, lint_res = doc["runs"][0]["results"]
        assert cost_res["level"] == "error"
        assert lint_res["level"] == "warning"
        # Schedule finding anchors at the algorithm's source module.
        cost_loc = cost_res["locations"][0]["physicalLocation"]
        assert cost_loc["artifactLocation"]["uri"].startswith("src/repro/")
        assert cost_loc["artifactLocation"]["uri"].endswith(".py")
        # Lint finding keeps its exact path:line.
        lint_loc = lint_res["locations"][0]["physicalLocation"]
        assert lint_loc["artifactLocation"]["uri"] == "src/repro/cli.py"
        assert lint_loc["region"]["startLine"] == 42
        # Fingerprints carry the finding's identity exactly.
        assert cost_res["partialFingerprints"]["reproCheck/v1"] == findings[
            0
        ].fingerprint()
        # Algorithm context is folded into the message.
        assert "[shared-opt @ q32]" in cost_res["message"]["text"]

    def test_every_result_rule_is_in_the_catalogue(self) -> None:
        doc = to_sarif(self._findings(), root=REPO_ROOT)
        (run,) = doc["runs"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert all(res["ruleId"] in rule_ids for res in run["results"])

    def test_write_sarif_serializes(self, tmp_path: Path) -> None:
        out = tmp_path / "out.sarif"
        write_sarif(out, self._findings(), root=REPO_ROOT)
        payload = json.loads(out.read_text())
        assert payload["version"] == "2.1.0"
        assert len(payload["runs"][0]["results"]) == 2

    def test_empty_run_is_valid(self) -> None:
        doc = to_sarif([])
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["tool"]["driver"]["rules"]  # catalogue stays
