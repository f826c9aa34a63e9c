"""Tests for the rule registry and inline suppressions."""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.check.findings import ERROR, WARNING, Finding
from repro.check.lint import FileProfile, scan_source
from repro.check.sarif import to_sarif
from repro.check.rules import (
    REGISTRY,
    Rule,
    SuppressionIndex,
    _r,
    parse_suppressions,
)

ALL_IDS = sorted(REGISTRY)

# Built by concatenation so the scanner (which also lints this test
# file) does not read the fixture literals as live waivers.
NOQA = "# repro: " + "noqa"


class TestRegistry:
    def test_every_rule_id_is_family_slash_name(self):
        for rule_id, rule in REGISTRY.items():
            family, _, short = rule.id.partition("/")
            assert family and short, rule.id
            assert rule_id == rule.id

    def test_known_families_present(self):
        families = {rule_id.partition("/")[0] for rule_id in REGISTRY}
        for family in (
            "lint", "determinism", "meta", "capacity", "presence",
            "coverage", "race", "cost", "schedule",
        ):
            assert family in families

    def test_new_analyzer_rules_registered(self):
        assert "determinism/wall-clock" in REGISTRY
        assert "determinism/set-order" in REGISTRY
        assert "meta/unused-suppression" in REGISTRY

    def test_all_sorted_and_metadata_complete(self):
        # Consumers render the catalogue in id order (stable SARIF).
        driver = to_sarif([])["runs"][0]["tool"]["driver"]
        assert [r["id"] for r in driver["rules"]] == ALL_IDS
        for rule in REGISTRY.values():
            assert rule.severity in (ERROR, WARNING)
            assert rule.help
            assert set(rule.to_dict()) == {"id", "severity", "tier", "help"}

    def test_checker_doc_names_every_rule(self):
        # SARIF's fullDescription sends readers to this catalogue.
        doc = Path(__file__).resolve().parents[2] / "docs" / "CHECKER.md"
        text = doc.read_text(encoding="utf-8")
        assert [r for r in ALL_IDS if f"`{r}`" not in text] == []

    def test_duplicate_registration_rejected(self):
        before = dict(REGISTRY)
        with pytest.raises(ValueError, match="duplicate"):
            _r("lint/dead-branch", ERROR, "h", "lint")
        assert REGISTRY == before

    def test_malformed_rule_rejected(self):
        with pytest.raises(ValueError, match="family/short-name"):
            Rule("no-slash", ERROR, "h", "lint")
        with pytest.raises(ValueError, match="severity"):
            Rule("a/b", "fatal", "h", "lint")
        with pytest.raises(ValueError, match="tier"):
            Rule("a/b", ERROR, "h", "nope")


class TestSuppressionParsing:
    def test_basic_parse(self):
        src = f"x = 1\ny = hash(k)  {NOQA}[determinism/hash-in-key]\n"
        (sup,) = parse_suppressions(src, "m.py")
        assert sup.line == 2
        assert sup.rule_ids == ("determinism/hash-in-key",)
        assert sup.justification == ""

    def test_justification_and_multiple_ids(self):
        src = (
            f"z = f()  {NOQA}[determinism/rng, determinism/wall-clock]"
            " -- seeded fixture\n"
        )
        (sup,) = parse_suppressions(src, "m.py")
        assert sup.rule_ids == ("determinism/rng", "determinism/wall-clock")
        assert sup.justification == "seeded fixture"

    def test_documentation_mention_is_not_a_waiver(self):
        # Prose explaining the syntax must not register as suppression.
        src = 'HELP = "use # repro: noqa[rule-id] to waive"\n'
        assert parse_suppressions(src, "m.py") == []
        src = "# the syntax is `# repro: noqa[<rule-id>]`\n"
        assert parse_suppressions(src, "m.py") == []


class TestSuppressionIndex:
    def _finding(self, rule, line):
        return Finding(
            rule.split("/")[0], ERROR, "msg", location=f"m.py:{line}", rule=rule
        )

    def test_filter_matches_line_and_rule(self):
        src = f"a\nb  {NOQA}[lint/dead-branch]\nc\n"
        index = SuppressionIndex.from_source(src, "m.py")
        hit = self._finding("lint/dead-branch", 2)
        wrong_line = self._finding("lint/dead-branch", 3)
        wrong_rule = self._finding("lint/init-self-call", 2)
        kept, suppressed = index.filter([hit, wrong_line, wrong_rule])
        assert suppressed == [hit]
        assert kept == [wrong_line, wrong_rule]

    def test_unused_suppression_round_trip(self):
        # A waiver with no matching finding raises the meta-rule; once
        # the finding exists, both the waiver and the meta-rule clear.
        src = f"x = 1  {NOQA}[lint/dead-branch]\n"
        index = SuppressionIndex.from_source(src, "m.py")
        kept, _ = index.filter([])
        unused = index.unused_findings({"lint", "meta"})
        assert [f.rule_id for f in unused] == ["meta/unused-suppression"]
        assert "lint/dead-branch" in unused[0].message

        index = SuppressionIndex.from_source(src, "m.py")
        kept, suppressed = index.filter(
            [self._finding("lint/dead-branch", 1)]
        )
        assert kept == []
        assert len(suppressed) == 1
        assert index.unused_findings({"lint", "meta"}) == []

    def test_unused_only_reported_for_families_that_ran(self):
        src = f"x = 1  {NOQA}[determinism/wall-clock]\n"
        index = SuppressionIndex.from_source(src, "m.py")
        index.filter([])
        assert index.unused_findings({"lint", "meta"}) == []
        assert len(index.unused_findings({"determinism", "meta"})) == 1

    def test_unknown_rule_id_always_reported(self):
        src = f"x = 1  {NOQA}[lint/no-such-rule]\n"
        index = SuppressionIndex.from_source(src, "m.py")
        index.filter([])
        (finding,) = index.unused_findings({"meta"})
        assert "unknown rule" in finding.message


class TestSuppressionNeverMasksOtherRules:
    @given(st.sampled_from(ALL_IDS))
    def test_noqa_for_y_never_masks_dead_branch(self, y):
        # The suppression contract: `# repro: noqa[Y]` silences Y and
        # ONLY Y.  Seed a known lint/dead-branch finding and waive an
        # arbitrary registered rule on its line.
        src = f"if x:  {NOQA}[{y}]\n    pass\n"
        findings = scan_source(src, "m.py", profile=FileProfile())
        rule_ids = [f.rule_id for f in findings]
        if y == "lint/dead-branch":
            assert "lint/dead-branch" not in rule_ids
        else:
            assert "lint/dead-branch" in rule_ids

    @given(st.sampled_from(ALL_IDS))
    def test_noqa_for_y_never_masks_wall_clock(self, y):
        src = (
            "import time\n"
            f"t = time.time()  {NOQA}[{y}]\n"
        )
        findings = scan_source(
            src,
            "m.py",
            profile=FileProfile(lint=False, determinism=True),
        )
        rule_ids = [f.rule_id for f in findings]
        if y == "determinism/wall-clock":
            assert "determinism/wall-clock" not in rule_ids
        else:
            assert "determinism/wall-clock" in rule_ids


class TestScanSourceIntegration:
    def test_suppression_applies_end_to_end(self):
        src = (
            "import time\n"
            f"t = time.time()  {NOQA}[determinism/wall-clock]"
            " -- display only\n"
        )
        findings = scan_source(
            src, "m.py", profile=FileProfile(lint=False, determinism=True)
        )
        assert findings == []

    def test_real_rundir_waivers_are_used(self):
        # The two created_at waivers in store/rundir.py must be load-
        # bearing: scanning the real file yields neither wall-clock nor
        # unused-suppression findings.
        path = (
            Path(__file__).resolve().parents[2]
            / "src" / "repro" / "store" / "rundir.py"
        )
        findings = scan_source(
            path.read_text(encoding="utf-8"),
            str(path),
            profile=FileProfile(store_module=True, determinism=True),
        )
        assert findings == []
