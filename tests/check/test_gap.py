"""Gap-certificate tests: cell math, aggregation, persistence, ratchet."""

from __future__ import annotations

import json
import math

import pytest

from repro.check.gap import (
    GAP_SCHEMA,
    SHARED_CERTIFY_GAP,
    AlgorithmGap,
    GapCell,
    GapReport,
    build_gap_report,
    compare_gap_reports,
    load_gap_report,
)
from repro.exceptions import ReproError


def make_cell(algorithm="shared-opt", ms=40, md=30, ms_best=20.0, md_best=15.0,
              envelope=None):
    return GapCell(
        algorithm=algorithm,
        machine="q32",
        m=8,
        n=8,
        z=8,
        ms=ms,
        md=md,
        ms_bounds={"loomis-whitney": ms_best / 2, "tight": ms_best,
                   "compulsory": ms_best / 4},
        md_bounds={"loomis-whitney": md_best / 2, "tight": md_best,
                   "memory-independent": md_best / 4},
        ms_binding="tight",
        md_binding="tight",
        divisible=True,
        envelope=envelope,
    )


class TestGapCell:
    def test_gap_divides_by_best_bound(self):
        cell = make_cell(ms=40, ms_best=20.0, md=30, md_best=15.0)
        assert cell.ms_gap == pytest.approx(2.0)
        assert cell.md_gap == pytest.approx(2.0)

    def test_zero_bounds_give_infinite_gap(self):
        cell = make_cell()
        degenerate = GapCell(
            algorithm="x", machine="", m=1, n=1, z=1, ms=3, md=3,
            ms_bounds={"tight": 0.0}, md_bounds={"tight": 0.0},
            ms_binding="tight", md_binding="tight", divisible=False,
        )
        assert math.isinf(degenerate.ms_gap) and math.isinf(degenerate.md_gap)
        assert math.isfinite(cell.ms_gap)

    def test_dict_round_trip(self):
        cell = make_cell(envelope={"predicted_ms": 40.0, "ms_used": 0.25})
        again = GapCell.from_dict(cell.to_dict())
        assert again == cell

    def test_dict_round_trip_without_envelope(self):
        cell = make_cell(envelope=None)
        again = GapCell.from_dict(cell.to_dict())
        assert again == cell and again.envelope is None


class TestAggregation:
    def test_per_algorithm_stats(self):
        report = build_gap_report(
            [
                make_cell(ms=20, ms_best=20.0),   # gap 1.0
                make_cell(ms=40, ms_best=20.0),   # gap 2.0
                make_cell(ms=60, ms_best=20.0),   # gap 3.0
                make_cell(algorithm="cannon", ms=200, ms_best=20.0),
                None,  # skipped cell — dropped
            ]
        )
        algos = {a.algorithm: a for a in report.algorithms()}
        assert set(algos) == {"shared-opt", "cannon"}
        shared = algos["shared-opt"]
        assert shared.cells == 3
        assert shared.ms_gap_min == pytest.approx(1.0)
        assert shared.ms_gap_median == pytest.approx(2.0)
        assert shared.ms_gap_max == pytest.approx(3.0)

    def test_certification_threshold(self):
        good = AlgorithmGap("a", 1, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5)
        bad = AlgorithmGap("b", 1, SHARED_CERTIFY_GAP + 0.1, 3.0, 3.0,
                           1.0, 1.0, 1.0)
        assert good.certified_shared and good.certified_distributed
        assert not bad.certified_shared
        assert bad.certified_distributed


class TestPersistence:
    def test_write_load_round_trip(self, tmp_path):
        report = build_gap_report([make_cell(), make_cell(algorithm="cannon")])
        path = report.write(tmp_path / "gap-report.json")
        loaded = load_gap_report(path)
        assert loaded.cells == report.cells
        payload = json.loads(path.read_text())
        assert payload["schema"] == GAP_SCHEMA
        assert {a["algorithm"] for a in payload["algorithms"]} == {
            "shared-opt",
            "cannon",
        }

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "cells": []}))
        with pytest.raises(ReproError, match="schema"):
            load_gap_report(path)


class TestRatchet:
    def baseline(self):
        return build_gap_report([make_cell(ms=30, ms_best=20.0,
                                           md=20, md_best=15.0)])

    def test_identical_reports_are_clean(self):
        assert compare_gap_reports(self.baseline(), self.baseline()) == []

    def test_improvement_is_clean(self):
        better = build_gap_report([make_cell(ms=22, ms_best=20.0,
                                             md=16, md_best=15.0)])
        assert compare_gap_reports(better, self.baseline()) == []

    def test_new_algorithm_is_clean(self):
        current = build_gap_report(
            [make_cell(ms=30, ms_best=20.0, md=20, md_best=15.0),
             make_cell(algorithm="brand-new", ms=900, ms_best=20.0)]
        )
        assert compare_gap_reports(current, self.baseline()) == []

    def test_certified_gap_regression(self):
        worse = build_gap_report([make_cell(ms=34, ms_best=20.0,
                                            md=20, md_best=15.0)])
        findings = compare_gap_reports(worse, self.baseline())
        assert [f.rule_id for f in findings] == ["gap/regression"]
        assert findings[0].severity == "error"
        assert "shared" in findings[0].message

    def test_regression_within_tolerance_is_clean(self):
        barely = build_gap_report([make_cell(ms=30, ms_best=20.0,
                                             md=20, md_best=15.0)])
        assert compare_gap_reports(barely, self.baseline(),
                                   rel_tol=0.5) == []

    def test_lost_certificate(self):
        lost = build_gap_report([make_cell(ms=80, ms_best=20.0,
                                           md=20, md_best=15.0)])
        findings = compare_gap_reports(lost, self.baseline())
        assert [f.rule_id for f in findings] == ["gap/uncertified-algorithm"]
        assert "lost its shared-level" in findings[0].message

    def test_missing_algorithm(self):
        findings = compare_gap_reports(GapReport(cells=[]), self.baseline())
        assert [f.rule_id for f in findings] == ["gap/uncertified-algorithm"]
        assert "no gap cells" in findings[0].message

    def test_uncertified_baseline_level_never_fires(self):
        # Baseline md gap 4.0 (> threshold) — worsening it is not a
        # regression; the ratchet only guards certified levels.
        base = build_gap_report([make_cell(ms=30, ms_best=20.0,
                                           md=60, md_best=15.0)])
        worse = build_gap_report([make_cell(ms=30, ms_best=20.0,
                                            md=90, md_best=15.0)])
        assert compare_gap_reports(worse, base) == []
