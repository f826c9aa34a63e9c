"""End-to-end checker runs: real schedules are clean, broken ones are not."""

from __future__ import annotations

from typing import Any, Dict

import pytest

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm
from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.cache.block import MAT_A, MAT_B, MAT_C, block_key
from repro.check import analyze_schedule, check_all
from repro.check.runner import suggested_orders
from repro.model.machine import PRESETS


class RacyEqual(MatmulAlgorithm):
    """Broken on purpose: every core accumulates into the SAME C block.

    Coverage also breaks (each update emitted p times) — one seeded bug,
    two analyzers that must catch it.
    """

    name = "abstract"  # never registered; lint exempts the marker

    def parameters(self) -> Dict[str, Any]:
        return {}

    def run(self, ctx: ExecutionContext) -> None:
        ck = block_key(MAT_C, 0, 0)
        ak = block_key(MAT_A, 0, 0)
        bk = block_key(MAT_B, 0, 0)
        if ctx.explicit:
            for key in (ck, ak, bk):
                ctx.load_shared(key)
            for core in range(ctx.p):
                for key in (ck, ak, bk):
                    ctx.load_dist(core, key)
        for core in range(ctx.p):
            ctx.compute(core, ck, ak, bk)
        if ctx.explicit:
            for core in range(ctx.p):
                for key in (ak, bk, ck):
                    ctx.evict_dist(core, key)
            for key in (ak, bk, ck):
                ctx.evict_shared(key)


class TestAnalyzeSchedule:
    @pytest.mark.parametrize("name", algorithm_names(include_extras=True))
    def test_registered_algorithms_clean_on_quad(self, name, quad):
        cls = get_algorithm(name)
        for order in suggested_orders(cls, quad):
            report = analyze_schedule(cls(quad, order, order, order))
            assert report.ok, [f.render() for f in report.findings]
            assert report.findings == []  # no warnings either
            assert report.computes == order**3

    def test_broken_schedule_caught(self, quad):
        report = analyze_schedule(RacyEqual(quad, 1, 1, 1), machine_label="quad")
        assert not report.ok
        analyzers = {f.analyzer for f in report.findings}
        assert "race" in analyzers  # p cores write one C block, one epoch
        assert "coverage" in analyzers  # the update is emitted p times

    def test_peaks_reported(self, quad):
        cls = get_algorithm("shared-opt")
        report = analyze_schedule(cls(quad, 9, 9, 9))
        assert 0 < report.peak_shared <= quad.cs
        assert len(report.peak_dist) == quad.p
        assert all(0 < d <= quad.cd for d in report.peak_dist)

    def test_compute_only_schedule_skips_residency(self, quad):
        # nested-max-reuse emits no directives; capacity/presence would
        # report everything as non-resident if not skipped.
        cls = get_algorithm("nested-max-reuse")
        report = analyze_schedule(cls(quad, 8, 8, 8))
        assert report.ok
        assert report.peak_shared == 0

    def test_report_to_dict(self, quad):
        cls = get_algorithm("cannon")
        d = analyze_schedule(cls(quad, 4, 4, 4), machine_label="quad").to_dict()
        assert d["algorithm"] == "cannon"
        assert d["machine"] == "quad"
        assert d["findings"] == []
        assert d["status"] == "analyzed"
        assert d["elapsed_s"] > 0  # per-cell wall time is recorded
        assert "skip_reason" not in d


class TestCheckAll:
    def test_full_matrix_is_clean(self):
        reports = check_all()
        assert reports, "no schedule cells analyzed"
        # Every registered algorithm appears on at least one preset.
        assert {r.algorithm for r in reports} == set(
            algorithm_names(include_extras=True)
        )
        dirty = [f.render() for r in reports for f in r.findings]
        assert dirty == []

    def test_filters_respected(self):
        reports = check_all(["shared-opt"], {"q32": PRESETS["q32"]}, orders=[7])
        assert len(reports) == 1
        assert (reports[0].algorithm, reports[0].machine) == ("shared-opt", "q32")
        assert (reports[0].m, reports[0].n, reports[0].z) == (7, 7, 7)

    def test_infeasible_cells_reported_as_skipped(self):
        # 6 cores is not a square grid: distributed-opt has no feasible
        # parameters there.  The cell must come back as an explicit
        # skipped report (not vanish), carrying the reason and no
        # findings, so a consumer can tell sparse from empty.
        from repro.model.machine import MulticoreMachine

        machine = MulticoreMachine(p=6, cs=120, cd=16, q=8)
        reports = check_all(["distributed-opt"], {"hex": machine})
        assert len(reports) == 1
        (report,) = reports
        assert report.skipped
        assert report.status == "skipped"
        assert report.skip_reason
        assert report.findings == []
        assert report.ok  # skipping is not an error
        d = report.to_dict()
        assert d["status"] == "skipped"
        assert d["skip_reason"] == report.skip_reason

    def test_skipped_cells_do_not_hide_analyzed_ones(self):
        # Same sweep over two machines: the square grid analyzes, the
        # non-square one skips; both appear.
        from repro.model.machine import MulticoreMachine

        machines = {
            "hex": MulticoreMachine(p=6, cs=120, cd=16, q=8),
            "quad": MulticoreMachine(p=4, cs=100, cd=21, q=8),
        }
        reports = check_all(["distributed-opt"], machines)
        by_status = {r.machine: r.skipped for r in reports}
        assert by_status["hex"] is True
        assert by_status["quad"] is False


class TestSuggestedOrders:
    def test_small_tile_gets_even_and_ragged(self, quad):
        # shared-opt on quad: lambda=9 -> orders (18, 21).
        orders = suggested_orders(get_algorithm("shared-opt"), quad)
        assert orders == (18, 21)
        assert orders[0] % 9 == 0 and orders[1] % 9 != 0

    def test_large_tile_gets_single_ragged(self):
        # q32: lambda=30 -> a single ragged order keeps analysis fast.
        orders = suggested_orders(get_algorithm("shared-opt"), PRESETS["q32"])
        assert orders == (33,)
