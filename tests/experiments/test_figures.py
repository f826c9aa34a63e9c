"""Tests for the figure-regeneration harness.

Tiny orders keep these fast; the *content* claims (who wins where) are
covered in tests/integration/test_paper_claims.py at more meaningful
sizes.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.figures import (
    FIGURES,
    figure4,
    figure7,
    figure9,
    figure12,
    get_figure,
)
from repro.sim.runner import clear_memos

TINY = (8, 16)


class TestStructure:
    def test_registry_covers_4_to_12_plus_extensions(self):
        paper = {f"fig{i}" for i in range(4, 13)}
        assert paper <= set(FIGURES)
        assert set(FIGURES) - paper == {"ext-lu", "ext-nested"}

    def test_extension_figures_build(self):
        lu = get_figure("ext-lu", orders=(16, 24))
        assert lu.panels[0].xs == [16, 24]
        nested = get_figure("ext-nested", orders=(16,))
        series = nested.panels[0].series
        assert series["nested-max-reuse"][0] <= series["distributed-opt (flat)"][0]

    def test_get_figure_unknown(self):
        with pytest.raises(ConfigurationError):
            get_figure("fig99")

    def test_figure4_shape(self):
        fig = figure4(orders=TINY)
        assert fig.id == "fig4"
        assert len(fig.panels) == 1
        panel = fig.panels[0]
        assert panel.xs == list(TINY)
        assert set(panel.series) == {
            "shared-opt LRU (C)",
            "shared-opt LRU (2C)",
            "Formula (C)",
            "2x Formula (C)",
        }

    def test_figure4_formula_doubling(self):
        fig = figure4(orders=TINY)
        panel = fig.panels[0]
        for f, f2 in zip(panel.series["Formula (C)"], panel.series["2x Formula (C)"]):
            assert f2 == pytest.approx(2 * f)

    def test_figure7_three_panels(self):
        fig = figure7(orders=TINY)
        assert [p.key for p in fig.panels] == ["a", "b", "c"]
        for panel in fig.panels:
            assert "Lower Bound" in panel.series
            assert "Shared Opt. LRU-50" in panel.series
            assert all(len(v) == len(TINY) for v in panel.series.values())

    def test_figure12_six_panels(self):
        fig = figure12(order=6, ratios=[0.25, 0.75])
        assert len(fig.panels) == 6
        for panel in fig.panels:
            assert panel.xs == [0.25, 0.75]
            assert "tradeoff IDEAL" in panel.series
            assert "Lower Bound" in panel.series

    def test_figure12_evaluates_each_schedule_once(self, monkeypatch):
        """684 cells (6 presets x 6 algorithms x 19 ratios), 29 schedules.

        Bandwidths enter Tdata after simulation, and only Tradeoff
        re-plans with the ratio, so each ScheduleKey runs its schedule
        once and the result memo serves every other cell.
        """
        from repro.cache import replay

        compiled = []
        real_compile = replay.compile_trace

        def counting_compile(algorithm, **kwargs):
            compiled.append(algorithm.schedule_key())
            return real_compile(algorithm, **kwargs)

        previous = replay.trace_tier_root()
        replay.configure_trace_tier(None)
        clear_memos()
        monkeypatch.setattr(replay, "compile_trace", counting_compile)
        try:
            fig = figure12(order=4)
        finally:
            replay.configure_trace_tier(previous)
        assert sum(len(p.xs) * (len(p.series) - 1) for p in fig.panels) == 684
        assert 0 < len(compiled) == len(set(compiled)) <= 29

    @pytest.mark.parametrize("fig_id", [f"fig{i}" for i in range(4, 13)])
    def test_figures_run_on_their_default_engine(self, fig_id, monkeypatch):
        """Figs. 4–11 run every cell on step; Fig. 12 replays."""
        from repro.sim import sweep

        engines = []
        real_run = sweep.run_experiment

        def recording_run(*args, **kwargs):
            result = real_run(*args, **kwargs)
            engines.append(result.engine)
            return result

        monkeypatch.setattr(sweep, "run_experiment", recording_run)
        if fig_id == "fig12":
            get_figure(fig_id, order=4, ratios=[0.5])
        else:
            get_figure(fig_id, orders=(8,))
        assert engines
        assert set(engines) == {"replay" if fig_id == "fig12" else "step"}

    def test_panel_add_validates_length(self):
        fig = figure4(orders=TINY)
        with pytest.raises(ConfigurationError):
            fig.panels[0].add("bad", [1.0])

    def test_figure7_panels_filter_builds_subset(self):
        # perfbench's fig9 workload builds two panels only; a filtered
        # build must reproduce exactly the full build's panels.
        full = figure7(orders=TINY)
        shard = figure7(orders=TINY, panels_filter=("a", "c"))
        assert [p.key for p in shard.panels] == ["a", "c"]
        by_key = {p.key: p for p in full.panels}
        for panel in shard.panels:
            assert panel.series == by_key[panel.key].series

    def test_figure9_shards_cover_full_build(self):
        full = figure9(orders=(8,))
        merged = {}
        for keys in (("a", "b"), ("c", "d")):
            for panel in figure9(orders=(8,), panels_filter=keys).panels:
                merged[panel.key] = panel.series
        assert merged == {p.key: p.series for p in full.panels}

    def test_figure_workers_match_serial(self):
        serial = figure7(orders=TINY)
        par = figure7(orders=TINY, workers=2)
        assert {p.key: p.series for p in par.panels} == {
            p.key: p.series for p in serial.panels
        }


class TestContent:
    def test_figure4_lru_2c_below_twice_formula(self):
        """The headline claim of Figs. 4-6 at small scale."""
        fig = figure4(orders=(32, 48))
        panel = fig.panels[0]
        for lru2, twice in zip(
            panel.series["shared-opt LRU (2C)"], panel.series["2x Formula (C)"]
        ):
            assert lru2 <= twice

    def test_figure7_lower_bound_is_lowest(self):
        fig = figure7(orders=(24,))
        for panel in fig.panels:
            bound = panel.series["Lower Bound"][0]
            for label, values in panel.series.items():
                if label != "Lower Bound":
                    assert values[0] >= bound * 0.999
