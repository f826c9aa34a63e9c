"""Tests for the experiment runner and its result memo."""

from dataclasses import replace

import pytest

from repro.algorithms.shared_opt import SharedOpt
from repro.exceptions import ScheduleError
from repro.sim import runner
from repro.sim.runner import ENGINES, clear_memos, run_experiment


class TestRunExperiment:
    def test_accepts_name_or_class(self, quad):
        by_name = run_experiment("shared-opt", quad, 8, 8, 8, "ideal", lam=4)
        by_class = run_experiment(SharedOpt, quad, 8, 8, 8, "ideal", lam=4)
        assert by_name.ms == by_class.ms

    def test_result_fields(self, quad):
        r = run_experiment("shared-opt", quad, 8, 8, 8, "ideal", lam=4)
        assert r.algorithm == "shared-opt"
        assert r.setting == "ideal"
        assert (r.m, r.n, r.z) == (8, 8, 8)
        assert r.parameters == {"lambda": 4}
        assert r.comp_total == 512
        assert r.elapsed_s > 0
        assert r.predicted is not None

    def test_tdata_uses_machine_bandwidths(self, quad):
        from dataclasses import replace

        fast_shared = replace(quad, sigma_s=10.0, sigma_d=1.0)
        r = run_experiment("shared-opt", fast_shared, 8, 8, 8, "ideal", lam=4)
        assert r.tdata == pytest.approx(r.ms / 10.0 + r.md / 1.0)

    def test_ccrs(self, quad):
        r = run_experiment("shared-opt", quad, 8, 8, 8, "ideal", lam=4)
        assert r.ccr_s == pytest.approx(r.ms / 512)
        assert r.ccr_d == pytest.approx(r.md / (512 / 4))

    def test_to_row_flat(self, quad):
        row = run_experiment("shared-opt", quad, 8, 8, 8, "ideal", lam=4).to_row()
        assert row["MS"] > 0
        assert row["param_lambda"] == 4
        assert "MS_pred" in row

    def test_lru50_declares_half(self, quad):
        # CS=100 -> declared 50 -> lambda becomes 6 instead of 9
        r = run_experiment("shared-opt", quad, 12, 12, 12, "lru-50")
        assert r.parameters["lambda"] == 6

    def test_lru2x_simulates_double(self, quad):
        r_1x = run_experiment("shared-opt", quad, 16, 16, 16, "lru")
        r_2x = run_experiment("shared-opt", quad, 16, 16, 16, "lru-2x")
        assert r_2x.ms <= r_1x.ms  # bigger cache can only help (LRU stack property)
        assert r_2x.parameters == r_1x.parameters  # same declared plan

    def test_comp_verification_catches_bad_schedule(self, quad):
        class Lazy(SharedOpt):
            name = "lazy"

            def run(self, ctx):  # emits nothing
                return

        with pytest.raises(ScheduleError):
            run_experiment(Lazy, quad, 4, 4, 4, "ideal")

    def test_fifo_policy_plumbs_through(self, quad):
        r = run_experiment("shared-opt", quad, 8, 8, 8, "lru", policy="fifo")
        assert r.ms > 0

    def test_inclusive_plumbs_through(self, quad):
        r = run_experiment("shared-opt", quad, 8, 8, 8, "lru", inclusive=True)
        assert r.ms > 0


class TestResultMemo:
    """``run_experiment`` memoizes counters per engine, schedule and hierarchy."""

    @pytest.fixture(autouse=True)
    def _cold_memos(self):
        clear_memos()
        yield
        clear_memos()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "setting, policy", [("ideal", "lru"), ("lru-50", "lru"), ("lru-50", "fifo")]
    )
    def test_hits_are_equal_independent_copies(self, quad, setting, policy, engine):
        def run():
            return run_experiment(
                "shared-opt", quad, 8, 8, 8, setting, policy=policy, engine=engine
            )

        first = run()
        second = run()
        # Replay serves IDEAL cells only; an LRU-family request runs on step.
        ran = "replay" if engine == "replay" and setting == "ideal" else "step"
        assert first.trace_source != "memo"
        assert second.trace_source == "memo"
        assert second.engine == first.engine == ran
        assert second.stats == first.stats and second.comp == first.comp
        assert second.stats is not first.stats and second.comp is not first.comp
        # mutating either returned result must not poison the memo
        for result in (first, second):
            result.stats.shared.misses_by_matrix[0] += 1000
            result.stats.distributed[0].misses += 1000
            result.comp[0] += 1
        third = run()
        assert third.trace_source == "memo"
        clear_memos()
        assert third.stats == run().stats
        assert third.comp_total == 512

    @staticmethod
    def _poison_the_one_entry():
        """Whoever reads the memo from here on sees 1000 extra ``MS``."""
        ((stats, _comp),) = runner._RESULTS.values()
        stats.shared.misses += 1000

    def _only_its_own_engine(self, quad, filled, asked, setting="ideal", **options):
        def run(engine):
            return run_experiment(
                "shared-opt", quad, 8, 8, 8, setting, engine=engine, **options
            )

        warm = run(filled)
        self._poison_the_one_entry()
        hit = run(filled)
        assert hit.ms == warm.ms + 1000
        other = run(asked)
        assert other.ms == warm.ms
        assert other.engine == asked
        assert other.trace_source != "memo"
        # ... and the other engine's result is an entry of its own.
        assert len(runner._RESULTS) == 2
        again = run(asked)
        assert again.trace_source == "memo"
        assert again.ms == warm.ms

    def test_a_replay_entry_never_answers_a_step_call(self, quad):
        self._only_its_own_engine(quad, "replay", "step")

    def test_a_step_entry_never_answers_a_replay_call(self, quad):
        self._only_its_own_engine(quad, "step", "replay")

    def test_a_replay_call_that_fell_back_never_answers_a_step_call(self, quad):
        # Replay has no inclusive kernel, so the replay call runs on step
        # too; its entry still must not stand in for an explicit step run.
        fallback = run_experiment(
            "shared-opt", quad, 8, 8, 8, "lru-50", inclusive=True, engine="replay"
        )
        assert fallback.engine == "step" and fallback.engine_fallback
        clear_memos()
        self._only_its_own_engine(quad, "replay", "step", "lru-50", inclusive=True)

    def test_policy_inclusive_cs_and_cd_each_key_an_entry(self, quad):
        # Shared Opt. plans on CS alone and CS=100 and CS=105 both give
        # lambda=9, so all five cells run one schedule.
        cells = [
            (quad, {}),
            (quad, {"policy": "fifo"}),
            (quad, {"inclusive": True}),
            (replace(quad, cs=105), {}),
            (replace(quad, cd=20), {}),
        ]
        keys = {SharedOpt(machine, 8, 8, 8).schedule_key() for machine, _ in cells}
        assert len(keys) == 1
        for machine, kwargs in cells:
            cold = run_experiment("shared-opt", machine, 8, 8, 8, "lru", **kwargs)
            assert cold.trace_source != "memo"
        assert len(runner._RESULTS) == len(cells)
        warm = [
            run_experiment("shared-opt", machine, 8, 8, 8, "lru", **kwargs)
            for machine, kwargs in cells
        ]
        assert {hit.trace_source for hit in warm} == {"memo"}
        clear_memos()
        for (machine, kwargs), hit in zip(cells, warm):
            cold = run_experiment("shared-opt", machine, 8, 8, 8, "lru", **kwargs)
            assert hit.stats == cold.stats

    def test_ideal_cells_share_one_entry_across_capacities_and_bandwidths(self, quad):
        run_experiment("shared-opt", quad, 8, 8, 8, "ideal")
        for machine in (replace(quad, cd=20), quad.with_bandwidth_ratio(0.3)):
            assert run_experiment(
                "shared-opt", machine, 8, 8, 8, "ideal"
            ).trace_source == "memo"

    def test_cap_evicts_least_recently_used(self, quad, monkeypatch):
        monkeypatch.setattr(runner, "_RESULT_MEMO_CAP", 2)
        for order in (4, 5, 6):
            run_experiment("shared-opt", quad, order, order, order, "ideal")
        assert len(runner._RESULTS) == 2

        def source(order):
            return run_experiment(
                "shared-opt", quad, order, order, order, "ideal"
            ).trace_source

        assert source(5) == "memo"  # 5 is now the most recently used
        source(7)  # evicts 6, the least recently used
        assert source(5) == "memo"
        assert source(6) != "memo"

    def test_hit_still_verifies_comp(self, quad):
        """A wrong multiply-add count raises on every call: it never
        enters the memo, so no later call can be served from it."""

        class HalfWork(SharedOpt):
            name = "half"

            def run(self, ctx):
                SharedOpt(self.machine, self.m, self.n, 1, lam=self.lam).run(ctx)

        before = len(runner._RESULTS)
        for _ in range(2):
            with pytest.raises(ScheduleError, match="multiply-adds"):
                run_experiment(HalfWork, quad, 4, 4, 4, "lru")
        assert len(runner._RESULTS) == before
