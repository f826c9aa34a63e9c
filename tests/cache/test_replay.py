"""Tests for the trace-compile/replay fast path.

The replay engine's contract is *bit-identity*: every counter it
produces (``ms``, ``md``, write-backs, per-matrix splits) must equal
the step simulator's on the same workload.  Replay serves IDEAL cells
only; these tests prove it on every algorithm at ragged shapes and on
hypothesis-drawn shapes, prove that an LRU-family replay request runs
on step with a cold step run's counters, and pin the
engine's other behaviors: trace keying (through the on-disk tier: no
trace is kept in memory) and fallback coverage.  Result memoization
lives in the runner (``tests/sim/test_runner.py``).
"""

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.cache import tracestore
from repro.cache.block import MAT_A, MAT_B, MAT_C, block_key
from repro.cache.replay import (
    CompiledTrace,
    compile_trace,
    compiled_trace_for,
    configure_trace_tier,
    replay_bulk,
    replays,
)
from repro.exceptions import ConfigurationError
from repro.model.machine import PRESETS
from repro.sim.runner import clear_memos, run_experiment
from repro.sim.settings import get_setting

MACHINE = PRESETS["q32"]
SHAPES = [(6, 6, 6), (7, 5, 9)]


@pytest.fixture(autouse=True)
def _cold_memos():
    clear_memos()
    yield
    clear_memos()


# ----------------------------------------------------------------------
# Bit-identity on the real matrix
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", algorithm_names())
    @pytest.mark.parametrize("shape", SHAPES)
    def test_ideal_matches_step(self, algorithm, shape):
        m, n, z = shape
        rep = run_experiment(algorithm, MACHINE, m, n, z, "ideal", engine="replay")
        step = run_experiment(algorithm, MACHINE, m, n, z, "ideal", engine="step")
        assert rep.stats == step.stats
        assert rep.comp == step.comp

    @pytest.mark.parametrize("algorithm", algorithm_names())
    @pytest.mark.parametrize("setting", ["lru", "lru-2x", "lru-50"])
    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_lru_family_matches_step(self, algorithm, setting, policy):
        # Replay has no LRU-family kernel: the request runs on step.
        m, n, z = 7, 5, 9
        rep = run_experiment(
            algorithm, MACHINE, m, n, z, setting, policy=policy, engine="replay"
        )
        step = run_experiment(
            algorithm, MACHINE, m, n, z, setting, policy=policy, engine="step"
        )
        assert (rep.engine, rep.engine_fallback) == ("step", True)
        assert step.trace_source == ""  # a cold step run, not the request's entry
        assert rep.stats == step.stats
        assert rep.comp == step.comp

    def test_fifo_cold_start_block_zero(self):
        # Regression: block key 0 (A[0,0]) touched during the cold-start
        # window, when a naive "-1 = never inserted" sentinel satisfies
        # the residency test `ins.get(key, -1) >= m - cd` and fakes a hit.
        fmas = [(0, block_key(MAT_A, 0, 0), block_key(MAT_B, 0, 0),
                 block_key(MAT_C, 0, 0))]
        trace = CompiledTrace(1, fmas, [1], None)
        stats = replay_bulk(trace, [("fifo", 16, 4)])[0]
        assert stats.distributed[0].misses == 3
        assert stats.distributed[0].hits == 0


# ----------------------------------------------------------------------
# Random shapes (hypothesis)
# ----------------------------------------------------------------------
class TestRandomTraces:
    @given(
        st.sampled_from(["shared-opt", "distributed-opt"]),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    @hsettings(max_examples=25, deadline=None)
    def test_ideal_replay_equals_step_on_random_shapes(self, algorithm, m, n, z):
        rep = run_experiment(algorithm, MACHINE, m, n, z, "ideal", engine="replay")
        step = run_experiment(algorithm, MACHINE, m, n, z, "ideal", engine="step")
        assert rep.stats == step.stats


# ----------------------------------------------------------------------
# Coverage predicate + engine knob
# ----------------------------------------------------------------------
class TestCoverage:
    def test_supports_matrix(self):
        # IDEAL is the one mode replay covers; every LRU-family cell,
        # whatever its policy or inclusion, runs on step.
        assert replays("ideal", 1)
        assert not replays("lru", 1)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            run_experiment("shared-opt", MACHINE, 4, 4, 4, "lru", engine="warp")

    def test_uncovered_config_falls_back_to_step(self):
        # inclusive hierarchies aren't replayable; a replay request
        # must still produce correct (step) results rather than fail
        rep = run_experiment(
            "shared-opt", MACHINE, 5, 5, 5, "lru", inclusive=True, engine="replay"
        )
        step = run_experiment(
            "shared-opt", MACHINE, 5, 5, 5, "lru", inclusive=True, engine="step"
        )
        assert rep.engine_fallback
        assert step.trace_source == ""  # simulated, not the fallback's entry
        assert rep.stats == step.stats


# ----------------------------------------------------------------------
# Trace keying: one tier entry per ScheduleKey
# ----------------------------------------------------------------------
class TestTraceCache:
    """Nothing keeps a trace in memory; the on-disk tier, keyed on the
    schedule, is what lets settings and bandwidths share one."""

    @pytest.fixture(autouse=True)
    def tier(self, tmp_path):
        configure_trace_tier(str(tmp_path))
        yield tmp_path
        configure_trace_tier(None)

    def test_lru_family_shares_one_trace(self, tier):
        # lru and lru-2x declare the same machine -> same schedule key;
        # lru-50 plans against halved capacities -> different trace
        def origin(setting):
            declared = get_setting(setting).declared(MACHINE)
            alg = get_algorithm("shared-opt")(declared, 6, 6, 6)
            return compiled_trace_for(alg).origin

        assert origin("lru") == "compiled"
        assert origin("lru-2x") == "disk"
        assert tracestore.tier_info(tier)["entries"] == 1
        assert origin("lru-50") == "compiled"
        assert tracestore.tier_info(tier)["entries"] == 2
        # An LRU-family cell runs on step, so it never reaches the tier.
        run_experiment("shared-opt", MACHINE, 7, 7, 7, "lru", engine="replay")
        assert tracestore.tier_info(tier)["entries"] == 2

    def test_fingerprint_distinguishes_shapes(self):
        a1 = get_algorithm("shared-opt")(MACHINE, 6, 6, 6)
        a2 = get_algorithm("shared-opt")(MACHINE, 6, 6, 7)
        assert a1.schedule_key() != a2.schedule_key()
        assert a1.schedule_key() == (
            get_algorithm("shared-opt")(MACHINE, 6, 6, 6).schedule_key()
        )

    def test_bandwidths_share_one_trace(self, tier):
        # sigma enters Tdata after simulation, never the schedule
        origins = [
            compiled_trace_for(
                get_algorithm("shared-opt")(MACHINE.with_bandwidth_ratio(r), 6, 6, 6)
            ).origin
            for r in (0.2, 0.5, 0.8)
        ]
        assert origins == ["compiled", "disk", "disk"]
        assert tracestore.tier_info(tier)["entries"] == 1

    def test_compute_only_trace_upgraded_for_ideal(self, tier):
        alg = get_algorithm("shared-opt")(MACHINE, 6, 6, 6)
        tracestore.store(tier, alg.schedule_key(), compile_trace(alg, directives=False))
        assert tracestore.tier_info(tier)["directive_entries"] == 0
        # an entry without directives is a miss that recompiles ...
        upgraded = compiled_trace_for(alg)
        assert upgraded.origin == "compiled"
        assert upgraded.has_directives
        # ... and overwrites the entry, which then serves as-is
        again = compiled_trace_for(alg)
        assert (again.origin, again.has_directives) == ("disk", True)
        assert tracestore.tier_info(tier)["directive_entries"] == 1

    def test_clear(self):
        # clear_memos() is a whole cold start: no trace survives it in
        # memory, so the same cell compiles again rather than reusing one.
        configure_trace_tier(None)
        first = run_experiment("shared-opt", MACHINE, 4, 4, 4, "ideal", engine="replay")
        assert first.trace_source == "compiled"
        assert run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "ideal", engine="replay"
        ).trace_source == "memo"
        clear_memos()
        again = run_experiment("shared-opt", MACHINE, 4, 4, 4, "ideal", engine="replay")
        assert again.trace_source == "compiled"
        assert again.stats == first.stats

    def test_without_a_tier_every_call_compiles(self):
        configure_trace_tier(None)
        alg = get_algorithm("shared-opt")(MACHINE, 6, 6, 6)
        first = compiled_trace_for(alg)
        second = compiled_trace_for(alg)
        assert (first.origin, second.origin) == ("compiled", "compiled")
        assert second is not first
