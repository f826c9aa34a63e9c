"""Tests for the trace-compile/replay fast path.

The replay engine's contract is *bit-identity*: every counter it
produces (``ms``, ``md``, write-backs, per-matrix splits, hits) must
equal the step simulator's on the same workload.  These tests prove it
on the full algorithms × settings × policies × ragged-shape matrix and
on adversarial random traces (hypothesis), and pin the engine's other
behaviors: trace memoization and fallback coverage.  Result
memoization lives in the runner (``tests/sim/test_runner.py``).
"""

import dataclasses

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.cache import replay
from repro.cache.block import MAT_A, MAT_B, MAT_C, block_key
from repro.cache.hierarchy import LRUHierarchy
from repro.cache.replay import (
    CompiledTrace,
    clear_trace_cache,
    compile_trace,
    compiled_trace_for,
    distributed_miss_curves,
    replay_bulk,
    supports,
    trace_cache_info,
)
from repro.exceptions import ConfigurationError
from repro.model.machine import PRESETS
from repro.sim.runner import clear_memos, run_experiment

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
        m, n, z = 7, 5, 9
        rep = run_experiment(
            algorithm, MACHINE, m, n, z, setting, policy=policy, engine="replay"
        )
        step = run_experiment(
            algorithm, MACHINE, m, n, z, setting, policy=policy, engine="step"
        )
        assert rep.stats == step.stats
        assert rep.comp == step.comp

    def test_capacity_curve_matches_step_per_point(self):
        capacities = (3, 5, 8, 13, 21)
        alg = get_algorithm("shared-opt")(MACHINE, 8, 8, 8)
        trace = compile_trace(alg, directives=False)
        curves = distributed_miss_curves(trace, capacities)
        for cap in capacities:
            step = run_experiment(
                "shared-opt",
                dataclasses.replace(MACHINE, cd=cap),
                8,
                8,
                8,
                "lru",
                engine="step",
            )
            assert curves[cap] == step.stats.md_per_core

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
# Random traces (hypothesis) — including the dirty-victim path
# ----------------------------------------------------------------------
def _step_reference(p, cs, cd, policy, fmas):
    hierarchy = LRUHierarchy(p, cs, cd, policy=policy)
    for core, akey, bkey, ckey in fmas:
        hierarchy.compute_touches(core, akey, bkey, ckey)
    return hierarchy.snapshot()


#: Random FMA streams over a small block universe (collisions and
#: evictions guaranteed); indices include (0, 0) so block key 0 appears.
_fma_stream = st.lists(
    st.tuples(
        st.integers(0, 2),  # core
        st.integers(0, 3),
        st.integers(0, 3),  # A index pair
        st.integers(0, 3),
        st.integers(0, 3),  # B index pair
        st.integers(0, 3),
        st.integers(0, 3),  # C index pair
    ),
    min_size=1,
    max_size=120,
)


class TestRandomTraces:
    @given(
        _fma_stream,
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=2, max_value=24),
        st.sampled_from(["lru", "fifo"]),
    )
    @hsettings(max_examples=120, deadline=None)
    def test_replay_equals_step_on_random_traces(self, raw, cd, cs, policy):
        fmas = [
            (
                core,
                block_key(MAT_A, ai, aj),
                block_key(MAT_B, bi, bj),
                block_key(MAT_C, ci, cj),
            )
            for core, ai, aj, bi, bj, ci, cj in raw
        ]
        p = 3
        comp = [0] * p
        for core, *_ in fmas:
            comp[core] += 1
        trace = CompiledTrace(p, fmas, comp, None)
        got = replay_bulk(trace, [(policy, cs, cd)])[0]
        assert got == _step_reference(p, cs, cd, policy, fmas)

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

    @given(
        _fma_stream,
        st.lists(
            st.integers(min_value=1, max_value=12),
            min_size=1,
            max_size=4,
            unique=True,
        ),
    )
    @hsettings(max_examples=60, deadline=None)
    def test_capacity_curves_equal_per_capacity_step(self, raw, capacities):
        fmas = [
            (
                core,
                block_key(MAT_A, ai, aj),
                block_key(MAT_B, bi, bj),
                block_key(MAT_C, ci, cj),
            )
            for core, ai, aj, bi, bj, ci, cj in raw
        ]
        p = 3
        trace = CompiledTrace(p, fmas, [0] * p, None)
        curves = distributed_miss_curves(trace, capacities)
        for cap in capacities:
            expected = _step_reference(p, 10_000, cap, "lru", fmas)
            assert curves[cap] == expected.md_per_core


# ----------------------------------------------------------------------
# Coverage predicate + engine knob
# ----------------------------------------------------------------------
class TestCoverage:
    def test_supports_matrix(self):
        assert supports("ideal", "lru", False, False)
        assert not supports("ideal", "lru", False, True)  # checked: oracle
        assert supports("lru", "lru", False, False)
        assert supports("lru", "fifo", False, False)
        assert not supports("lru", "lru", True, False)  # inclusive
        assert not supports("lru", "plru", False, False)
        assert not supports("lru", "assoc", False, False)

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
# Trace memoization
# ----------------------------------------------------------------------
class TestTraceCache:
    def test_lru_family_shares_one_trace(self):
        # lru and lru-2x declare the same machine -> same fingerprint;
        # lru-50 plans against halved capacities -> different trace
        run_experiment("shared-opt", MACHINE, 6, 6, 6, "lru", engine="replay")
        assert trace_cache_info()["entries"] == 1
        run_experiment("shared-opt", MACHINE, 6, 6, 6, "lru-2x", engine="replay")
        assert trace_cache_info()["entries"] == 1
        run_experiment("shared-opt", MACHINE, 6, 6, 6, "lru-50", engine="replay")
        assert trace_cache_info()["entries"] == 2

    def test_fingerprint_distinguishes_shapes(self):
        a1 = get_algorithm("shared-opt")(MACHINE, 6, 6, 6)
        a2 = get_algorithm("shared-opt")(MACHINE, 6, 6, 7)
        assert a1.schedule_key() != a2.schedule_key()
        assert a1.schedule_key() == (
            get_algorithm("shared-opt")(MACHINE, 6, 6, 6).schedule_key()
        )

    def test_bandwidths_share_one_trace(self):
        # sigma enters Tdata after simulation, never the schedule
        for r in (0.2, 0.5, 0.8):
            alg = get_algorithm("shared-opt")(MACHINE.with_bandwidth_ratio(r), 6, 6, 6)
            compiled_trace_for(alg)
        assert trace_cache_info()["entries"] == 1

    def test_compute_only_trace_upgraded_for_ideal(self):
        alg = get_algorithm("shared-opt")(MACHINE, 6, 6, 6)
        first = compiled_trace_for(alg, directives=False)
        assert not first.has_directives
        upgraded = compiled_trace_for(alg, directives=True)
        assert upgraded.has_directives
        # the upgraded trace replaces the cached entry and now serves
        # compute-only requests as-is
        assert compiled_trace_for(alg, directives=False) is upgraded

    def test_budget_evicts_oldest(self, monkeypatch):
        alg1 = get_algorithm("shared-opt")(MACHINE, 6, 6, 6)
        alg2 = get_algorithm("shared-opt")(MACHINE, 5, 5, 5)
        monkeypatch.setattr(replay, "_TRACE_CACHE_BUDGET", 1)
        compiled_trace_for(alg1)
        compiled_trace_for(alg2)
        info = trace_cache_info()
        assert info["entries"] == 1
        assert info["fmas"] == 125

    def test_budget_weighs_directives(self, monkeypatch):
        # two IDEAL traces whose multiply-adds fit the budget but whose
        # directives do not: only the newest stays resident
        alg1 = get_algorithm("shared-opt")(MACHINE, 6, 6, 6)
        alg2 = get_algorithm("shared-opt")(MACHINE, 5, 5, 5)
        monkeypatch.setattr(replay, "_TRACE_CACHE_BUDGET", 216 + 125)
        first = compiled_trace_for(alg1)
        assert first.weight == len(first) + len(first._dir_lists[0]) > 216
        compiled_trace_for(alg2)
        assert trace_cache_info() == {"entries": 1, "fmas": 125}

    def test_clear(self):
        compiled_trace_for(get_algorithm("shared-opt")(MACHINE, 4, 4, 4))
        clear_trace_cache()
        assert trace_cache_info() == {"entries": 0, "fmas": 0}


