"""Batched and streaming replay: bit-identity, batching, write-backs.

:func:`repro.cache.replay.replay_bulk` evaluates many ``(policy, CS,
CD)`` cells over one trace; :func:`replay_bulk_streaming` evaluates
them off the running schedule with no materialized trace at all.  The
contract of both is the same as the single-cell path: every counter is
bit-identical to the step simulator.  These tests prove that property
on hypothesis-generated cell *batches* (mixed policies and capacities
over one shared pass), on the real algorithms at ragged shapes, and on
a fixture designed so the dirty-victim write-back propagation path can
never be silently lost (mutating it flips asserted-nonzero counters).
"""

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.cache import replay
from repro.cache.block import MAT_A, MAT_B, MAT_C, block_key
from repro.cache.hierarchy import LRUHierarchy
from repro.cache.replay import (
    CompiledTrace,
    compile_trace,
    replay_bulk,
    replay_bulk_streaming,
    STREAM_FMAS,
    replays,
)
from repro.exceptions import ConfigurationError
from repro.model.machine import PRESETS
from repro.sim.runner import clear_memos

MACHINE = PRESETS["q32"]


@pytest.fixture(autouse=True)
def _cold_memos():
    clear_memos()
    yield
    clear_memos()


def _step_reference(p, cs, cd, policy, fmas):
    hierarchy = LRUHierarchy(p, cs, cd, policy=policy)
    for core, akey, bkey, ckey in fmas:
        hierarchy.compute_touches(core, akey, bkey, ckey)
    return hierarchy.snapshot()


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
    max_size=100,
)

#: Random cell batches: mixed policies, shared and repeated capacities.
_cell_batch = st.lists(
    st.tuples(
        st.sampled_from(["lru", "fifo"]),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=10),
    ),
    min_size=1,
    max_size=8,
)


def _build_fmas(raw):
    return [
        (
            core,
            block_key(MAT_A, ai, aj),
            block_key(MAT_B, bi, bj),
            block_key(MAT_C, ci, cj),
        )
        for core, ai, aj, bi, bj, ci, cj in raw
    ]


class TestBatchedBitIdentity:
    @given(_fma_stream, _cell_batch)
    @hsettings(max_examples=100, deadline=None)
    def test_batch_equals_per_cell_step(self, raw, cells):
        """Every cell of a mixed batch matches its own step simulation."""
        fmas = _build_fmas(raw)
        p = 3
        comp = [0] * p
        for core, *_ in fmas:
            comp[core] += 1
        trace = CompiledTrace(p, fmas, comp, None)
        got = replay_bulk(trace, cells)
        for (policy, cs, cd), stats in zip(cells, got):
            assert stats == _step_reference(p, cs, cd, policy, fmas)

    @pytest.mark.parametrize("algorithm", algorithm_names())
    @pytest.mark.parametrize("shape", [(6, 6, 6), (7, 5, 9)])
    def test_batch_on_real_schedules(self, algorithm, shape):
        m, n, z = shape
        alg = get_algorithm(algorithm)(MACHINE, m, n, z)
        trace = compile_trace(alg, directives=False)
        cells = [
            (policy, cs, cd)
            for policy in ("lru", "fifo")
            for cs in (7, 64)
            for cd in (3, 8)
        ]
        got = replay_bulk(trace, cells)
        for (policy, cs, cd), stats in zip(cells, got):
            assert stats == _step_reference(
                trace.p, cs, cd, policy, trace.fmas
            )


class TestStreaming:
    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_streaming_equals_bulk(self, algorithm):
        """Chunk-fed passes produce the materialized path's counters."""
        cells = [
            (policy, cs, cd)
            for policy in ("lru", "fifo")
            for cs in (2, 16)
            for cd in (1, 6)
        ]
        alg = get_algorithm(algorithm)(MACHINE, 7, 5, 9)
        trace = compile_trace(alg, directives=False)
        want = replay_bulk(trace, cells)
        got, comp = replay_bulk_streaming(
            get_algorithm(algorithm)(MACHINE, 7, 5, 9), cells
        )
        assert got == want
        assert comp == list(trace.comp)

    def test_streaming_crosses_chunk_boundaries(self, monkeypatch):
        """Kernel state carries across flushes (tiny chunk size)."""
        monkeypatch.setattr(replay, "_CHUNK_FMAS", 7)
        cells = [("lru", 8, 3), ("fifo", 8, 3)]
        alg = get_algorithm("shared-opt")(MACHINE, 6, 6, 6)
        got, _ = replay_bulk_streaming(alg, cells)
        trace = compile_trace(
            get_algorithm("shared-opt")(MACHINE, 6, 6, 6), directives=False
        )
        assert got == replay_bulk(trace, cells)

    def test_streaming_rejects_unsupported_policy(self):
        alg = get_algorithm("shared-opt")(MACHINE, 4, 4, 4)
        with pytest.raises(ConfigurationError, match="policy"):
            replay_bulk_streaming(alg, [("plru", 8, 3)])
        with pytest.raises(ConfigurationError, match="positive"):
            replay_bulk_streaming(alg, [("lru", 0, 3)])

    def test_threshold_env_override(self, monkeypatch):
        """The bound is a module constant: the environment cannot move it."""
        monkeypatch.setenv("REPRO_STREAM_FMAS", "123")
        assert replays("lru", "lru", False, False, STREAM_FMAS)
        assert not replays("lru", "lru", False, False, STREAM_FMAS + 1)
        monkeypatch.setattr(replay, "STREAM_FMAS", 123)
        assert replays("lru", "lru", False, False, 123)
        assert not replays("lru", "lru", False, False, 124)


# ----------------------------------------------------------------------
# Dirty-victim write-back coverage (mutation fixture)
# ----------------------------------------------------------------------
#: A hand-built stream that forces the full dirty-victim cascade at
#: CS=2, CD=1 on one core: every C block is evicted from the
#: distributed cache while dirty (distributed write-back), its mark
#: lands on a resident shared copy, and the shared copy is later
#: evicted dirty (shared write-back).  Silencing any leg of the
#: propagation (victim detection, mark interleaving, dirty-set
#: transfer) zeroes a counter this fixture asserts to be positive.
_WB_FMAS = [
    (0, block_key(MAT_A, 0, 0), block_key(MAT_B, 0, 0), block_key(MAT_C, 0, 0)),
    (0, block_key(MAT_A, 0, 1), block_key(MAT_B, 1, 0), block_key(MAT_C, 1, 1)),
    (0, block_key(MAT_A, 0, 2), block_key(MAT_B, 2, 0), block_key(MAT_C, 2, 2)),
    (0, block_key(MAT_A, 0, 3), block_key(MAT_B, 3, 0), block_key(MAT_C, 3, 3)),
]


class TestDirtyVictimCoverage:
    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_writeback_counters_are_exercised_and_exact(self, policy):
        p = 1
        trace = CompiledTrace(p, _WB_FMAS, [len(_WB_FMAS)], None)
        got = replay_bulk(trace, [(policy, 2, 1)])[0]
        want = _step_reference(p, 2, 1, policy, _WB_FMAS)
        assert got == want
        # The fixture must actually walk the propagation path — a
        # workload with zero write-backs would vacuously "match".
        assert got.distributed[0].writebacks > 0
        assert got.shared.writebacks > 0

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_writeback_coverage_survives_streaming(self, policy):
        """The streamed kernels walk the same propagation path."""
        p = 1
        trace = CompiledTrace(p, _WB_FMAS, [len(_WB_FMAS)], None)
        want = replay_bulk(trace, [(policy, 2, 1)])[0]

        class _FixtureAlg:
            class machine:  # noqa: N801 - duck-typed attribute access
                p = 1

            def run(self, ctx):
                for core, akey, bkey, ckey in _WB_FMAS:
                    ctx.compute(core, ckey, akey, bkey)

        got, comp = replay_bulk_streaming(_FixtureAlg(), [(policy, 2, 1)])
        assert got[0] == want
        assert comp == [len(_WB_FMAS)]
