"""Tests for the simulation contexts."""

import pytest

from repro.algorithms.shared_opt import SharedOpt
from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.numerics.blockmatrix import BlockMatrix
from repro.numerics.executor import NumericContext
from repro.sim.contexts import ChainContext, IdealContext, LRUContext
from tests.conftest import assert_proved


def keys(i, j, k):
    return block_key(MAT_C, i, j), block_key(MAT_A, i, k), block_key(MAT_B, k, j)


class TestLRUContext:
    def test_compute_touches_all_three(self):
        h = LRUHierarchy(p=1, cs=16, cd=4)
        ctx = LRUContext(h)
        ctx.compute(0, *keys(0, 0, 0))
        assert h.distributed[0].misses == 3
        assert ctx.comp == [1]

    def test_not_explicit(self):
        assert LRUContext(LRUHierarchy(p=1, cs=16, cd=4)).directives is None

    def test_directives_ignored(self):
        """No directive reaches the hierarchy: schedules emit none, and
        one emitted anyway fails instead of running as a no-op."""
        ctx = LRUContext(LRUHierarchy(p=1, cs=16, cd=4))
        with pytest.raises(AttributeError):
            ctx.load_shared(block_key(MAT_A, 0, 0))


class TestIdealContext:
    def test_explicit(self):
        ctx = IdealContext(IdealHierarchy(p=1))
        assert ctx.directives is ctx

    def test_directives_forwarded(self):
        h = IdealHierarchy(p=1)
        ctx = IdealContext(h)
        key = block_key(MAT_A, 0, 0)
        ctx.load_shared(key)
        ctx.load_dist(0, key)
        assert h.ms == 1 and h.md == [1]
        ctx.evict_dist(0, key)
        ctx.evict_shared(key)
        assert not h.shared_set

    def test_compute_marks_c_dirty(self):
        h = IdealHierarchy(p=1)
        ctx = IdealContext(h)
        kc, ka, kb = keys(0, 0, 0)
        for key in (ka, kb, kc):
            ctx.load_shared(key)
            ctx.load_dist(0, key)
        ctx.compute(0, kc, ka, kb)
        assert kc in h.dist_dirty[0]
        assert ctx.comp == [1]


class TestRecordingContext:
    def test_records_three_touches_per_compute(self):
        from repro.sim.contexts import RecordingContext

        ctx = RecordingContext(p=2)
        ctx.compute(1, *keys(0, 0, 0))
        assert len(ctx.trace) == 3
        assert ctx.comp == [0, 1]
        # order: A read, B read, C write
        entries = ctx.trace.entries
        assert entries[0][1:] == (block_key(MAT_A, 0, 0), False)
        assert entries[2][1:] == (block_key(MAT_C, 0, 0), True)

    def test_keys_flattened_in_order(self):
        from repro.sim.contexts import RecordingContext

        ctx = RecordingContext(p=1)
        ctx.compute(0, *keys(0, 0, 0))
        ctx.compute(0, *keys(1, 1, 1))
        assert len(ctx.keys()) == 6


class TestLRUContextOnTrees:
    def test_touches_reach_the_tree(self):
        tree = LRUHierarchy(2, cs=16, cd=4, middle=((1, 8),))
        ctx = LRUContext(tree)
        ctx.compute(0, *keys(0, 0, 0))
        assert [tree.level_misses(level) for level in range(3)] == [3, 3, 3]
        assert ctx.comp == [1, 0]

    def test_schedule_matches_its_recorded_trace(self, quad):
        """A real schedule through the context, its declared loops
        fast-forwarded, ends where its recorded references touched into
        a fresh tree one at a time end, cache by cache."""
        from repro.sim.contexts import RecordingContext

        middle = ((2, 2 * quad.cd),)
        tree = LRUHierarchy(quad.p, quad.cs, quad.cd, middle=middle)
        SharedOpt(quad, 6, 6, 6).run(LRUContext(tree))
        recorder = RecordingContext(quad.p)
        SharedOpt(quad, 6, 6, 6).run(recorder)
        replayed = LRUHierarchy(quad.p, quad.cs, quad.cd, middle=middle)
        recorder.trace.replay(replayed)
        assert tree.counters() == replayed.counters()
        assert tree.state() == replayed.state()


class TestChainContext:
    def test_runs_numeric_and_ideal_together(self, quad):
        alg = SharedOpt(quad, 4, 4, 4, lam=4)
        a = BlockMatrix.random(4, 4, q=2, seed=0)
        b = BlockMatrix.random(4, 4, q=2, seed=1)
        numeric = NumericContext(quad.p, a, b)
        assert_proved(alg)
        h = IdealHierarchy(quad.p)
        ideal = IdealContext(h)
        chain = ChainContext([numeric, ideal])
        assert numeric.directives is None
        assert chain.directives is chain  # the ideal child has directives
        alg.run(chain)
        numeric.assert_complete()
        assert numeric.c.allclose(a @ b)
        assert h.ms > 0
        assert chain.comp_total == 64
        assert numeric.comp == ideal.comp

    def test_explicit_false_when_no_explicit_child(self, quad):
        h = LRUHierarchy(quad.p, quad.cs, quad.cd)
        chain = ChainContext([LRUContext(h)])
        assert chain.directives is None

    def test_mismatched_core_counts_rejected(self):
        h1 = LRUHierarchy(p=1, cs=16, cd=4)
        h2 = LRUHierarchy(p=2, cs=16, cd=4)
        with pytest.raises(ValueError):
            ChainContext([LRUContext(h1), LRUContext(h2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChainContext([])
