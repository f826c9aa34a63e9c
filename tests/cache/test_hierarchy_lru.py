"""Tests for the LRU-mode two-level hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import hierarchy as hierarchy_module
from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C, ROW_SHIFT, shifted
from repro.cache.cache import Cache
from repro.cache.hierarchy import LRUHierarchy
from repro.exceptions import ConfigurationError


def ka(i, j=0):
    return block_key(MAT_A, i, j)


def kb(i, j=0):
    return block_key(MAT_B, i, j)


def kc(i, j=0):
    return block_key(MAT_C, i, j)


class TestPropagation:
    def test_distributed_hit_does_not_touch_shared(self):
        h = LRUHierarchy(p=2, cs=16, cd=4)
        h.touch(0, ka(1))
        shared_before = h.shared.misses + h.shared.hits
        h.touch(0, ka(1))  # distributed hit
        assert h.shared.misses + h.shared.hits == shared_before

    def test_distributed_miss_propagates(self):
        h = LRUHierarchy(p=2, cs=16, cd=4)
        h.touch(0, ka(1))
        assert h.shared.misses == 1
        # Another core misses in its own cache but hits in shared.
        h.touch(1, ka(1))
        assert h.shared.misses == 1
        assert h.shared.hits == 1
        assert h.distributed[1].misses == 1

    def test_per_core_isolation(self):
        h = LRUHierarchy(p=2, cs=16, cd=4)
        h.touch(0, ka(1))
        assert 0 == len(h.distributed[1].policy)

    def test_md_is_max_across_cores(self):
        h = LRUHierarchy(p=2, cs=64, cd=4)
        for i in range(5):
            h.touch(0, ka(i))
        h.touch(1, ka(0))
        stats = h.snapshot()
        assert stats.md == 5
        assert stats.md_per_core == [5, 1]
        assert stats.md_total == 6

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            LRUHierarchy(p=0, cs=4, cd=2)


#: A hand-built stream that forces the full dirty-victim cascade at
#: CS=2, CD=1 on one core: every C block is evicted from the
#: distributed cache while dirty (distributed write-back), its dirty
#: copy lands on a resident shared copy, and the shared copy is later
#: evicted dirty (shared write-back).
_WB_FMAS = [(0, ka(0, k), kb(k), kc(k, k)) for k in range(4)]


class TestWritebacks:
    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_dirty_victim_cascade(self, policy):
        # Silencing either leg of the propagation zeroes a counter.
        h = LRUHierarchy(p=1, cs=2, cd=1, policy=policy)
        for core, akey, bkey, ckey in _WB_FMAS:
            h.compute_touches(core, akey, bkey, ckey)
        stats = h.snapshot()
        assert stats.distributed[0].writebacks > 0
        assert stats.shared.writebacks > 0

    def test_dirty_eviction_at_distributed_level(self):
        h = LRUHierarchy(p=1, cs=16, cd=1)
        h.touch(0, kc(0), write=True)
        h.touch(0, kc(1))  # evicts dirty kc(0)
        assert h.distributed[0].writebacks == 1

    def test_distributed_writeback_dirties_shared_copy(self):
        # Mirrors IdealHierarchy.evict_distributed: a dirty victim
        # written back from a distributed cache makes the shared copy
        # dirty, so its later shared eviction counts a shared
        # write-back.
        h = LRUHierarchy(p=1, cs=16, cd=1)
        h.touch(0, kc(0), write=True)
        h.touch(0, kc(1))  # evicts dirty kc(0) -> shared copy dirty
        assert kc(0) in h.shared.dirty
        assert h.distributed[0].writebacks == 1

    def test_shared_eviction_after_propagation_counts_writeback(self):
        h = LRUHierarchy(p=1, cs=2, cd=1)
        h.touch(0, kc(0), write=True)
        h.touch(0, ka(0))  # evicts dirty kc(0) from distributed
        assert kc(0) in h.shared.dirty
        h.touch(0, kb(0))  # shared (cs=2) evicts kc(0): dirty -> write-back
        assert kc(0) not in h.shared.dirty
        assert h.shared.writebacks == 1

    def test_writeback_to_memory_when_shared_copy_gone(self):
        # If the shared cache already dropped the block, the distributed
        # write-back goes straight to memory: counted once at the
        # distributed level, no shared dirtiness appears.
        h = LRUHierarchy(p=1, cs=1, cd=2)
        h.touch(0, kc(0), write=True)
        h.touch(0, ka(0))  # shared (cs=1) evicts kc(0); core keeps both
        h.touch(0, kb(0))  # distributed evicts dirty kc(0); not in shared
        assert h.distributed[0].writebacks == 1
        assert kc(0) not in h.shared.dirty
        assert h.shared.writebacks == 0

    def test_matches_ideal_dirty_propagation_semantics(self):
        # The same load/evict story expressed against IdealHierarchy
        # must yield the same shared write-back count.
        from repro.cache.hierarchy import IdealHierarchy

        ideal = IdealHierarchy(p=1)
        ideal.load_shared(kc(0))
        ideal.load_distributed(0, kc(0))
        ideal.dist_dirty[0].add(kc(0))  # a multiply-add wrote it
        ideal.evict_distributed(0, kc(0))  # dirty -> shared copy dirty
        ideal.evict_shared(kc(0))  # dirty shared eviction -> write-back
        assert ideal.shared_writebacks == 1

        lru = LRUHierarchy(p=1, cs=2, cd=1)
        lru.touch(0, kc(0), write=True)
        lru.touch(0, ka(0))  # distributed evicts dirty kc(0)
        lru.touch(0, kb(0))  # shared evicts kc(0)
        assert lru.shared.writebacks == ideal.shared_writebacks


class TestInclusiveMode:
    def test_back_invalidation(self):
        # Shared of 2 blocks, distributed of 2: filling shared evicts
        # older blocks, which must leave the distributed caches too.
        h = LRUHierarchy(p=1, cs=2, cd=2, inclusive=True)
        h.touch(0, ka(1))
        h.touch(0, ka(2))
        h.touch(0, ka(3))  # shared evicts ka(1)
        assert ka(1) not in h.distributed[0].policy
        assert h.check_inclusion()

    def test_non_inclusive_can_violate(self):
        h = LRUHierarchy(p=1, cs=2, cd=2, inclusive=False)
        h.touch(0, ka(1))
        h.touch(0, ka(2))
        h.touch(0, ka(3))
        # ka(1) survives in the distributed cache (cd=2 holds 2,3? No:
        # the distributed cache also evicted ka(1) here; use a case
        # where it survives: touch ka(1) again to refresh distributed
        # ordering).
        h2 = LRUHierarchy(p=2, cs=2, cd=2, inclusive=False)
        h2.touch(0, ka(1))
        h2.touch(1, ka(2))
        h2.touch(1, ka(3))  # shared evicts ka(1); core 0 still holds it
        assert not h2.check_inclusion()

    def test_inclusive_holds_under_random_traffic(self):
        h = LRUHierarchy(p=2, cs=8, cd=4, inclusive=True)
        keys = [ka(i % 11) for i in range(200)]
        for idx, key in enumerate(keys):
            h.touch(idx % 2, key)
        assert h.check_inclusion()


class TestFastPathEquivalence:
    """compute_touches must equal three generic touch() calls."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1),  # core
                st.integers(0, 5),  # i
                st.integers(0, 5),  # j
                st.integers(0, 5),  # k
            ),
            min_size=1,
            max_size=150,
        ),
        st.integers(min_value=3, max_value=9),
        st.integers(min_value=6, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_generic_path(self, fmas, cd, cs):
        fast = LRUHierarchy(p=2, cs=cs, cd=cd)
        slow = LRUHierarchy(p=2, cs=cs, cd=cd)
        assert fast._fast
        for core, i, j, k in fmas:
            fast.compute_touches(core, ka(i, k), kb(k, j), kc(i, j))
            slow.touch(core, ka(i, k))
            slow.touch(core, kb(k, j))
            slow.touch(core, kc(i, j), write=True)
        fs, ss = fast.snapshot(), slow.snapshot()
        assert fs.ms == ss.ms
        assert fs.md_per_core == ss.md_per_core
        assert fs.shared.hits == ss.shared.hits
        assert fs.shared.misses_by_matrix == ss.shared.misses_by_matrix
        assert [c.writebacks for c in fs.distributed] == [
            c.writebacks for c in ss.distributed
        ]
        # Write-back accounting and dirtiness must agree everywhere:
        # shared write-backs only match if distributed dirty evictions
        # propagate identically on both paths.
        assert fs.shared.writebacks == ss.shared.writebacks
        assert fast.shared.dirty == slow.shared.dirty
        for fdc, sdc in zip(fast.distributed, slow.distributed):
            assert fdc.dirty == sdc.dirty
        assert set(fast.shared.policy) == set(slow.shared.policy)

    def test_fifo_uses_generic_path(self):
        h = LRUHierarchy(p=1, cs=8, cd=3, policy="fifo")
        assert not h._fast
        h.compute_touches(0, ka(0), kb(0), kc(0))
        assert h.distributed[0].misses == 3

    def test_reset(self):
        h = LRUHierarchy(p=2, cs=8, cd=3)
        h.compute_touches(0, ka(0), kb(0), kc(0))
        h.reset()
        stats = h.snapshot()
        assert stats.ms == 0 and stats.md == 0


#: Rows of multiply-adds ``C[i, j] += A[i, k] · B[k', j]`` for ``j`` in
#: ``cols``: small coordinate ranges reuse keys across rows, and ``k'``
#: is drawn apart from ``k`` so A and B rows need not line up.
_ROWS = st.lists(
    st.tuples(
        st.integers(0, 1),  # core
        st.integers(0, 3),  # i: A's row and C's row
        st.integers(0, 3),  # k: A's column
        st.integers(0, 3),  # k': B's row
        st.lists(st.integers(0, 5), max_size=6),  # cols
    ),
    min_size=1,
    max_size=40,
)


class TestRowKernel:
    """compute_row must equal three touch() calls per multiply-add."""

    @given(_ROWS, st.integers(1, 6), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_matches_touches_per_multiply_add(self, rows, cd, cs):
        fast = LRUHierarchy(p=2, cs=cs, cd=cd)
        slow = LRUHierarchy(p=2, cs=cs, cd=cd)
        assert fast._fast
        for core, i, k, kk, cols in rows:
            akey, brow, crow = ka(i, k), kb(kk), kc(i)
            assert fast.compute_row(core, akey, brow, crow, cols) == len(cols)
            for j in cols:
                slow.touch(core, akey)
                slow.touch(core, brow | j)
                slow.touch(core, crow | j, write=True)
        # Hits, misses, per-matrix misses and write-backs of every
        # cache, then each cache's key order and dirty set.
        assert fast.snapshot() == slow.snapshot()
        assert fast.state() == slow.state()

    def test_dirty_victims_cascade_within_a_row(self):
        # CD=1: each C block but the last is evicted dirty by the next
        # multiply-add's A, and lands dirty on its shared copy.
        h = LRUHierarchy(p=1, cs=16, cd=1)
        h.compute_row(0, ka(0), kb(0), kc(0), range(3))
        assert h.distributed[0].writebacks == 2
        assert h.shared.dirty == {kc(0, 0), kc(0, 1)}
        assert h.distributed[0].dirty == {kc(0, 2)}

    def test_a_is_looked_up_again_below_three_blocks(self):
        # CD=2: C[0,0] evicts A, so A misses again in the second column,
        # as does everything else.  Only from three blocks on may the
        # kernel take A's reuse within a row as a hit.
        h = LRUHierarchy(p=1, cs=16, cd=2)
        h.compute_row(0, ka(0), kb(0), kc(0), range(2))
        dc = h.distributed[0]
        assert (dc.hits, dc.misses, dc.misses_by_matrix) == (0, 6, [2, 2, 2])
        assert dc.writebacks == 1  # C[0,0], evicted by B[0,1]
        assert list(dc.policy) == [kb(0, 1), kc(0, 1)]
        assert dc.dirty == {kc(0, 1)}
        assert (h.shared.hits, h.shared.misses) == (1, 5)
        assert h.shared.dirty == {kc(0, 0)}

    def test_rows_after_reset_and_advance(self):
        # The kernel binds each cache's dict and dirty set once, at
        # construction, so reset and advance must change those objects
        # in place: afterwards a row must see what a fresh hierarchy,
        # fed the same history renamed, sees.
        def fed(h, rows):
            for core, akey, brow, crow, cols in rows:
                h.compute_row(core, akey, brow, crow, cols)
            return h.snapshot(), h.state()

        before = [
            (0, ka(0, 1), kb(1), kc(0), range(4)),
            (1, ka(1, 1), kb(1), kc(1), range(3)),
        ]
        after = [
            (0, ka(0, 2), kb(2), kc(0), range(4)),
            (1, ka(1, 2), kb(2), kc(1), (0, 2)),
        ]
        reset = LRUHierarchy(p=2, cs=9, cd=4)
        fed(reset, before)
        reset.reset()
        assert fed(reset, after) == fed(LRUHierarchy(p=2, cs=9, cd=4), after)

        # A moves one column, B and C one row.
        shift = (1, 1 << ROW_SHIFT, 1 << ROW_SHIFT)
        moved = [
            (core, akey + shift[0], brow + shift[1], crow + shift[2], cols)
            for core, akey, brow, crow, cols in before
        ]
        advanced = LRUHierarchy(p=2, cs=9, cd=4)
        fed(advanced, before)
        advanced.advance([0] * len(advanced.counters()), shift, set())
        fresh = LRUHierarchy(p=2, cs=9, cd=4)
        fed(fresh, moved)
        assert fed(advanced, after) == fed(fresh, after)


def _fed(rows, cs, cd):
    """A two-core hierarchy that ran ``rows`` (see ``_ROWS``)."""
    h = LRUHierarchy(p=2, cs=cs, cd=cd)
    for core, i, k, kk, cols in rows:
        h.compute_row(core, ka(i, k), kb(kk), kc(i), cols)
    return h


def _core_events(caches, core, akey, brow, crow, cols):
    """What a row passes up from the core's cache, per touch semantics:
    each missed key, after ``~victim`` when the miss evicts a dirty block."""
    events = []
    for j in cols:
        for key, write in ((akey, False), (brow | j, False), (crow | j, True)):
            hit, victim, dirty = caches[core].access(key, write)
            if not hit:
                if dirty:
                    events.append(~victim)
                events.append(key)
    return events


def _shared_run(cache, events):
    """The shared cache's part of touch, event by event."""
    for key in events:
        if key < 0:
            if ~key in cache:
                cache.dirty.add(~key)
        else:
            cache.access(key)


def _moved(events, offset):
    """Events with every key moved by ``offset`` (``~v`` to ``~(v + d)``)."""
    return [
        ~shifted([~e], offset)[0] if e < 0 else shifted([e], offset)[0] for e in events
    ]


_EVENTS = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from((ka, kb, kc)),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    max_size=30,
)


class TestSharedReplay:
    """The split fast-forward's two halves: the logging row kernel and the
    shared cache's replay of the log."""

    @given(_ROWS, _ROWS, st.integers(1, 6), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_recorded_rows_run_and_log_what_the_core_caches_pass_up(
        self, before, rows, cd, cs
    ):
        recorded, plain = _fed(before, cs, cd), _fed(before, cs, cd)
        caches = [Cache(f"core{c}", cd) for c in range(2)]
        for core, i, k, kk, cols in before:
            _core_events(caches, core, ka(i, k), kb(kk), kc(i), cols)
        recorded.log = []
        expected = []
        for core, i, k, kk, cols in rows:
            args = (core, ka(i, k), kb(kk), kc(i), cols)
            assert recorded.record_row(*args) == plain.compute_row(*args) == len(cols)
            expected += _core_events(caches, *args)
        assert recorded.log == expected
        assert recorded.snapshot() == plain.snapshot()
        assert recorded.state() == plain.state()

    @given(_ROWS, _EVENTS, st.integers(1, 3), st.integers(1, 6), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_replay_runs_moved_events_on_the_shared_cache_alone(
        self, before, drawn, times, cd, cs
    ):
        replayed, oracle = _fed(before, cs, cd), _fed(before, cs, cd)
        events = [~key(i, j) if wb else key(i, j) for wb, key, i, j in drawn]
        shift = (1, 1 << ROW_SHIFT, (1 << ROW_SHIFT) + 1)
        cores = replayed.core_state()
        moved = replayed.replay(events, shift, times)
        for step in range(1, times + 1):
            _shared_run(oracle.shared, _moved(events, [step * d for d in shift]))
        assert moved == _moved(events, [times * d for d in shift])
        assert replayed.snapshot() == oracle.snapshot()
        assert replayed.state() == oracle.state()
        assert replayed.core_state() == cores

    def test_a_dirty_victim_whose_shared_copy_was_evicted(self):
        # Core 1's row pushes core 0's dirty C[0,0] out of the two-block
        # shared cache; core 0's next row evicts it from its own cache.
        def history(h):
            h.compute_row(0, ka(0), kb(0), kc(0), (0,))
            h.compute_row(1, ka(1), kb(1), kc(1), (0,))

        recorded, plain, replayed = (LRUHierarchy(p=2, cs=2, cd=3) for _ in range(3))
        for h in (recorded, plain, replayed):
            history(h)
        assert kc(0) not in recorded.shared and kc(0) in recorded.distributed[0].dirty
        recorded.log = []
        row = (0, ka(2), kb(2), kc(2), (0,))
        recorded.record_row(*row)
        plain.compute_row(*row)
        assert recorded.log == [ka(2), kb(2), ~kc(0), kc(2)]
        assert recorded.snapshot() == plain.snapshot()
        assert recorded.state() == plain.state()
        # Replayed unmoved, the write-back reaches no shared copy.
        writebacks = replayed.shared.writebacks
        replayed.replay(recorded.log, (0, 0, 0), 1)
        assert replayed.state()[:2] == plain.state()[:2]
        assert kc(0) not in replayed.shared.dirty
        assert replayed.shared.writebacks == writebacks == plain.shared.writebacks

    def test_a_log_past_its_bound_is_dropped(self, monkeypatch):
        monkeypatch.setattr(hierarchy_module, "LOG_LIMIT", 5)
        rows = [(0, ka(0, k), kb(k), kc(0), range(3)) for k in range(4)]
        recorded, plain = LRUHierarchy(p=2, cs=8, cd=4), LRUHierarchy(p=2, cs=8, cd=4)
        recorded.log = []
        for row in rows:
            recorded.record_row(*row)
            plain.compute_row(*row)
        assert recorded.log is None
        assert recorded.snapshot() == plain.snapshot()
        assert recorded.state() == plain.state()

    def test_advance_cores_leaves_the_shared_cache(self):
        rows = [(0, 1, 1, 1, [0, 1]), (1, 2, 0, 2, [1, 2])]
        moved, plain = _fed(rows, 9, 4), _fed(rows, 9, 4)
        shift = (1, 1 << ROW_SHIFT, 1)
        delta = list(range(1, len(moved.counters()) + 1))
        moved.advance_cores(delta, shift, set())
        plain.advance(delta, shift, {0, 1})
        assert moved.state() == plain.state()
        assert moved.counters()[:6] == _fed(rows, 9, 4).counters()[:6]
        assert moved.counters()[6:] == plain.counters()[6:]
