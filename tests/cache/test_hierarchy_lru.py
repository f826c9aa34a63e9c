"""Tests for the LRU-mode two-level hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C
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

        ideal = IdealHierarchy(p=1, cs=4, cd=1)
        ideal.load_shared(kc(0))
        ideal.load_distributed(0, kc(0))
        ideal.mark_distributed_dirty(0, kc(0))
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
