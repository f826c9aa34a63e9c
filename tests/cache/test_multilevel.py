"""Tests for cache trees: :class:`LRUHierarchy` with middle levels."""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C
from repro.cache.cache import Cache
from repro.cache.hierarchy import LRUHierarchy
from repro.exceptions import ConfigurationError


def ka(i):
    return block_key(MAT_A, i, 0)


def kc(i):
    return block_key(MAT_C, i, 0)


def misses(h: LRUHierarchy) -> List[List[int]]:
    return [[cache.misses for cache in level] for level in h.levels]


def caches(levels: List[List[Cache]]) -> List[Cache]:
    return [cache for level in levels for cache in level]


class TestTopologyValidation:
    def test_leaf_level_must_match_cores(self):
        h = LRUHierarchy(8, 64, 4, middle=((2, 16),))
        assert [len(level) for level in h.levels] == [1, 2, 8]
        # A middle level cannot hold more caches than there are cores.
        with pytest.raises(ConfigurationError):
            LRUHierarchy(4, 8, 4, middle=((8, 4),))

    def test_counts_must_nest(self):
        with pytest.raises(ConfigurationError):
            LRUHierarchy(12, 64, 4, middle=((2, 32), (3, 16)))

    def test_counts_must_divide_p(self):
        with pytest.raises(ConfigurationError):
            LRUHierarchy(4, 8, 4, middle=((3, 8),))

    def test_empty_levels(self):
        h = LRUHierarchy(2, 8, 4, middle=())
        assert h.levels == [[h.shared], h.distributed]

    def test_bad_spec(self):
        with pytest.raises(ConfigurationError):
            LRUHierarchy(4, 8, 4, middle=((0, 4),))
        with pytest.raises(ConfigurationError):
            LRUHierarchy(4, 8, 4, middle=((1, 0),))

    def test_three_level_topology(self):
        h = LRUHierarchy(8, 64, 4, middle=((2, 16),))
        # cores 0-3 share socket cache 0; cores 4-7 share socket cache 1
        h.touch(0, ka(1))
        h.touch(3, ka(1))
        assert misses(h)[1] == [1, 0]
        h.touch(4, ka(1))
        assert misses(h)[1] == [1, 1]
        assert misses(h)[2] == [1, 0, 0, 1, 1, 0, 0, 0]


class TestTouchSemantics:
    def test_miss_depth(self):
        h = LRUHierarchy(2, 8, 2)
        assert not h.touch(0, ka(1))  # cold: missed both levels
        assert misses(h) == [[1], [1, 0]]
        assert h.touch(0, ka(1))  # leaf hit
        assert misses(h) == [[1], [1, 0]]
        assert not h.touch(1, ka(1))  # sibling: leaf miss, shared hit
        assert misses(h) == [[1], [1, 1]]

    def test_fill_is_inclusive(self):
        h = LRUHierarchy(4, 64, 4, middle=((2, 16),))
        h.touch(2, ka(7))
        assert ka(7) in h.shared
        assert ka(7) in h.levels[1][1]
        assert ka(7) in h.distributed[2]
        assert h.check_inclusion()

    def test_level_miss_counters(self):
        h = LRUHierarchy(2, 8, 2)
        h.touch(0, ka(1))
        h.touch(0, ka(1))
        assert h.level_misses(1) == 1
        assert h.level_misses(0) == 1

    def test_reset(self):
        h = LRUHierarchy(2, 8, 2, middle=((2, 4),))
        h.touch(0, ka(1), write=True)
        h.reset()
        assert misses(h) == [[0], [0, 0], [0, 0]]
        assert not any(len(cache) or cache.dirty for cache in caches(h.levels))


class TestTwoLevelEquivalence:
    """The tree walk against a reference walk written out here."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 12), st.booleans()),
            max_size=250,
        ),
        st.sampled_from(((), ((1, 12),), ((2, 6),), ((2, 6), (4, 3)))),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=6, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_for_bit(self, refs, middle, cd, cs):
        """Each reference walks up the core's path until a cache hits, and
        every cache it missed keeps the block: the per-cache hits, misses
        and key order of the deleted N-level walker, for any depth."""
        tree = LRUHierarchy(4, cs=cs, cd=cd, middle=middle)
        reference = [
            [Cache("", cs)],
            *[[Cache("", size) for _ in range(count)] for count, size in middle],
            [Cache("", cd) for _ in range(4)],
        ]
        for core, i, write in refs:
            tree.touch(core, ka(i), write)
            for level in reversed(reference):
                if level[core * len(level) // 4].access(ka(i))[0]:
                    break
        for ours, theirs in zip(caches(tree.levels), caches(reference)):
            assert (ours.hits, ours.misses) == (theirs.hits, theirs.misses)
            assert list(ours.policy) == list(theirs.policy)


class TestDirtyVictims:
    def test_core_victim_lands_dirty_one_level_up(self):
        h = LRUHierarchy(2, 16, 1, middle=((1, 8),))
        h.touch(0, kc(1), write=True)
        h.touch(0, ka(2))  # evicts the written C block from core 0
        assert h.distributed[0].writebacks == 1
        assert h.levels[1][0].dirty == {kc(1)}
        assert not h.shared.dirty
        # Leaving the middle level in turn, it lands dirty in the shared one.
        for i in range(3, 11):
            h.touch(1, ka(i))
        assert h.levels[1][0].writebacks == 1
        assert kc(1) not in h.levels[1][0]
        assert h.shared.dirty == {kc(1)}


class TestInclusiveTrees:
    def test_shared_eviction_leaves_no_copy_below(self):
        h = LRUHierarchy(4, 2, 2, inclusive=True, middle=((2, 2),))
        h.touch(0, ka(1), write=True)
        h.touch(2, ka(2))
        assert all(ka(1) in level[0] for level in h.levels)
        h.touch(3, ka(3))  # the shared cache evicts A[1,0]
        assert not any(ka(1) in cache for cache in caches(h.levels))
        assert h.distributed[0].writebacks == 1  # its dirty copy went
        assert h.check_inclusion()

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 9), st.booleans()),
            max_size=200,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_inclusion_holds_under_random_traffic(self, refs):
        h = LRUHierarchy(16, 4, 1, inclusive=True, middle=((2, 3), (4, 2)))
        for core, i, write in refs:
            h.touch(core, block_key(MAT_B, i, 0), write)
            assert h.check_inclusion()


class TestThreeLevelBehaviour:
    def test_socket_cache_captures_cross_core_reuse(self):
        """A mid-level cache turns sibling reuse into cheap fills."""
        three = LRUHierarchy(4, 64, 2, middle=((2, 16),))
        # cores 0 and 1 share the level-1 cache; 0 and 2 do not.
        three.touch(0, ka(1))
        three.touch(1, ka(1))
        assert misses(three) == [[1], [1, 0], [1, 1, 0, 0]]  # socket hit
        three.touch(0, ka(2))
        three.touch(2, ka(2))
        assert misses(three) == [[2], [2, 1], [2, 1, 1, 0]]  # root hit
