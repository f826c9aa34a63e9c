"""Tests for the stack-distance analyzer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.lru import LRUCache
from repro.cache.stackdist import (
    COLD,
    distance_histogram,
    miss_curve,
    misses_for_capacity,
    stack_distances,
)


class TestStackDistances:
    def test_cold_references(self):
        assert stack_distances([1, 2, 3]) == [COLD, COLD, COLD]

    def test_immediate_reuse_distance_zero(self):
        assert stack_distances([1, 1]) == [COLD, 0]

    def test_classic_example(self):
        # trace a b c a: distance of the second a is 2 (b and c between)
        assert stack_distances([1, 2, 3, 1]) == [COLD, COLD, COLD, 2]

    def test_refresh_changes_distance(self):
        # a b a b: each reuse skips exactly one distinct key
        assert stack_distances([1, 2, 1, 2]) == [COLD, COLD, 1, 1]

    def test_histogram(self):
        hist = distance_histogram([1, 2, 1, 1])
        assert hist[COLD] == 2
        assert hist[1] == 1
        assert hist[0] == 1


class TestMissCounts:
    def test_misses_for_capacity(self):
        hist = distance_histogram([1, 2, 3, 1, 2, 3])
        # capacity 3: distances are 2 -> all reuses hit
        assert misses_for_capacity(hist, 3) == 3
        # capacity 2: distance-2 reuses miss
        assert misses_for_capacity(hist, 2) == 6

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            misses_for_capacity(distance_histogram([1]), 0)

    def test_miss_curve_monotone(self):
        trace = [1, 2, 3, 4, 1, 2, 5, 1, 3, 2, 4]
        curve = miss_curve(trace, range(1, 8))
        values = [curve[z] for z in range(1, 8)]
        assert values == sorted(values, reverse=True)

    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=300),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_lru_simulation(self, trace, capacity):
        """Mattson equivalence: histogram count == simulated LRU misses."""
        cache = LRUCache(capacity)
        simulated = sum(0 if cache.access(k)[0] else 1 for k in trace)
        assert misses_for_capacity(distance_histogram(trace), capacity) == simulated

    @given(st.lists(st.integers(0, 6), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_cold_misses_equal_distinct_keys(self, trace):
        assert distance_histogram(trace)[COLD] == len(set(trace))

