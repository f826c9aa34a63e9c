"""Tests for Belady's OPT trace analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.lru import FIFOCache, LRUCache
from repro.cache.opt import next_use_indices, opt_miss_curve, opt_misses
from repro.exceptions import ConfigurationError


def lru_misses(trace, capacity):
    c = LRUCache(capacity)
    return sum(0 if c.access(k)[0] else 1 for k in trace)


class TestNextUse:
    def test_simple(self):
        assert next_use_indices([1, 2, 1]) == [2, float("inf"), float("inf")]

    def test_empty(self):
        assert next_use_indices([]) == []

    def test_repeated(self):
        assert next_use_indices([5, 5, 5]) == [1, 2, float("inf")]


class TestOptMisses:
    def test_cold_only_when_fits(self):
        trace = [1, 2, 3, 1, 2, 3]
        assert opt_misses(trace, 3) == 3

    def test_classic_belady_example(self):
        # the textbook sequence: OPT beats LRU on a looping scan
        trace = [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4]
        assert opt_misses(trace, 3) < lru_misses(trace, 3)

    def test_capacity_one(self):
        trace = [1, 1, 2, 2, 1]
        assert opt_misses(trace, 1) == 3

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            opt_misses([1], 0)

    def test_miss_curve(self):
        trace = [1, 2, 3, 1, 2, 3, 4, 1]
        curve = opt_miss_curve(trace, [1, 2, 3, 4])
        values = [curve[z] for z in (1, 2, 3, 4)]
        assert values == sorted(values, reverse=True)
        assert curve[4] == 4  # distinct keys only


class TestOptimality:
    @given(
        st.lists(st.integers(0, 8), max_size=250),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_worse_than_lru_or_fifo(self, trace, capacity):
        opt = opt_misses(trace, capacity)
        assert opt <= lru_misses(trace, capacity)
        fifo = FIFOCache(capacity)
        fifo_misses = sum(0 if fifo.access(k)[0] else 1 for k in trace)
        assert opt <= fifo_misses

    @given(st.lists(st.integers(0, 8), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_lower_bounded_by_cold_misses(self, trace):
        assert opt_misses(trace, 4) >= len(set(trace)) if trace else True

    @given(st.lists(st.integers(0, 5), max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_equals_cold_misses_when_everything_fits(self, trace):
        assert opt_misses(trace, 6) == len(set(trace))

    @given(
        st.lists(st.integers(0, 8), max_size=200),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_capacity(self, trace, capacity):
        assert opt_misses(trace, capacity + 1) <= opt_misses(trace, capacity)


class TestAgainstAlgorithmTraces:
    def test_opt_between_ideal_plan_and_lru(self):
        """On a Shared Opt. trace: IDEAL-planned misses <= OPT <= LRU.

        (IDEAL can prefetch; OPT is demand-fetch, one compulsory miss
        per first touch is unavoidable.)
        """
        from repro.algorithms.shared_opt import SharedOpt
        from repro.cache.trace import AccessTrace
        from repro.model.machine import MulticoreMachine
        from repro.algorithms.base import ExecutionContext

        machine = MulticoreMachine(p=1, cs=30, cd=3, q=8)

        class Recorder(ExecutionContext):
            def __init__(self):
                super().__init__(1)
                self.trace = AccessTrace()

            def compute(self, core, ckey, akey, bkey):
                self.trace.record(core, akey)
                self.trace.record(core, bkey)
                self.trace.record(core, ckey, write=True)
                self.comp[core] += 1

        rec = Recorder()
        SharedOpt(machine, 10, 10, 10).run(rec)
        keys = [k for _, k, _ in rec.trace]
        opt = opt_misses(keys, 30)
        lru = lru_misses(keys, 30)
        assert opt <= lru
        assert opt >= 3 * 100  # compulsory: every block of A, B, C
