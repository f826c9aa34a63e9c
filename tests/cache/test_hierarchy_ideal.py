"""Tests for the explicitly-controlled IDEAL hierarchy.

It counts whatever directives it is given.  Capacity, inclusion and
presence are the residency walk's to prove
(``tests/check/test_analyzers.py``).
"""

from repro.cache.block import block_key, MAT_A, MAT_C
from repro.cache.hierarchy import IdealHierarchy


def ka(i, j=0):
    return block_key(MAT_A, i, j)


def kc(i, j=0):
    return block_key(MAT_C, i, j)


class TestCounting:
    def test_load_shared_counts_ms(self):
        h = IdealHierarchy(p=1)
        h.load_shared(ka(0))
        h.load_shared(ka(1))
        assert h.ms == 2
        assert h.ms_by_matrix == [2, 0, 0]

    def test_redundant_shared_load_not_counted(self):
        h = IdealHierarchy(p=1)
        h.load_shared(ka(0))
        h.load_shared(ka(0))
        assert h.ms == 1
        assert h.redundant_loads == 1

    def test_load_distributed_counts_md(self):
        h = IdealHierarchy(p=2)
        h.load_shared(ka(0))
        h.load_distributed(0, ka(0))
        h.load_distributed(1, ka(0))
        assert h.md == [1, 1]

    def test_snapshot(self):
        h = IdealHierarchy(p=2)
        h.load_shared(ka(0))
        h.load_distributed(1, ka(0))
        stats = h.snapshot()
        assert stats.ms == 1
        assert stats.md == 1
        assert stats.md_per_core == [0, 1]

    def test_peak_tracking(self):
        h = IdealHierarchy(p=1)
        for i in range(3):
            h.load_shared(ka(i))
        h.evict_shared(ka(0))
        assert h.peak_shared == 3
        assert len(h.shared_set) == 2


class TestDirtyAndWritebacks:
    def test_distributed_dirty_propagates_on_evict(self):
        h = IdealHierarchy(p=1)
        h.load_shared(kc(0))
        h.load_distributed(0, kc(0))
        h.dist_dirty[0].add(kc(0))  # what a multiply-add on C does
        h.evict_distributed(0, kc(0))
        assert h.dist_updates[0] == 1
        assert kc(0) in h.shared_dirty
        h.evict_shared(kc(0))
        assert h.shared_writebacks == 1

    def test_clean_eviction_no_writeback(self):
        h = IdealHierarchy(p=1)
        h.load_shared(ka(0))
        h.evict_shared(ka(0))
        assert h.shared_writebacks == 0


class TestPresence:
    """What is resident: :meth:`IdealHierarchy.reset` empties it."""

    def test_reset(self):
        h = IdealHierarchy(p=2)
        h.load_shared(ka(0))
        h.reset()
        assert h.ms == 0
        assert not h.shared_set
