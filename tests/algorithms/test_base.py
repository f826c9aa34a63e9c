"""Tests for the algorithm/context base layer."""

import pytest

from repro.algorithms.base import MatmulAlgorithm, NullContext
from repro.algorithms.shared_opt import SharedOpt
from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine


class TestNullContext:
    def test_counts_computes(self):
        ctx = NullContext(p=2)
        ctx.compute(0, 0, 0, 0)
        ctx.compute(1, 0, 0, 0)
        ctx.compute(1, 0, 0, 0)
        assert ctx.comp == [1, 2]
        assert ctx.comp_total == 3
        assert ctx.directives is None

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            NullContext(p=0)


class TestSplitEvenly:
    def test_even_split(self):
        chunks = MatmulAlgorithm.split_evenly(0, 8, 4)
        assert [list(c) for c in chunks] == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_remainder_front_loaded(self):
        chunks = MatmulAlgorithm.split_evenly(0, 7, 3)
        assert [len(c) for c in chunks] == [3, 2, 2]

    def test_empty_chunks_possible(self):
        chunks = MatmulAlgorithm.split_evenly(5, 7, 4)
        assert [len(c) for c in chunks] == [1, 1, 0, 0]

    def test_offset_range(self):
        chunks = MatmulAlgorithm.split_evenly(10, 16, 2)
        assert list(chunks[0]) == [10, 11, 12]
        assert list(chunks[1]) == [13, 14, 15]

    def test_covers_range_exactly(self):
        for total in range(0, 20):
            for parts in range(1, 6):
                chunks = MatmulAlgorithm.split_evenly(0, total, parts)
                flattened = [i for c in chunks for i in c]
                assert flattened == list(range(total))


class TestAlgorithmValidation:
    def test_rejects_bad_dimensions(self, quad):
        with pytest.raises(ConfigurationError):
            SharedOpt(quad, 0, 4, 4)

    def test_square_grid_requirement(self):
        from repro.algorithms.distributed_opt import DistributedOpt

        machine = MulticoreMachine(p=6, cs=100, cd=16)
        with pytest.raises(ConfigurationError):
            DistributedOpt(machine, 4, 4, 4)

    def test_comp_total(self, quad):
        alg = SharedOpt(quad, 3, 4, 5)
        assert alg.comp_total == 60

    def test_key_helpers_roundtrip(self):
        from repro.cache.block import decode_key, MAT_A, MAT_B, MAT_C

        assert decode_key(MatmulAlgorithm.a_key(3, 7)) == (MAT_A, 3, 7)
        assert decode_key(MatmulAlgorithm.b_key(3, 7)) == (MAT_B, 3, 7)
        assert decode_key(MatmulAlgorithm.c_key(3, 7)) == (MAT_C, 3, 7)
