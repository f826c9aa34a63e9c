"""Tests for the Outer Product baseline."""

import pytest

from repro.algorithms.outer_product import OuterProduct
from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine
from repro.numerics.executor import verify_schedule
from repro.sim.runner import run_experiment
from tests.conftest import run_proved


class TestStructure:
    def test_requires_square_grid(self):
        machine = MulticoreMachine(p=8, cs=200, cd=21)
        with pytest.raises(ConfigurationError):
            OuterProduct(machine, 8, 8, 8)

    def test_tiles_partition_c(self, quad):
        alg = OuterProduct(quad, 10, 10, 4)
        tiles = alg._tiles()
        cells = set()
        for rlo, rhi, clo, chi in tiles:
            for i in range(rlo, rhi):
                for j in range(clo, chi):
                    assert (i, j) not in cells
                    cells.add((i, j))
        assert len(cells) == 100


class TestIdealCounts:
    def test_exact_formulas(self, quad):
        r = run_proved("outer-product", quad, 8, 8, 8)
        m = n = z = 8
        s = 2
        assert r.ms == z * (s * m + 2 * m * n)
        assert r.md == z * ((m // s) * (1 + 2 * (n // s)))
        assert r.ms == r.predicted.ms

    def test_ms_linear_in_z(self, quad):
        r1 = run_experiment("outer-product", quad, 8, 8, 4, "ideal")
        r2 = run_experiment("outer-product", quad, 8, 8, 8, "ideal")
        assert r2.ms == 2 * r1.ms

    def test_streaming_never_exceeds_tiny_caches(self):
        # The whole point of the streaming schedule: it fits anywhere.
        machine = MulticoreMachine(p=4, cs=12, cd=3)
        run_proved("outer-product", machine, 10, 10, 10)

    def test_much_worse_than_shared_opt_at_shared_level(self, paper_q32):
        op = run_experiment("outer-product", paper_q32, 24, 24, 24, "ideal")
        so = run_experiment("shared-opt", paper_q32, 24, 24, 24, "ideal")
        assert op.ms > 5 * so.ms


class TestLRUInsensitivity:
    def test_policy_insensitive(self, quad):
        """Paper: 'Outer Product is insensitive to cache policies'.

        Its streaming pattern has no temporal locality for LRU to
        exploit beyond the current element of A, so LRU and FIFO see
        nearly identical miss counts.
        """
        lru = run_experiment("outer-product", quad, 12, 12, 12, "lru", policy="lru")
        fifo = run_experiment("outer-product", quad, 12, 12, 12, "lru", policy="fifo")
        assert lru.ms == pytest.approx(fifo.ms, rel=0.05)


class TestNumeric:
    @pytest.mark.parametrize("dims", [(8, 8, 8), (7, 5, 9), (2, 2, 2), (9, 3, 6)])
    def test_computes_product(self, quad, dims):
        verify_schedule(OuterProduct(quad, *dims), q=3)

    def test_nine_cores(self, nine_core):
        verify_schedule(OuterProduct(nine_core, 9, 9, 3), q=2)
