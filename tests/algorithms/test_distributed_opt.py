"""Tests for Algorithm 2 (Distributed Opt.)."""

import pytest

from repro.algorithms.distributed_opt import DistributedOpt
from repro.cache.block import MAT_A, MAT_B, MAT_C
from repro.cache.hierarchy import IdealHierarchy
from repro.exceptions import ConfigurationError, ParameterError
from repro.model.machine import MulticoreMachine
from repro.numerics.executor import verify_schedule
from repro.sim.contexts import IdealContext
from repro.sim.runner import run_experiment
from tests.conftest import assert_proved, run_proved


class TestParameters:
    def test_default_mu(self, paper_q32):
        alg = DistributedOpt(paper_q32, 16, 16, 16)
        assert alg.mu == 4  # 1 + 4 + 16 = 21 = CD
        assert alg.parameters()["tile"] == 8  # sqrt(p)*mu

    def test_mu_capacity_check(self, quad):
        with pytest.raises(ParameterError):
            DistributedOpt(quad, 8, 8, 8, mu=5)  # 1+5+25 = 31 > 21

    def test_requires_square_grid(self):
        machine = MulticoreMachine(p=8, cs=200, cd=21)
        with pytest.raises(ConfigurationError):
            DistributedOpt(machine, 8, 8, 8)

    def test_mu_one_on_tiny_cache(self):
        machine = MulticoreMachine(p=4, cs=245, cd=6, q=64)
        alg = DistributedOpt(machine, 8, 8, 8)
        assert alg.mu == 1


class TestIdealCounts:
    def test_exact_formulas(self, quad):
        # mu=4, grid 2 -> tile 8 divides 16
        r = run_proved("distributed-opt", quad, 16, 16, 16, mu=4)
        m = n = z = 16
        p = 4
        assert r.ms == m * n + 2 * m * n * z // (4 * 2)
        assert r.md == m * n // p + 2 * m * n * z // (4 * p)
        assert r.ms == r.predicted.ms
        assert r.md == r.predicted.md

    def test_md_balanced_across_cores(self, quad):
        r = run_experiment("distributed-opt", quad, 16, 16, 16, "ideal", mu=4)
        assert len(set(r.stats.md_per_core)) == 1

    def test_ragged_dims_run_checked(self, quad):
        run_proved("distributed-opt", quad, 13, 9, 5, mu=4)

    def test_c_loaded_once_per_core(self, quad):
        # Each core's C sub-blocks are loaded exactly once overall:
        # per-core C misses == mn/p for divisible dims.
        alg = DistributedOpt(quad, 16, 16, 16, mu=4)
        assert_proved(alg)
        h = IdealHierarchy(quad.p)
        alg.run(IdealContext(h))
        for core in range(quad.p):
            assert h.md_by_matrix[core][MAT_C] == 16 * 16 // 4

    def test_2d_cyclic_layout_shares_a_and_b(self, quad):
        """Cores on one grid row share A, on one grid column share B."""
        alg = DistributedOpt(quad, 8, 8, 8, mu=4)
        assert_proved(alg)
        h = IdealHierarchy(quad.p)
        alg.run(IdealContext(h))
        # Every element of A is loaded into shared once per k-use: the
        # shared A misses must be z * tile-rows per tile = m*z total
        # divided among... simply: with tile = matrix, A loads = z*m/...
        # Use the aggregate identity MS_A = m*z (every A element once).
        assert h.ms_by_matrix[MAT_A] == 8 * 8
        assert h.ms_by_matrix[MAT_B] == 8 * 8

    def test_single_core(self, unicore):
        r = run_proved("distributed-opt", unicore, 4, 4, 4)
        assert r.comp == [64]


class TestNumeric:
    @pytest.mark.parametrize("dims", [(16, 16, 16), (7, 5, 9), (3, 3, 3), (8, 2, 10)])
    def test_computes_product(self, quad, dims):
        verify_schedule(DistributedOpt(quad, *dims), q=3)

    def test_nine_cores(self, nine_core):
        verify_schedule(DistributedOpt(nine_core, 12, 12, 6), q=2)
