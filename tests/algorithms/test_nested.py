"""Tests for the nested three-level Maximum Reuse extension."""

import pytest

from repro.algorithms.distributed_opt import DistributedOpt
from repro.algorithms.nested import NestedMaxReuse
from repro.exceptions import ConfigurationError, ParameterError
from repro.model.machine import MulticoreMachine
from repro.numerics.executor import verify_schedule
from repro.sim.contexts import LRUContext

#: 16 cores = 4 sockets of 4 cores: both grids square.
MACHINE = MulticoreMachine(p=16, cs=400, cd=21, q=8)


class TestParameters:
    def test_defaults(self):
        alg = NestedMaxReuse(MACHINE, 16, 16, 16)
        params = alg.parameters()
        assert params == {"mu": 4, "nu": 8, "tile": 16, "sockets": 4}

    def test_tile_nesting_invariant(self):
        alg = NestedMaxReuse(MACHINE, 16, 16, 16)
        assert alg.nu == alg.s_c * alg.mu
        assert alg.tile == alg.s_g * alg.nu

    def test_sockets_must_divide_p(self):
        with pytest.raises(ConfigurationError):
            NestedMaxReuse(MACHINE, 8, 8, 8, sockets=3)

    def test_sockets_must_be_square(self):
        machine = MulticoreMachine(p=8, cs=200, cd=21, q=8)
        with pytest.raises(ConfigurationError):
            NestedMaxReuse(machine, 8, 8, 8, sockets=2)

    def test_mu_capacity_check(self):
        with pytest.raises(ParameterError):
            NestedMaxReuse(MACHINE, 8, 8, 8, mu=5)

    def test_core_ownership_partitions_tile(self):
        alg = NestedMaxReuse(MACHINE, 16, 16, 16)
        owners = [
            alg._core_of(bi, bj)
            for bi in range(alg.tile // alg.mu)
            for bj in range(alg.tile // alg.mu)
        ]
        assert sorted(owners) == list(range(16))  # one µ-block per core

    def test_socket_regions_contiguous(self):
        alg = NestedMaxReuse(MACHINE, 16, 16, 16)
        # blocks (0,0), (0,1), (1,0), (1,1) belong to socket 0's cores
        sockets = {
            alg._core_of(bi, bj) // 4 for bi in range(2) for bj in range(2)
        }
        assert sockets == {0}


class TestCounting:
    def test_default_tree_topology(self):
        alg = NestedMaxReuse(MACHINE, 16, 16, 16)
        tree = alg.default_tree()
        assert [len(level) for level in tree.levels] == [1, 4, 16]
        # hierarchy-consistent capacities: each level holds its children
        llc, socket, core = (level[0].capacity for level in tree.levels)
        assert llc >= 4 * socket
        assert socket >= 4 * core

    def test_same_llc_and_core_volumes_as_flat(self):
        """Nested changes placement, not per-core or LLC volumes."""
        nest = NestedMaxReuse(MACHINE, 16, 16, 16)
        tree_n = nest.default_tree()
        nest.run(LRUContext(tree_n))
        flat = DistributedOpt(MACHINE, 16, 16, 16)
        tree_f = nest.default_tree()
        flat.run(LRUContext(tree_f))
        assert tree_n.level_misses(0) == tree_f.level_misses(0)
        assert tree_n.level_misses(2) == tree_f.level_misses(2)

    def test_socket_aware_placement_reduces_socket_misses(self):
        """The headline claim of the extension: topology-aware block
        ownership captures A *and* B sharing inside each socket."""
        nest = NestedMaxReuse(MACHINE, 32, 32, 32)
        tree_n = nest.default_tree()
        nest.run(LRUContext(tree_n))
        flat = DistributedOpt(MACHINE, 32, 32, 32)
        tree_f = nest.default_tree()
        flat.run(LRUContext(tree_f))
        assert tree_n.level_misses(1) < tree_f.level_misses(1)

    def test_work_balanced(self):
        alg = NestedMaxReuse(MACHINE, 16, 16, 16)
        ctx = LRUContext(alg.default_tree())
        alg.run(ctx)
        assert len(set(ctx.comp)) == 1
        assert ctx.comp_total == 16**3


class TestNumeric:
    @pytest.mark.parametrize("dims", [(16, 16, 16), (7, 5, 9), (3, 3, 3), (20, 12, 4)])
    def test_computes_product(self, dims):
        verify_schedule(NestedMaxReuse(MACHINE, *dims), q=2)

    def test_four_core_machine_single_socket_fallback(self, quad):
        # p=4: no 1 < g < p with square factors exists -> sockets=1
        alg = NestedMaxReuse(quad, 8, 8, 8)
        assert alg.sockets == 1
        verify_schedule(alg, q=2)
