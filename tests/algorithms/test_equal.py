"""Tests for the Shared Equal / Distributed Equal baselines.

The ``*_on_one_memory`` tests run Shared Equal on one core, where it is
Toledo's equal thirds of one memory [8], the baseline of [7] (see the
``one_memory`` fixture).
"""

import pytest

from repro.algorithms.equal import DistributedEqual, SharedEqual, equal_tile
from repro.check.events import EVICT_S, LOAD_S, AnalysisContext
from repro.exceptions import ParameterError
from repro.model.machine import MulticoreMachine
from repro.numerics.executor import verify_schedule
from repro.sim.runner import run_experiment
from tests.conftest import run_proved


class TestEqualTile:
    @pytest.mark.parametrize(
        "capacity,expected",
        [(3, 1), (11, 1), (12, 2), (27, 3), (977, 18), (21, 2), (16, 2), (6, 1)],
    )
    def test_values(self, capacity, expected):
        assert equal_tile(capacity) == expected

    def test_too_small(self):
        with pytest.raises(ParameterError):
            equal_tile(2)

    def test_defining_property(self):
        for capacity in range(3, 2000, 7):
            t = equal_tile(capacity)
            assert 3 * t * t <= capacity or t == 1
            assert 3 * (t + 1) ** 2 > capacity


class TestSharedEqual:
    def test_default_tile(self, paper_q32):
        assert SharedEqual(paper_q32, 18, 18, 18).t == 18

    def test_tile_capacity_check(self, quad):
        with pytest.raises(ParameterError):
            SharedEqual(quad, 10, 10, 10, t=6)  # 3*36 = 108 > 100

    def test_exact_formulas(self, quad):
        # t=5 divides 10: MS = mn + 2mnz/t
        r = run_proved("shared-equal", quad, 10, 10, 10, t=5)
        assert r.ms == 100 + 2 * 1000 // 5
        assert r.ms == r.predicted.ms
        assert r.md == r.predicted.md

    def test_worse_than_shared_opt(self, quad):
        """The equal-thirds split wastes shared capacity: t=5 < λ=9.

        Order 45 divides evenly by both tile sides, so the comparison
        is free of ragged-edge noise.
        """
        eq = run_experiment("shared-equal", quad, 45, 45, 45, "ideal")
        so = run_experiment("shared-opt", quad, 45, 45, 45, "ideal")
        assert eq.ms > so.ms

    @pytest.mark.parametrize("dims", [(10, 10, 10), (7, 5, 9), (1, 4, 2)])
    def test_numeric(self, quad, dims):
        verify_schedule(SharedEqual(quad, *dims), q=3)

    def test_default_tile_on_one_memory(self, one_memory):
        assert SharedEqual(one_memory(27), 6, 6, 6).t == 3

    def test_tile_capacity_check_on_one_memory(self, one_memory):
        with pytest.raises(ParameterError):
            SharedEqual(one_memory(11), 4, 4, 4, t=2)  # 3*4 = 12 > 11

    def test_exact_loads_on_one_memory(self, one_memory):
        # t=3 divides 6: loads = mn + 2mnz/t
        r = run_proved("shared-equal", one_memory(27), 6, 6, 6)
        assert r.ms == 6 * 6 + 2 * 6**3 // 3
        assert r.ms == r.predicted.ms

    def test_worse_than_shared_opt_on_one_memory(self, one_memory):
        """[7]'s point: the thirds split wastes memory (t=2 vs µ=4, M=21)."""
        machine = one_memory(21)
        eq = run_proved("shared-equal", machine, 8, 8, 8)
        so = run_proved("shared-opt", machine, 8, 8, 8)
        assert so.ms < eq.ms

    @pytest.mark.parametrize("dims", [(6, 6, 6), (7, 5, 9), (2, 3, 1)])
    def test_numeric_on_one_memory(self, one_memory, dims):
        machine = one_memory(27)
        verify_schedule(SharedEqual(machine, *dims), q=3)
        run_proved("shared-equal", machine, *dims)


class TestDistributedEqual:
    def test_default_tile(self, paper_q32):
        assert DistributedEqual(paper_q32, 8, 8, 8).t == 2  # CD=21 -> t=2

    def test_tile_capacity_check(self, quad):
        with pytest.raises(ParameterError):
            DistributedEqual(quad, 8, 8, 8, t=3)  # 27 > 21

    def test_exact_formulas(self, quad):
        # t=2, p=4: n/t = 8 tiles per row, divisible by p
        r = run_proved("distributed-equal", quad, 16, 16, 16, t=2)
        m = n = z = 16
        p = 4
        t = 2
        assert r.md == m * n // p + 2 * m * n * z // (p * t)
        assert r.ms == m * n + (1 + p) * m * n * z // (p * t)
        assert r.md == r.predicted.md

    def test_worse_than_distributed_opt(self, paper_q32):
        """t=2 from the equal split vs µ=4 from maximum reuse (CD=21)."""
        eq = run_experiment("distributed-equal", paper_q32, 16, 16, 16, "ideal")
        do = run_experiment("distributed-opt", paper_q32, 16, 16, 16, "ideal")
        assert eq.md > do.md

    def test_round_robin_balances_work(self, quad):
        r = run_experiment("distributed-equal", quad, 16, 16, 16, "ideal", t=2)
        assert len(set(r.comp)) == 1

    def test_last_partial_round(self, quad):
        # 9 tiles over 4 cores: final round has a single tile.
        run_proved("distributed-equal", quad, 6, 6, 4, t=2)

    @pytest.mark.parametrize("dims", [(16, 16, 16), (7, 5, 9), (3, 3, 3)])
    def test_numeric(self, quad, dims):
        verify_schedule(DistributedEqual(quad, *dims), q=3)

    @pytest.mark.parametrize("order", [2, 9, 16])
    def test_shared_evictions_follow_load_order(self, paper_q32, order):
        """Each run of shared evictions frees its blocks in the order they
        were loaded, so consecutive k0 slabs emit the same directives,
        shifted, as their declared loop promises."""
        ctx = AnalysisContext(paper_q32.p)
        DistributedEqual(paper_q32, order, order, order).run(ctx)
        loaded_at = {}
        runs = [[]]
        for position, (op, _, key, *_) in enumerate(ctx.events):
            if op == EVICT_S:
                runs[-1].append(loaded_at[key])
                continue
            if runs[-1]:
                runs.append([])
            if op == LOAD_S:
                loaded_at[key] = position
        assert max(map(len, runs)) > 1
        assert all(run == sorted(run) for run in runs)
