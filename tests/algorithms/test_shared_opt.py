"""Tests for Algorithm 1 (Shared Opt.).

The ``*_on_one_memory`` tests run it on one core, where it is the
single-memory Maximum Reuse Algorithm of [7] that the paper's §3
adapts (see the ``one_memory`` fixture).
"""

import math

import pytest

from repro.algorithms.shared_opt import SharedOpt
from repro.cache.hierarchy import IdealHierarchy
from repro.exceptions import ParameterError
from repro.model.bounds import ccr_lower_bound
from repro.model.machine import MulticoreMachine
from repro.numerics.executor import verify_schedule
from repro.sim.contexts import IdealContext
from repro.sim.runner import run_experiment
from tests.conftest import assert_proved, run_proved


class TestParameters:
    def test_default_lambda(self, paper_q32):
        alg = SharedOpt(paper_q32, 60, 60, 60)
        assert alg.lam == 30
        assert alg.parameters() == {"lambda": 30}

    def test_lambda_override(self, quad):
        alg = SharedOpt(quad, 12, 12, 12, lam=6)
        assert alg.lam == 6

    def test_lambda_capacity_check(self, quad):
        # 1 + 10 + 100 = 111 > CS=100
        with pytest.raises(ParameterError):
            SharedOpt(quad, 12, 12, 12, lam=10)

    def test_rejects_nonpositive_lambda(self, quad):
        with pytest.raises(ParameterError):
            SharedOpt(quad, 4, 4, 4, lam=0)

    def test_default_lambda_on_one_memory(self, one_memory):
        # [7]'s µ: the largest side with 1 + µ + µ² <= M
        assert SharedOpt(one_memory(21), 8, 8, 8).lam == 4

    def test_lambda_capacity_check_on_one_memory(self, one_memory):
        with pytest.raises(ParameterError):
            SharedOpt(one_memory(21), 4, 4, 4, lam=5)  # 31 > 21


class TestIdealCounts:
    def test_exact_formula_divisible(self, quad):
        # lam=6 divides 12: MS = mn + 2mnz/lam, MD = mnz/lam*(1+2*lam/p)
        r = run_proved("shared-opt", quad, 12, 12, 12, lam=6)
        assert r.ms == 12 * 12 + 2 * 12**3 // 6
        # busiest core gets ceil(lam/p) = 2 of the 6 columns
        assert r.md == (12**3 // 6) * (1 + 2 * 2)
        assert r.ms == r.predicted.ms
        assert r.md == r.predicted.md

    def test_rectangular_dims(self, quad):
        r = run_proved("shared-opt", quad, 6, 12, 18, lam=6)
        assert r.ms == 6 * 12 + 2 * 6 * 12 * 18 // 6
        assert r.comp_total == 6 * 12 * 18

    def test_capacity_and_inclusion_clean(self, quad):
        # run_proved fails on any capacity/inclusion violation.
        run_proved("shared-opt", quad, 13, 11, 7, lam=6)

    def test_ideal_caches_drained_at_end(self, quad):
        report = assert_proved(SharedOpt(quad, 12, 12, 12, lam=6))
        assert "presence/leaked-resident" not in {f.rule for f in report.findings}

    def test_c_writebacks_counted(self, quad):
        alg = SharedOpt(quad, 12, 12, 12, lam=6)
        assert_proved(alg)
        h = IdealHierarchy(quad.p)
        alg.run(IdealContext(h))
        # every block of C written back to memory exactly once
        assert h.shared_writebacks == 12 * 12

    def test_exact_loads_on_one_memory(self, one_memory):
        # µ=4 divides 8: loads = mn + 2mnz/µ
        r = run_proved("shared-opt", one_memory(21), 8, 8, 8)
        assert r.ms == 8 * 8 + 2 * 8**3 // 4
        assert r.ms == r.predicted.ms

    def test_c_written_back_once_on_one_memory(self, one_memory):
        r = run_proved("shared-opt", one_memory(21), 8, 8, 8)
        assert r.stats.shared.writebacks == 8 * 8

    def test_peak_fills_the_split_on_one_memory(self, one_memory):
        alg = SharedOpt(one_memory(21), 8, 8, 8)
        assert_proved(alg)
        h = IdealHierarchy(1)
        alg.run(IdealContext(h))
        assert h.peak_shared == 1 + 4 + 16  # the 1 + µ + µ² split, fully used

    def test_ccr_approaches_two_over_mu_on_one_memory(self, one_memory):
        # large matrices: CCR -> 1/z + 2/µ ~ 2/sqrt(M)
        r = run_proved("shared-opt", one_memory(21), 16, 16, 64)
        assert r.ccr_s == pytest.approx(1 / 64 + 2 / 4, rel=1e-6)

    def test_ccr_above_bound_on_one_memory(self, one_memory):
        machine = one_memory(21)
        r = run_proved("shared-opt", machine, 8, 8, 8)
        assert ccr_lower_bound(machine.cs) == pytest.approx(math.sqrt(27 / (8 * 21)))
        assert r.ccr_s >= ccr_lower_bound(machine.cs)


class TestWorkDistribution:
    def test_compute_balanced_when_divisible(self, quad):
        r = run_experiment("shared-opt", quad, 8, 8, 8, "ideal", lam=4)
        assert len(set(r.comp)) == 1  # perfectly balanced

    def test_all_cores_used(self, quad):
        r = run_experiment("shared-opt", quad, 12, 12, 12, "ideal", lam=6)
        assert all(c > 0 for c in r.comp)

    def test_single_core_machine(self, unicore):
        r = run_proved("shared-opt", unicore, 10, 10, 10)
        assert r.comp == [1000]


class TestNumeric:
    @pytest.mark.parametrize("dims", [(12, 12, 12), (7, 5, 9), (1, 1, 1), (2, 13, 4)])
    def test_computes_product(self, quad, dims):
        verify_schedule(SharedOpt(quad, *dims), q=3)

    def test_lambda_larger_than_matrix(self, paper_q32):
        # tile bigger than the whole matrix: single ragged tile
        verify_schedule(SharedOpt(paper_q32, 5, 5, 5), q=2)

    @pytest.mark.parametrize("dims", [(8, 8, 8), (7, 5, 9), (1, 1, 1)])
    def test_computes_product_on_one_memory(self, one_memory, dims):
        machine = one_memory(21)
        verify_schedule(SharedOpt(machine, *dims), q=3)
        run_proved("shared-opt", machine, *dims)
