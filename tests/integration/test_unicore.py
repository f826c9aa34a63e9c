"""Degenerate-machine sweeps: every algorithm on a single core.

With ``p = 1`` the grid collapses to 1×1, "parallel" loops have one
iterant, and several formulas lose their ``p`` terms — historically the
richest source of off-by-one bugs in tiled codes, hence a dedicated
suite.
"""

import pytest

from repro.algorithms.registry import ALGORITHMS, EXTRA_ALGORITHMS, get_algorithm
from repro.model.machine import MulticoreMachine
from repro.numerics.executor import verify_schedule
from repro.sim.runner import run_experiment
from tests.conftest import run_proved

UNICORE = MulticoreMachine(p=1, cs=50, cd=7, q=8, name="unicore")

ALL_NAMES = sorted(ALGORITHMS) + sorted(EXTRA_ALGORITHMS)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestUnicore:
    def test_numeric(self, name):
        verify_schedule(get_algorithm(name)(UNICORE, 5, 4, 6), q=2)

    def test_checked_ideal(self, name):
        cls = get_algorithm(name)
        if not cls.supports_ideal:
            from repro.exceptions import ConfigurationError

            with pytest.raises(ConfigurationError, match="compute-only"):
                run_experiment(name, UNICORE, 6, 6, 6, "ideal")
            return
        r = run_proved(name, UNICORE, 6, 6, 6)
        assert r.comp == [216]
        assert r.stats.imbalance() == 1.0

    def test_lru(self, name):
        r = run_experiment(name, UNICORE, 6, 6, 6, "lru")
        # single core: MD is the only distributed counter and the
        # compulsory floor applies at both levels
        assert r.ms >= 3 * 36
        assert r.md >= 3 * 36


class TestUnicoreRelations:
    def test_shared_and_distributed_opt_collapse_sensibly(self):
        """On one core both Maximum-Reuse variants keep their own tile
        parameter (λ from CS, µ from CD) and λ > µ ⇒ Shared Opt. still
        wins the shared level."""
        so = run_experiment("shared-opt", UNICORE, 12, 12, 12, "ideal")
        do = run_experiment("distributed-opt", UNICORE, 12, 12, 12, "ideal")
        assert so.ms < do.ms
        assert do.md < so.md

    def test_outer_product_equals_cannon_on_one_core(self):
        """With a 1×1 torus there is no skew: identical schedules."""
        op = run_experiment("outer-product", UNICORE, 8, 8, 8, "ideal")
        cn = run_experiment("cannon", UNICORE, 8, 8, 8, "ideal")
        assert op.ms == cn.ms
        assert op.md == cn.md
