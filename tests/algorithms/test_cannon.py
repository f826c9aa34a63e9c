"""Tests for the Cannon's-algorithm extension baseline."""

import pytest

from repro.algorithms.cannon import Cannon
from repro.algorithms.registry import (
    ALGORITHMS,
    EXTRA_ALGORITHMS,
    get_algorithm,
)
from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine
from repro.numerics.executor import verify_schedule
from repro.sim.runner import run_experiment
from tests.conftest import run_proved


class TestRegistration:
    def test_extra_not_in_paper_registry(self):
        assert "cannon" not in ALGORITHMS
        assert EXTRA_ALGORITHMS["cannon"] is Cannon

    def test_lookup_by_name(self):
        assert get_algorithm("cannon") is Cannon


class TestStructure:
    def test_requires_square_grid(self):
        with pytest.raises(ConfigurationError):
            Cannon(MulticoreMachine(p=8, cs=200, cd=21), 8, 8, 8)

    def test_skewing_covers_all_bands_per_row(self, quad):
        """At every step, the cores of one torus row consume pairwise
        distinct k-bands (and hence disjoint tiles of A and B) — the
        defining property of Cannon's skewing."""
        alg = Cannon(quad, 8, 8, 8)
        s = alg.grid
        for t in range(s):
            for u in range(s):
                bands = {(u + v + t) % s for v in range(s)}
                assert len(bands) == s

    def test_exact_formula_divisible(self, quad):
        r = run_proved("cannon", quad, 8, 8, 8)
        m = n = z = 8
        s = 2
        assert r.ms == z * (s * m + 2 * m * n)
        assert r.ms == r.predicted.ms
        assert r.md == r.predicted.md

    def test_same_counts_as_outer_product(self, quad):
        """Skewing changes order, not volume: IDEAL counts coincide."""
        cn = run_proved("cannon", quad, 8, 8, 8)
        op = run_proved("outer-product", quad, 8, 8, 8)
        assert cn.ms == op.ms
        assert cn.md == op.md

    def test_lru_banding_beats_outer_product(self, quad):
        """Under LRU the skewed k-bands give Cannon better shared-cache
        locality than the globally-synchronized Outer Product: each core
        finishes a whole k-band against its C tile before moving on,
        instead of revisiting the tile once per global k."""
        cn = run_experiment("cannon", quad, 12, 12, 12, "lru")
        op = run_experiment("outer-product", quad, 12, 12, 12, "lru")
        assert cn.ms <= op.ms


class TestNumeric:
    @pytest.mark.parametrize("dims", [(8, 8, 8), (7, 5, 9), (2, 2, 2), (6, 10, 3)])
    def test_computes_product(self, quad, dims):
        verify_schedule(Cannon(quad, *dims), q=3)

    def test_nine_cores(self, nine_core):
        verify_schedule(Cannon(nine_core, 9, 6, 12), q=2)
