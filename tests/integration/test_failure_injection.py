"""Failure injection: the checked simulator must catch broken schedules.

Each test plants a specific, realistic bug into a schedule (an
over-sized tile, a forgotten eviction, a missing load, a skipped
write-back path) and asserts the corresponding guard —
:class:`CapacityError`, :class:`InclusionError`, :class:`PresenceError`
or the numeric discipline — fires rather than silently producing wrong
counts.
"""

import pytest

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.shared_opt import SharedOpt
from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C
from repro.cache.hierarchy import IdealHierarchy
from repro.exceptions import (
    CapacityError,
    InclusionError,
    PresenceError,
    ScheduleError,
)
from repro.model.machine import MulticoreMachine
from repro.sim.contexts import IdealContext
from repro.sim.runner import run_experiment

MACHINE = MulticoreMachine(p=4, cs=40, cd=6, q=8)


class OversizedTile(MatmulAlgorithm):
    """Plans a C tile bigger than the shared cache."""

    name = "oversized"

    def run(self, ctx):
        for i in range(self.m):
            for j in range(self.n):
                ctx.load_shared(block_key(MAT_C, i, j))  # never evicts


class ForgetsEviction(MatmulAlgorithm):
    """Streams A through the shared cache without freeing it."""

    name = "leaky"

    def run(self, ctx):
        for k in range(self.z):
            for i in range(self.m):
                ctx.load_shared(block_key(MAT_A, i, k))


class SkipsSharedLevel(MatmulAlgorithm):
    """Loads straight into a distributed cache (inclusion violation)."""

    name = "non-inclusive"

    def run(self, ctx):
        ctx.load_dist(0, block_key(MAT_A, 0, 0))


class ComputesWithoutLoading(MatmulAlgorithm):
    """Emits a multiply-add on blocks never placed in the core's cache."""

    name = "phantom"

    def run(self, ctx):
        ctx.compute(
            0, block_key(MAT_C, 0, 0), block_key(MAT_A, 0, 0), block_key(MAT_B, 0, 0)
        )


class EvictsWhileCoreHolds(MatmulAlgorithm):
    """Evicts a shared block still resident in a distributed cache."""

    name = "early-evict"

    def run(self, ctx):
        key = block_key(MAT_A, 0, 0)
        ctx.load_shared(key)
        ctx.load_dist(0, key)
        ctx.evict_shared(key)


def _run_checked(cls):
    hierarchy = IdealHierarchy(MACHINE.p, MACHINE.cs, MACHINE.cd, check=True)
    cls(MACHINE, 8, 8, 8).run(IdealContext(hierarchy))


class TestCheckedIdealCatchesBugs:
    def test_capacity_overflow_shared(self):
        with pytest.raises(CapacityError):
            _run_checked(OversizedTile)

    def test_leaked_residency(self):
        with pytest.raises(CapacityError):
            _run_checked(ForgetsEviction)

    def test_inclusion_violation_on_load(self):
        with pytest.raises(InclusionError):
            _run_checked(SkipsSharedLevel)

    def test_presence_violation_on_compute(self):
        with pytest.raises(PresenceError):
            _run_checked(ComputesWithoutLoading)

    def test_inclusion_violation_on_evict(self):
        with pytest.raises(InclusionError):
            _run_checked(EvictsWhileCoreHolds)

    def test_unchecked_mode_tolerates_for_speed(self):
        """check=False trades the guards for throughput, by design."""
        hierarchy = IdealHierarchy(MACHINE.p, MACHINE.cs, MACHINE.cd, check=False)
        SkipsSharedLevel(MACHINE, 8, 8, 8).run(IdealContext(hierarchy))
        assert hierarchy.md[0] == 1


class TestRunnerGuards:
    def test_wrong_compute_count_caught(self):
        class HalfWork(SharedOpt):
            name = "half"

            def run(self, ctx):
                # only the first k layer: comp_total = mn instead of mnz
                full = SharedOpt(self.machine, self.m, self.n, 1, lam=self.lam)
                full.run(ctx)

        with pytest.raises(ScheduleError, match="multiply-adds"):
            run_experiment(HalfWork, MACHINE, 4, 4, 4, "lru")
