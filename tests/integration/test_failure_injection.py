"""Failure injection: broken schedules must not pass as counts.

Each test plants a specific, realistic bug into a schedule (an
over-sized tile, a forgotten eviction, a missing load, a premature
eviction) and asserts that :func:`repro.check.analyze_schedule`
reports it as an error under its rule id, or that the runner's
multiply-add count fires.  The IDEAL simulator itself counts whatever
it is given.
"""

import pytest

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.shared_opt import SharedOpt
from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C
from repro.cache.hierarchy import IdealHierarchy
from repro.check import analyze_schedule
from repro.check.findings import ERROR
from repro.exceptions import ScheduleError
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


def _errors(cls):
    """The rule ids of the error findings on ``cls``'s schedule."""
    report = analyze_schedule(cls(MACHINE, 8, 8, 8))
    return {f.rule for f in report.findings if f.severity == ERROR}


class TestCheckedIdealCatchesBugs:
    """IDEAL schedules are checked by the residency walk."""

    def test_capacity_overflow_shared(self):
        assert "capacity/ws-overflow" in _errors(OversizedTile)

    def test_leaked_residency(self):
        assert "capacity/ws-overflow" in _errors(ForgetsEviction)

    def test_inclusion_violation_on_load(self):
        assert "presence/load-absent" in _errors(SkipsSharedLevel)

    def test_presence_violation_on_compute(self):
        # No directive at all: the walk still runs, on the declaration.
        assert "presence/absent-operand" in _errors(ComputesWithoutLoading)

    def test_inclusion_violation_on_evict(self):
        assert "presence/inclusion" in _errors(EvictsWhileCoreHolds)

    def test_unchecked_mode_tolerates_for_speed(self):
        """The hierarchy counts whatever directives it is given."""
        hierarchy = IdealHierarchy(MACHINE.p)
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
