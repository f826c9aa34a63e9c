"""Compiled traces replay to the schedule's step counters.

:func:`repro.cache.replay.replay_bulk` feeds a compiled trace's compute
stream through the step :class:`~repro.cache.hierarchy.LRUHierarchy`,
one cell at a time, and :func:`replay_bulk_streaming` feeds it from the
running schedule with no trace at all.  Nothing in the package calls
either; the benchmark harness times them by name.  On real schedules
both must return a cold step run's counters for every cell, which
proves that the recorder keeps every multiply-add in the order the
schedule emits it: the on-disk tier's round trip and IDEAL replay rest
on that.  The engine rule's bound is pinned too.  The dirty-victim
write-back cascade is tested on the step hierarchy itself
(``tests/cache/test_hierarchy_lru.py``).
"""

import pytest

from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.cache import replay
from repro.cache.hierarchy import LRUHierarchy
from repro.cache.replay import (
    compile_trace,
    replay_bulk,
    replay_bulk_streaming,
    STREAM_FMAS,
    replays,
)
from repro.model.machine import PRESETS
from repro.sim.contexts import LRUContext

MACHINE = PRESETS["q32"]

#: Cells of both policies at shared and distributed capacities that
#: thrash and that hold the working set.
CELLS = [
    (policy, cs, cd)
    for policy in ("lru", "fifo")
    for cs in (7, 64)
    for cd in (3, 8)
]


def _step_run(algorithm, shape, policy, cs, cd):
    """A cold step run of the schedule: its counters and per-core comp."""
    hierarchy = LRUHierarchy(MACHINE.p, cs, cd, policy=policy)
    ctx = LRUContext(hierarchy)
    get_algorithm(algorithm)(MACHINE, *shape).run(ctx)
    return hierarchy.snapshot(), list(ctx.comp)


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("algorithm", algorithm_names())
    @pytest.mark.parametrize("shape", [(6, 6, 6), (7, 5, 9)])
    def test_batch_on_real_schedules(self, algorithm, shape):
        trace = compile_trace(
            get_algorithm(algorithm)(MACHINE, *shape), directives=False
        )
        got = replay_bulk(trace, CELLS)
        for cell, stats in zip(CELLS, got):
            assert (stats, list(trace.comp)) == _step_run(algorithm, shape, *cell)


class TestStreaming:
    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_streaming_equals_bulk(self, algorithm):
        """One schedule pass and a compiled trace give the step counters."""
        trace = compile_trace(
            get_algorithm(algorithm)(MACHINE, 7, 5, 9), directives=False
        )
        got, comp = replay_bulk_streaming(
            get_algorithm(algorithm)(MACHINE, 7, 5, 9), CELLS
        )
        assert got == replay_bulk(trace, CELLS)
        assert comp == list(trace.comp)
        for cell, stats in zip(CELLS, got):
            assert (stats, comp) == _step_run(algorithm, (7, 5, 9), *cell)

    def test_threshold_env_override(self, monkeypatch):
        """The bound is a module constant: the environment cannot move it."""
        monkeypatch.setenv("REPRO_STREAM_FMAS", "123")
        assert replays("ideal", STREAM_FMAS)
        assert not replays("ideal", STREAM_FMAS + 1)
        monkeypatch.setattr(replay, "STREAM_FMAS", 123)
        assert replays("ideal", 123)
        assert not replays("ideal", 124)
