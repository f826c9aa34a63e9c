"""Symbolic event log of a schedule and the context that records it.

:class:`AnalysisContext` is the cheapest possible interpreter of a
schedule: it advertises ``explicit = True`` so algorithms emit their
full directive stream, and appends every operation to a flat list of
tuples instead of simulating anything.  The analyzers in this package
(the residency walk of :mod:`~repro.check.presence`,
:mod:`~repro.check.coverage`, :mod:`~repro.check.races`) then prove
their invariants by walking that log — milliseconds, versus the
multi-second cache simulation or numeric execution the same bugs would
otherwise need to surface.

Event encoding (position in the list is the event's global sequence
number):

* ``(LOAD_S,  -1,   key)`` — memory → shared-cache load;
* ``(EVICT_S, -1,   key)`` — shared-cache eviction;
* ``(LOAD_D,  core, key)`` — shared → distributed load by ``core``;
* ``(EVICT_D, core, key)`` — distributed eviction by ``core``;
* ``(COMPUTE, core, ckey, akey, bkey)`` — one block multiply-add.

Shared-level directives carry core ``-1``: in the paper's model they
are issued by the orchestrating master, not by a worker core, which is
exactly what makes them synchronization points for the race detector.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.algorithms.base import ExecutionContext

#: Event opcodes (first element of every event tuple).
LOAD_S = 0
EVICT_S = 1
LOAD_D = 2
EVICT_D = 3
COMPUTE = 4

#: One recorded operation; length 3 for directives, 5 for computes.
Event = Tuple[int, ...]


class AnalysisContext(ExecutionContext):
    """Record a schedule's directive/compute stream for static analysis.

    Unlike :class:`~repro.sim.contexts.RecordingContext` (which records
    the *reference* stream for LRU replay and drops the directives),
    this context keeps the explicit directives — they are the object of
    study here.
    """

    explicit = True

    def __init__(self, p: int) -> None:
        super().__init__(p)
        self.events: List[Event] = []
        #: Number of explicit directives recorded (0 ⇒ compute-only
        #: schedule; the residency walk is meaningless then).
        self.directives = 0

    def load_shared(self, key: int) -> None:
        self.directives += 1
        self.events.append((LOAD_S, -1, key))

    def evict_shared(self, key: int) -> None:
        self.directives += 1
        self.events.append((EVICT_S, -1, key))

    def load_dist(self, core: int, key: int) -> None:
        self.directives += 1
        self.events.append((LOAD_D, core, key))

    def evict_dist(self, core: int, key: int) -> None:
        self.directives += 1
        self.events.append((EVICT_D, core, key))

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        self.events.append((COMPUTE, core, ckey, akey, bkey))
        self.comp[core] += 1
