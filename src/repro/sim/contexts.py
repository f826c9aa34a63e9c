"""Execution contexts binding algorithm schedules to simulated hierarchies.

See :mod:`repro.algorithms.base` for the contract.  The two counting
contexts mirror the paper simulator's two modes; :class:`ChainContext`
fans one schedule out to several interpreters at once.

The two counting contexts fast-forward the loops a schedule declares
through :meth:`~repro.algorithms.base.ExecutionContext.loop`, exactly.
LRU, FIFO and IDEAL caches read keys only through equality, so they
evolve the same way under a renaming of keys.  Suppose the whole
hierarchy state at one iteration boundary (every cache's key order and
dirty set, or IDEAL's resident and dirty sets) is the state one
boundary earlier with every key moved by the loop's shift.  Then each
remaining iteration repeats the last one's counter and multiply-add
deltas, and the loop ends in the current state moved by ``remaining ×
shift``.  :class:`_CountingContext` checks for that and jumps.  A
cache that an iteration cannot touch, such as a cache whose cores ran
no multiply-adds in it under non-inclusive LRU, keeps its keys
instead (see :meth:`~repro.cache.hierarchy.LRUHierarchy.still`):
a ragged tile row that leaves some cores idle still repeats.
"""

from __future__ import annotations

from typing import (
    Collection,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.algorithms.base import Directives, ExecutionContext, Shift
from repro.cache.block import shifted
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.cache.trace import AccessTrace


#: Multiply-adds the loops with one shift run between two of their
#: state comparisons, per key of hierarchy state.  A comparison copies
#: and renames the whole state; this keeps its cost to 1-2% of the
#: simulation around it where a loop never repeats (Distributed Equal's
#: k0 loop under LRU-50); a larger value catches the loops that do
#: repeat later.
_WORK_PER_KEY = 3


def _repeats(
    before: Sequence[Collection[int]],
    after: Sequence[Collection[int]],
    shift: Shift,
    still: Collection[int],
) -> bool:
    """Whether ``after`` is ``before`` with every key moved by ``shift``.

    The parts indexed by ``still`` must be unchanged instead.  Lists are
    compared in order, sets as sets.  Sizes and the oldest key of each
    list refute most mismatches before any full renaming.
    """
    pairs = list(zip(before, after))
    for index, (old, new) in enumerate(pairs):
        if len(old) != len(new):
            return False
        if index in still or not old or not isinstance(old, list):
            continue
        if isinstance(new, list) and new[0] != shifted(old[:1], shift)[0]:
            return False
    for index, (old, new) in enumerate(pairs):
        if index in still:
            if new != old:
                return False
            continue
        moved = shifted(old, shift)
        if new != (moved if isinstance(new, list) else set(moved)):
            return False
    return True


_Hierarchy = TypeVar("_Hierarchy", LRUHierarchy, IdealHierarchy)


class _CountingContext(ExecutionContext, Generic[_Hierarchy]):
    """A context counting against a hierarchy that can fast-forward loops.

    A declared loop compares the hierarchy state at two adjacent
    boundaries (see the module docstring) and jumps on a repeat.
    Comparisons are amortized per loop shift: the loops with one shift
    compare only once they have run ``_WORK_PER_KEY`` multiply-adds per
    key of state since their last comparison began.  In between they
    run as plain range slices, and a loop instance in which no
    comparison falls due is the plain range itself.
    """

    def __init__(self, hierarchy: _Hierarchy, skips: bool) -> None:
        super().__init__(hierarchy.p)
        self.hierarchy = hierarchy
        self._skips = skips
        #: Per shift: the multiply-add count from which its loops may
        #: compare, and the most multiply-adds one of their iterations
        #: has run (a ragged tile runs fewer than a full one).
        self._due: Dict[Shift, int] = {}
        self._work: Dict[Shift, int] = {}

    def loop(self, iterations: range, shift: Shift) -> Iterable[int]:
        count = len(iterations)
        if (
            self._skips
            and count > 1
            and sum(self.comp) + (count - 2) * self._work.get(shift, 0)
            >= self._due.get(shift, 0)
        ):
            return self._skip(iterations, shift)
        return iterations

    def _skip(self, iterations: range, shift: Shift) -> Iterator[int]:
        hierarchy, comp, due, work = self.hierarchy, self.comp, self._due, self._work
        count = len(iterations)
        at = 0
        while count - at > 1:
            done = sum(comp)
            wait = due.get(shift, 0) - done
            if wait > 0:
                # A plain slice up to the boundary where a comparison is due.
                until = at + (wait + work[shift] - 1) // work[shift]
                if until > count - 2:
                    break
                yield from iterations[at:until]
                at = until
                continue
            before = hierarchy.state()
            counted = hierarchy.counters() + comp
            yield iterations[at]
            at += 1
            after = hierarchy.state()
            work[shift] = max(work.get(shift, 1), sum(comp) - done)
            idle = [c for c, old in enumerate(counted[-len(comp) :]) if comp[c] == old]
            still = hierarchy.still(idle)
            if _repeats(before, after, shift, still):
                self._jump(counted, count - at, shift, still)
                return
            due[shift] = done + _WORK_PER_KEY * sum(map(len, after))
        yield from iterations[at:]

    def _jump(
        self, counted: List[int], times: int, shift: Shift, still: Collection[int]
    ) -> None:
        """Repeat the iteration since ``counted`` ``times`` more times."""
        comp = self.comp
        delta = [
            times * (new - old)
            for old, new in zip(counted, self.hierarchy.counters() + comp)
        ]
        split = len(delta) - len(comp)
        self.hierarchy.advance(
            delta[:split], [times * offset for offset in shift], still
        )
        for core, extra in enumerate(delta[split:]):
            comp[core] += extra


class LRUContext(_CountingContext[LRUHierarchy]):
    """LRU simulator mode: only compute touches reach the caches.

    It has no directives ("in the LRU mode, read and write operations
    are made at the distributed cache level; if a miss occurs,
    operations are propagated throughout the hierarchy").  The
    hierarchy may be a tree with middle levels (paper §6).  Declared
    loops are fast-forwarded when every cache is plain LRU or FIFO
    (:attr:`LRUHierarchy.renames`), inclusive or not.  A row of
    multiply-adds is one :meth:`LRUHierarchy.compute_row` call; a row
    never spans an iteration boundary, so the fast-forward sees the
    same states.
    """

    def __init__(self, hierarchy: LRUHierarchy) -> None:
        super().__init__(hierarchy, hierarchy.renames)
        # Bound method caching shaves a dict lookup off the hot path.
        self._row = hierarchy.compute_row

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        self._row(core, akey, bkey, ckey, (0,))
        self.comp[core] += 1

    def compute_row(
        self, core: int, crow: int, akey: int, brow: int, cols: Sequence[int]
    ) -> None:
        self.comp[core] += self._row(core, akey, brow, crow, cols)


class IdealContext(_CountingContext[IdealHierarchy]):
    """IDEAL simulator mode: the schedule controls every cache movement.

    The context is its own :class:`~repro.algorithms.base.Directives`,
    bound straight to the hierarchy's methods, and fast-forwards every
    declared loop.  It counts and does not verify: a multiply-add on an
    absent block still counts, and
    :func:`repro.check.analyze_schedule` proves the schedule's
    capacity, inclusion and presence.
    """

    def __init__(self, hierarchy: IdealHierarchy) -> None:
        super().__init__(hierarchy, True)
        self.load_shared = hierarchy.load_shared
        self.evict_shared = hierarchy.evict_shared
        self.load_dist = hierarchy.load_distributed
        self.evict_dist = hierarchy.evict_distributed
        self._dist_dirty = hierarchy.dist_dirty

    @property
    def directives(self) -> Directives:
        return self

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        self._dist_dirty[core].add(ckey)
        self.comp[core] += 1


class RecordingContext(ExecutionContext):
    """Record the reference stream instead of simulating it.

    Each compute appends its three touches (A, B, then the written C)
    to an :class:`~repro.cache.trace.AccessTrace`, which can then be
    replayed against arbitrary hierarchies, fed to the stack-distance
    analyzer (:mod:`repro.cache.stackdist`) for whole-miss-curve
    analysis, or to Belady's OPT (:mod:`repro.cache.opt`).
    """

    def __init__(self, p: int) -> None:
        super().__init__(p)
        self.trace = AccessTrace()

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        record = self.trace.record
        record(core, akey)
        record(core, bkey)
        record(core, ckey, True)
        self.comp[core] += 1

    def keys(self) -> List[int]:
        """The flat key sequence (core-agnostic), for trace analyses."""
        return [key for _, key, _ in self.trace]


class ChainContext(ExecutionContext):
    """Fan a schedule out to several contexts (they must agree on ``p``).

    It has directives exactly when a child does, and forwards them to
    the children that have them.
    """

    def __init__(self, contexts: Sequence[ExecutionContext]) -> None:
        if not contexts:
            raise ValueError("ChainContext needs at least one child context")
        p = contexts[0].p
        if any(c.p != p for c in contexts):
            raise ValueError("chained contexts disagree on the core count")
        super().__init__(p)
        self.contexts = list(contexts)
        self._targets = [c.directives for c in contexts if c.directives is not None]

    @property
    def directives(self) -> Optional[Directives]:
        return self if self._targets else None

    def load_shared(self, key: int) -> None:
        for d in self._targets:
            d.load_shared(key)

    def evict_shared(self, key: int) -> None:
        for d in self._targets:
            d.evict_shared(key)

    def load_dist(self, core: int, key: int) -> None:
        for d in self._targets:
            d.load_dist(core, key)

    def evict_dist(self, core: int, key: int) -> None:
        for d in self._targets:
            d.evict_dist(core, key)

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        for c in self.contexts:
            c.compute(core, ckey, akey, bkey)
        self.comp[core] += 1
