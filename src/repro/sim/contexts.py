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

Under plain non-inclusive two-level LRU (the row kernel's fast path,
:attr:`~repro.cache.hierarchy.LRUHierarchy.splits`) the fast-forward
also splits the two levels.  A core-cache miss is passed up to the
shared cache, which never sends anything back down: each core's cache
changes only with its own core's references, and the shared cache sees
only the ordered stream of their misses and dirty write-backs.  So once
the core caches alone repeat under the loop's shift, which they do long
before a large shared cache stops filling, they repeat at every later
boundary, and each later iteration passes the shared cache the same
stream moved by one more shift.  :class:`LRUContext` then records that
stream for one iteration
(:meth:`~repro.cache.hierarchy.LRUHierarchy.record_row`) and replays it
against the shared cache alone for the rest of the loop
(:meth:`~repro.cache.hierarchy.LRUHierarchy.replay`); the core caches
and multiply-add counts catch up in one step at the end, or before a
whole-state comparison.  The core caches are compared on their own
cadence, sized by their own state.  A replay starts only after a core
repeat over an iteration in which no nested loop fast-forwarded, and
the recorded iteration is a whole-state comparison too: on a whole
repeat it jumps instead.  A nested loop that fast-forwards inside the
recorded iteration leaves its stream incomplete, and so does a log
past its bound; the loop then runs on without splitting.  While a
replay runs, whole-state comparisons keep their cadence, and a whole
repeat ends the replay with a jump.
"""

from __future__ import annotations

from typing import (
    Callable,
    Collection,
    Dict,
    Generator,
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

#: A copy of a hierarchy's state, part by part (see ``state``).
_State = List[Collection[int]]


class _CountingContext(ExecutionContext, Generic[_Hierarchy]):
    """A context counting against a hierarchy that can fast-forward loops.

    A declared loop compares the hierarchy state at two adjacent
    boundaries (see the module docstring) and jumps on a repeat.
    Comparisons are amortized per loop shift: the loops with one shift
    compare only once they have run ``_WORK_PER_KEY`` multiply-adds per
    key of state since their last comparison began.  In between they
    run as plain range slices, and a loop instance in which no
    comparison falls due is the plain range itself.  A context whose
    core caches evolve on their own (:class:`LRUContext` over a
    hierarchy that :attr:`~repro.cache.hierarchy.LRUHierarchy.splits`)
    also compares them alone, amortized by their own state, and
    replays the shared cache once they repeat (:meth:`_split`).

    :attr:`jumped` and :attr:`replayed` count the multiply-adds that
    jumps and replays accounted for without running them.
    """

    #: Whether the core caches are compared alone too.
    _splits = False

    def __init__(self, hierarchy: _Hierarchy, skips: bool) -> None:
        super().__init__(hierarchy.p)
        self.hierarchy = hierarchy
        self._skips = skips
        #: Per shift: the multiply-add count from which its loops may
        #: compare (the whole state or, when splitting, the core caches),
        #: the one from which they compare the whole state, and the most
        #: multiply-adds one of their iterations has run (a ragged tile
        #: runs fewer than a full one).
        self._due: Dict[Shift, int] = {}
        self._whole: Dict[Shift, int] = {}
        self._work: Dict[Shift, int] = {}
        self.jumped = 0
        self.replayed = 0

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
        splits = self._splits
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
            whole = self._whole.get(shift, 0) <= done
            state = hierarchy.state if whole else self._core_state
            before = state()
            counted = hierarchy.counters() + comp
            forwarded = self.jumped + self.replayed
            yield iterations[at]
            at += 1
            after = state()
            work[shift] = max(work.get(shift, 1), sum(comp) - done)
            still = self._still(counted)
            if whole:
                if _repeats(before, after, shift, still):
                    self._jump(counted, count - at, shift, still)
                    return
                self._whole[shift] = done + _WORK_PER_KEY * sum(map(len, after))
            due[shift] = self._whole[shift]
            if not splits:
                continue
            if whole:
                before, after = self._core_state(before), self._core_state(after)
            if (
                count - at > 1
                and forwarded == self.jumped + self.replayed
                and _repeats(before, after, shift, still)
            ):
                if (yield from self._split(iterations[at], count - at - 1, shift)):
                    return
                # A nested loop fast-forwarded in the recorded iteration, or
                # its log outgrew its bound: this loop splits no more.
                at += 1
                splits = False
                continue
            due[shift] = min(due[shift], done + _WORK_PER_KEY * sum(map(len, after)))
        yield from iterations[at:]

    def _still(self, counted: List[int]) -> Collection[int]:
        """The state parts an iteration leaves in place: those of the caches
        of the cores that ran no multiply-add since ``counted``."""
        comp = self.comp
        idle = [c for c, old in enumerate(counted[-len(comp) :]) if comp[c] == old]
        return self.hierarchy.still(idle)

    def _core_state(self, state: Optional[_State] = None) -> _State:
        """The core caches' parts of ``state``, by default the live one;
        only a splitting context compares them alone."""
        raise NotImplementedError

    def _split(
        self, iteration: int, times: int, shift: Shift
    ) -> Generator[int, None, bool]:
        """Record ``iteration`` and replay it ``times`` more times; only a
        splitting context does."""
        raise NotImplementedError

    def _delta(self, counted: List[int]) -> List[int]:
        """The counters and multiply-adds run since ``counted``."""
        now = self.hierarchy.counters() + self.comp
        return [new - old for old, new in zip(counted, now)]

    def _jump(
        self, counted: List[int], times: int, shift: Shift, still: Collection[int]
    ) -> None:
        """Repeat the iteration since ``counted`` ``times`` more times."""
        delta = self._delta(counted)
        self.jumped += self._add(delta, times, shift, still, self.hierarchy.advance)

    def _add(
        self,
        delta: List[int],
        times: int,
        shift: Shift,
        still: Collection[int],
        advance: Callable[[List[int], List[int], Collection[int]], None],
    ) -> int:
        """Add ``times`` × ``delta`` (counters, then multiply-adds) and move
        keys by ``times`` × ``shift``, both through ``advance`` but the
        multiply-adds; return how many multiply-adds that adds."""
        comp = self.comp
        split = len(delta) - len(comp)
        advance(
            [times * d for d in delta[:split]], [times * o for o in shift], still
        )
        for core, extra in enumerate(delta[split:]):
            comp[core] += times * extra
        return times * sum(delta[split:])


class LRUContext(_CountingContext[LRUHierarchy]):
    """LRU simulator mode: only compute touches reach the caches.

    It has no directives ("in the LRU mode, read and write operations
    are made at the distributed cache level; if a miss occurs,
    operations are propagated throughout the hierarchy").  The
    hierarchy may be a tree with middle levels (paper §6).  Declared
    loops are fast-forwarded when every cache is plain LRU or FIFO
    (:attr:`LRUHierarchy.renames`), inclusive or not, and split when
    the hierarchy :attr:`~LRUHierarchy.splits`.  A row of
    multiply-adds is one :meth:`LRUHierarchy.compute_row` call; a row
    never spans an iteration boundary, so the fast-forward sees the
    same states.
    """

    def __init__(self, hierarchy: LRUHierarchy) -> None:
        super().__init__(hierarchy, hierarchy.renames)
        self._splits = hierarchy.splits
        # Bound method caching shaves a dict lookup off the hot path.
        self._row = hierarchy.compute_row

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        self._row(core, akey, bkey, ckey, (0,))
        self.comp[core] += 1

    def compute_row(
        self, core: int, crow: int, akey: int, brow: int, cols: Sequence[int]
    ) -> None:
        self.comp[core] += self._row(core, akey, brow, crow, cols)

    def _core_state(self, state: Optional[_State] = None) -> _State:
        return self.hierarchy.core_state(state)

    def _split(
        self, iteration: int, times: int, shift: Shift
    ) -> Generator[int, None, bool]:
        """Record ``iteration``'s shared-level events, then replay them.

        The core caches at the boundary before ``iteration`` repeat the
        ones a boundary earlier, moved by ``shift``.  They evolve on their
        own, so they repeat at every later boundary too, and each later
        iteration passes the shared cache this one's events moved by one
        more ``shift``.  The recorded iteration is a whole-state
        comparison too and jumps on a repeat.  Otherwise the remaining
        ``times`` iterations replay (:meth:`_replay`), unless a nested
        loop fast-forwarded inside the recorded one, which leaves its
        events incomplete; then it returns ``False``.
        """
        hierarchy, comp = self.hierarchy, self.comp
        before = hierarchy.state()
        counted = hierarchy.counters() + comp
        forwarded = self.jumped + self.replayed
        # A nested split records into the log its enclosing one keeps.
        log = hierarchy.log
        start = 0 if log is None else len(log)
        if log is None:
            hierarchy.log = []
        row, self._row = self._row, hierarchy.record_row
        try:
            yield iteration
        finally:
            self._row = row
            events = hierarchy.log
            if log is None:
                hierarchy.log = None
        still = self._still(counted)
        if _repeats(before, hierarchy.state(), shift, still):
            self._jump(counted, times, shift, still)
            return True
        if events is None or forwarded != self.jumped + self.replayed:
            return False
        self._replay(events[start:], self._delta(counted), times, shift, still)
        return True

    def _replay(
        self,
        events: List[int],
        delta: List[int],
        times: int,
        shift: Shift,
        still: Collection[int],
    ) -> None:
        """Run the last iteration ``times`` more times from its shared-level
        ``events`` and its counter and multiply-add ``delta``.

        The shared cache replays the events; the core caches and the
        multiply-add counts catch up by ``delta`` per iteration, in one
        step at the end, or before a whole-state comparison falls due.
        Such a comparison keeps the cadence it has in :meth:`_skip` and
        jumps on a repeat.
        """
        hierarchy, comp, whole = self.hierarchy, self.comp, self._whole
        work = sum(delta[-len(comp) :])
        # Replayed iterations the core caches and counts have yet to catch up.
        lag = 0
        while times:
            wait = whole[shift] - sum(comp) - lag * work
            if wait > 0:
                ahead = min(times, (wait + work - 1) // work)
                events = hierarchy.replay(events, shift, ahead)
                lag += ahead
                times -= ahead
                continue
            self._catch_up(delta, lag, shift, still)
            lag = 0
            before = hierarchy.state()
            counted = hierarchy.counters() + comp
            done = sum(comp)
            events = hierarchy.replay(events, shift, 1)
            self._catch_up(delta, 1, shift, still)
            times -= 1
            after = hierarchy.state()
            if _repeats(before, after, shift, still):
                self._jump(counted, times, shift, still)
                return
            whole[shift] = done + _WORK_PER_KEY * sum(map(len, after))
        self._catch_up(delta, lag, shift, still)

    def _catch_up(
        self, delta: List[int], times: int, shift: Shift, still: Collection[int]
    ) -> None:
        """Move the core caches and multiply-add counts ``times`` replayed
        iterations on."""
        if times:
            advance = self.hierarchy.advance_cores
            self.replayed += self._add(delta, times, shift, still, advance)


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
