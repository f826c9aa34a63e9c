"""The two-level cache hierarchy of the paper, in both simulator modes.

Two classes mirror the two modes of the paper's simulator (§4.1):

* :class:`LRUHierarchy` — "read and write operations are made at the
  distributed cache level (top of hierarchy); if a miss occurs,
  operations are propagated throughout the hierarchy until a cache hit
  happens."  Replacement is automatic (LRU by default, FIFO available
  for ablations).  Explicit load/evict directives from algorithms are
  ignored in this mode.  Optional middle levels between the shared and
  the distributed caches make it a tree of caches, the "yet another
  level of hierarchy" that the paper's §6 expects for clusters of
  multicores.

* :class:`IdealHierarchy` — "the user manually decides which data needs
  to be loaded/unloaded in a given cache; I/O operations are not
  propagated throughout the hierarchy in case of a cache miss: it is the
  user responsibility to guarantee that a given data is present in every
  cache below the target cache."  The hierarchy only counts; the
  residency walk of :mod:`repro.check` proves that responsibility
  (capacity, inclusion and presence) on the schedule's directive log.

Both expose the same statistics surface
(:class:`repro.cache.stats.HierarchyStats`) so the simulation engine is
mode-agnostic, and the same renaming surface (``state``, ``counters``,
``advance``) through which :mod:`repro.sim.contexts` fast-forwards a
schedule's periodic loops.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import add
from typing import Callable, Collection, List, Optional, Sequence, Set, Tuple

from repro.cache.block import MAT_SHIFT, shifted
from repro.cache.cache import Cache
from repro.cache.lru import FIFOCache, LRUCache
from repro.cache.stats import CacheStats, HierarchyStats
from repro.exceptions import ConfigurationError


#: One outer step of a core's path: the cache reached and the caches
#: below it that its victims are invalidated in (none unless inclusive).
_Outer = Tuple[Cache, Tuple[Cache, ...]]

#: The most shared-level events :meth:`LRUHierarchy.record_row` keeps
#: for one recorded iteration, so that a log's memory does not grow with
#: the matrix order.
LOG_LIMIT = 1 << 14


class LRUHierarchy:
    """Shared cache, optional middle levels and ``p`` distributed caches,
    with automatic replacement.

    Parameters
    ----------
    p:
        Number of cores (and distributed caches).
    cs, cd:
        Capacities (in blocks) of the shared and of each distributed
        cache.
    policy:
        Replacement policy name (``"lru"`` or ``"fifo"``).
    inclusive:
        When ``True``, a block evicted from any cache above the cores is
        back-invalidated in every cache below it, enforcing the paper's
        inclusivity assumption.  When ``False`` (default, and what a
        straightforward two-level LRU does), inner copies may outlive
        the outer one.
    middle:
        ``(count, capacity)`` of each level between the shared cache and
        the core caches, root first: the paper's §6 "yet another level of
        hierarchy", such as one cache per socket.  Each count divides
        ``p`` and is a multiple of the count above it, so the caches of a
        level serve contiguous, equal runs of cores.

    :attr:`levels` lists the caches of each level, root first: the
    shared cache, the middle levels, then the distributed caches.
    """

    def __init__(
        self,
        p: int,
        cs: int,
        cd: int,
        policy: str = "lru",
        inclusive: bool = False,
        middle: Sequence[Tuple[int, int]] = (),
    ) -> None:
        if p < 1:
            raise ConfigurationError(f"need at least one core, got p={p}")
        self.p = p
        self.policy_name = policy
        self.inclusive = inclusive
        self.shared = Cache("shared", cs, policy)
        self.levels: List[List[Cache]] = [[self.shared]]
        for depth, (count, capacity) in enumerate(middle, 1):
            above = len(self.levels[-1])
            if count < 1 or p % count or count % above:
                raise ConfigurationError(
                    f"level {depth} has {count} caches: the count must divide "
                    f"p={p} and be a multiple of the {above} above it"
                )
            self.levels.append(
                [Cache(f"level{depth}[{c}]", capacity, policy) for c in range(count)]
            )
        self.distributed = [Cache(f"distributed[{c}]", cd, policy) for c in range(p)]
        self.levels.append(self.distributed)
        # Each core's way up from its own cache: per outer level, nearest
        # first, the cache it reaches and the caches its victims leave.
        self._paths: List[Tuple[_Outer, ...]] = [()] * p
        for depth, level in enumerate(self.levels[:-1]):
            count = len(level)
            outer = [(cache, self._below(depth, j)) for j, cache in enumerate(level)]
            self._paths = [
                (outer[core * count // p], *path)
                for core, path in enumerate(self._paths)
            ]
        # The specialized fast path manipulates the LRU OrderedDicts
        # directly; it is only valid for plain non-inclusive two-level LRU.
        self._fast = policy == "lru" and not inclusive and not middle
        if self._fast:
            # The row kernel's view of each cache, bound once: resets and
            # renamings mutate these objects in place, so it stays valid.
            self._views = [_view(dc) for dc in self.distributed]
            self._shared_view = _view(self.shared)
        #: The shared-level events :meth:`record_row` appends to, while a
        #: split fast-forward records an iteration.
        self.log: Optional[List[int]] = None

    def _below(self, depth: int, index: int) -> Tuple[Cache, ...]:
        """Under back-invalidation, every cache below ``levels[depth][index]``:
        a contiguous run of each lower level.  Empty unless inclusive."""
        if not self.inclusive:
            return ()
        count = len(self.levels[depth])
        return tuple(
            cache
            for level in self.levels[depth + 1 :]
            for cache in level[
                index * len(level) // count : (index + 1) * len(level) // count
            ]
        )

    # ------------------------------------------------------------------
    # Generic (policy-agnostic) access path
    # ------------------------------------------------------------------
    def touch(self, core: int, key: int, write: bool = False) -> bool:
        """One reference by ``core`` to ``key``; returns distributed-hit.

        A miss is propagated up the core's path until a cache hits; a
        shared miss loads from memory.  Writes mark the block dirty at
        the distributed level.  A dirty victim is written back into the
        copy one level up, which becomes dirty (mirroring
        :meth:`IdealHierarchy.evict_distributed`); if that cache no
        longer holds the block, the write-back goes straight to memory
        and was already counted where the victim left.  When inclusive,
        a victim of a cache above the cores leaves every cache below it.
        """
        hit, victim, dirty = self.distributed[core].access(key, write)
        if hit:
            return True
        for cache, below in self._paths[core]:
            if dirty and victim is not None and victim in cache:
                cache.dirty.add(victim)
            hit, victim, dirty = cache.access(key)
            if hit:
                return False
            if below and victim is not None:
                for inner in below:
                    inner.invalidate(victim)
        return False

    def compute_touches(self, core: int, akey: int, bkey: int, ckey: int) -> None:
        """The three references of one block multiply-add ``C += A·B``.

        The one-column case of :meth:`compute_row` (``key | 0 == key``).
        """
        self.compute_row(core, akey, bkey, ckey, (0,))

    def compute_row(
        self, core: int, akey: int, brow: int, crow: int, cols: Sequence[int]
    ) -> int:
        """The multiply-adds ``C[crow | j] += A[akey] · B[brow | j]``.

        Runs one per ``j`` in ``cols``, in order, each as three
        :meth:`touch` references (A, B, then the written C), and returns
        how many ran.  This is the innermost simulator operation.  When
        the hierarchy runs plain non-inclusive two-level LRU, the logic of
        :meth:`touch` is inlined over the ``OrderedDict`` internals
        bound at construction, and each cache's counters are added once
        at the end of the row; tests assert that this fast path and
        three :meth:`touch` calls per multiply-add produce identical
        counters, dirty sets and key order.
        """
        count = len(cols)
        if not self._fast:
            touch = self.touch
            for j in cols:
                touch(core, akey)
                touch(core, brow | j)
                touch(core, crow | j, write=True)
            return count

        dc, ddata, dmove, dpop, ddirty, dcap = self._views[core]
        sc, sdata, smove, spop, sdirty, scap = self._shared_view
        dmbm = dc.misses_by_matrix
        smbm = sc.misses_by_matrix
        dhits = dwritebacks = shits = swritebacks = 0
        # After a column, A is one of the three most recent keys, so a
        # distributed cache of three or more blocks still holds it: from
        # the second column on its reference is a hit that only
        # refreshes its recency.  Smaller caches look it up every time.
        cold = True
        for j in cols:
            if cold:
                cold = dcap < 3
                if akey in ddata:
                    dmove(akey)
                    dhits += 1
                else:
                    dmbm[akey >> MAT_SHIFT] += 1
                    if len(ddata) >= dcap:
                        # The least recent key; ``last`` goes positionally
                        # because the keyword form is measurably slower.
                        victim = dpop(False)[0]
                        if victim in ddirty:
                            ddirty.discard(victim)
                            dwritebacks += 1
                            if victim in sdata:
                                sdirty.add(victim)
                    ddata[akey] = None
                    if akey in sdata:
                        smove(akey)
                        shits += 1
                    else:
                        smbm[akey >> MAT_SHIFT] += 1
                        if len(sdata) >= scap:
                            victim = spop(False)[0]
                            if victim in sdirty:
                                sdirty.discard(victim)
                                swritebacks += 1
                        sdata[akey] = None
            else:
                dmove(akey)
            key = brow | j
            if key in ddata:
                dmove(key)
                dhits += 1
            else:
                dmbm[key >> MAT_SHIFT] += 1
                if len(ddata) >= dcap:
                    victim = dpop(False)[0]
                    if victim in ddirty:
                        ddirty.discard(victim)
                        dwritebacks += 1
                        if victim in sdata:
                            sdirty.add(victim)
                ddata[key] = None
                if key in sdata:
                    smove(key)
                    shits += 1
                else:
                    smbm[key >> MAT_SHIFT] += 1
                    if len(sdata) >= scap:
                        victim = spop(False)[0]
                        if victim in sdirty:
                            sdirty.discard(victim)
                            swritebacks += 1
                    sdata[key] = None
            key = crow | j
            if key in ddata:
                dmove(key)
                dhits += 1
            else:
                dmbm[key >> MAT_SHIFT] += 1
                if len(ddata) >= dcap:
                    victim = dpop(False)[0]
                    if victim in ddirty:
                        ddirty.discard(victim)
                        dwritebacks += 1
                        if victim in sdata:
                            sdirty.add(victim)
                ddata[key] = None
                if key in sdata:
                    smove(key)
                    shits += 1
                else:
                    smbm[key >> MAT_SHIFT] += 1
                    if len(sdata) >= scap:
                        victim = spop(False)[0]
                        if victim in sdirty:
                            sdirty.discard(victim)
                            swritebacks += 1
                    sdata[key] = None
            ddirty.add(key)
        if not cold:
            # A's certain hits, one per column after the first.
            dhits += count - 1
        # A reference that did not hit missed.
        dc.hits += dhits
        dc.misses += 3 * count - dhits
        dc.writebacks += dwritebacks
        sc.hits += shits
        sc.misses += 3 * count - dhits - shits
        sc.writebacks += swritebacks
        return count

    # ------------------------------------------------------------------
    # The shared level on its own (split fast-forward)
    # ------------------------------------------------------------------
    @property
    def splits(self) -> bool:
        """Whether the core caches evolve apart from the shared cache.

        Under plain non-inclusive two-level LRU (the row kernel's fast
        path) a core's cache changes only with its own core's
        references, and the shared cache sees only the events the core
        caches pass up: each missed key, and each dirty victim written
        back.  :meth:`record_row` logs those events and :meth:`replay`
        runs them against the shared cache alone.
        """
        return self._fast

    def record_row(
        self, core: int, akey: int, brow: int, crow: int, cols: Sequence[int]
    ) -> int:
        """:meth:`compute_row`, appending the row's shared-level events to
        :attr:`log`.

        The events are what the core's cache passes up, in order: each
        key it misses, preceded by ``~victim`` when that miss evicts a
        dirty block.  This is the fast path of :meth:`compute_row` with
        the appends; a separate copy, so that the live kernel pays
        nothing for them.  A log that outgrows :data:`LOG_LIMIT` events
        is dropped (:attr:`log` becomes ``None``), and later rows run on
        :meth:`compute_row`.  Requires :attr:`splits`.
        """
        log = self.log
        if log is None:
            return self.compute_row(core, akey, brow, crow, cols)
        append = log.append
        count = len(cols)
        dc, ddata, dmove, dpop, ddirty, dcap = self._views[core]
        sc, sdata, smove, spop, sdirty, scap = self._shared_view
        dmbm = dc.misses_by_matrix
        smbm = sc.misses_by_matrix
        dhits = dwritebacks = shits = swritebacks = 0
        cold = True
        for j in cols:
            if cold:
                cold = dcap < 3
                if akey in ddata:
                    dmove(akey)
                    dhits += 1
                else:
                    dmbm[akey >> MAT_SHIFT] += 1
                    if len(ddata) >= dcap:
                        victim = dpop(False)[0]
                        if victim in ddirty:
                            ddirty.discard(victim)
                            dwritebacks += 1
                            append(~victim)
                            if victim in sdata:
                                sdirty.add(victim)
                    ddata[akey] = None
                    append(akey)
                    if akey in sdata:
                        smove(akey)
                        shits += 1
                    else:
                        smbm[akey >> MAT_SHIFT] += 1
                        if len(sdata) >= scap:
                            victim = spop(False)[0]
                            if victim in sdirty:
                                sdirty.discard(victim)
                                swritebacks += 1
                        sdata[akey] = None
            else:
                dmove(akey)
            key = brow | j
            if key in ddata:
                dmove(key)
                dhits += 1
            else:
                dmbm[key >> MAT_SHIFT] += 1
                if len(ddata) >= dcap:
                    victim = dpop(False)[0]
                    if victim in ddirty:
                        ddirty.discard(victim)
                        dwritebacks += 1
                        append(~victim)
                        if victim in sdata:
                            sdirty.add(victim)
                ddata[key] = None
                append(key)
                if key in sdata:
                    smove(key)
                    shits += 1
                else:
                    smbm[key >> MAT_SHIFT] += 1
                    if len(sdata) >= scap:
                        victim = spop(False)[0]
                        if victim in sdirty:
                            sdirty.discard(victim)
                            swritebacks += 1
                    sdata[key] = None
            key = crow | j
            if key in ddata:
                dmove(key)
                dhits += 1
            else:
                dmbm[key >> MAT_SHIFT] += 1
                if len(ddata) >= dcap:
                    victim = dpop(False)[0]
                    if victim in ddirty:
                        ddirty.discard(victim)
                        dwritebacks += 1
                        append(~victim)
                        if victim in sdata:
                            sdirty.add(victim)
                ddata[key] = None
                append(key)
                if key in sdata:
                    smove(key)
                    shits += 1
                else:
                    smbm[key >> MAT_SHIFT] += 1
                    if len(sdata) >= scap:
                        victim = spop(False)[0]
                        if victim in sdirty:
                            sdirty.discard(victim)
                            swritebacks += 1
                    sdata[key] = None
            ddirty.add(key)
        if not cold:
            dhits += count - 1
        dc.hits += dhits
        dc.misses += 3 * count - dhits
        dc.writebacks += dwritebacks
        sc.hits += shits
        sc.misses += 3 * count - dhits - shits
        sc.writebacks += swritebacks
        if len(log) > LOG_LIMIT:
            self.log = None
        return count

    def replay(self, events: List[int], shift: Sequence[int], times: int) -> List[int]:
        """Run logged shared-level events ``times`` more times against the
        shared cache alone, each time moved by one more ``shift``, and
        return them as last run.

        Each event does what the row kernel does at the shared level: a
        key is referenced, and a dirty core victim ``~victim`` lands in
        its shared copy, if any.  Requires :attr:`splits`.
        """
        # ``~victim`` moves to ``~(victim + d)``, that is by ``-d``.
        offsets = [
            shift[key >> MAT_SHIFT] if key >= 0 else -shift[~key >> MAT_SHIFT]
            for key in events
        ]
        sc, sdata, smove, spop, sdirty, scap = self._shared_view
        smbm = sc.misses_by_matrix
        misses = writebacks = 0
        for _ in range(times):
            events = list(map(add, events, offsets))
            for key in events:
                if key < 0:
                    key = ~key
                    if key in sdata:
                        sdirty.add(key)
                elif key in sdata:
                    smove(key)
                else:
                    misses += 1
                    smbm[key >> MAT_SHIFT] += 1
                    if len(sdata) >= scap:
                        victim = spop(False)[0]
                        if victim in sdirty:
                            sdirty.discard(victim)
                            writebacks += 1
                    sdata[key] = None
        # A reference that did not miss hit.
        sc.hits += times * sum(key >= 0 for key in events) - misses
        sc.misses += misses
        sc.writebacks += writebacks
        return events

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def snapshot(self) -> HierarchyStats:
        """Snapshot the shared and distributed counters into a
        :class:`HierarchyStats` (middle levels: :meth:`level_misses`)."""
        return HierarchyStats(
            shared=self.shared.stats(),
            distributed=[dc.stats() for dc in self.distributed],
        )

    def level_misses(self, level: int) -> int:
        """The most misses of one cache of ``levels[level]`` (the caches
        of a level fill concurrently)."""
        return max(cache.misses for cache in self.levels[level])

    def _caches(self) -> List[Cache]:
        """Every cache, level by level, root first: :meth:`state` order."""
        return [cache for level in self.levels for cache in level]

    def reset(self) -> None:
        """Empty every cache and zero all counters."""
        for cache in self._caches():
            cache.reset()

    def check_inclusion(self) -> bool:
        """Whether every cache's blocks are resident one level up."""
        for outer, inner in zip(self.levels, self.levels[1:]):
            ratio = len(inner) // len(outer)
            for index, cache in enumerate(inner):
                parent = outer[index // ratio]
                if any(key not in parent for key in cache.policy):
                    return False
        return True

    # ------------------------------------------------------------------
    # Renaming (loop fast-forward)
    # ------------------------------------------------------------------
    @property
    def renames(self) -> bool:
        """Whether every cache evolves the same under a renaming of keys.

        Plain LRU and FIFO read keys only through equality, so running a
        renamed reference stream from a renamed state ends in the
        renamed state with the same counters.  Set-associative and PLRU
        caches pick a set from key bits, so renaming changes them.
        """
        return all(
            type(cache.policy) in (LRUCache, FIFOCache) for cache in self._caches()
        )

    def state(self) -> List[Collection[int]]:
        """A copy of each cache's keys in eviction order, and its dirty set."""
        out: List[Collection[int]] = []
        for cache in self._caches():
            out.append(list(cache.policy._data))  # type: ignore[attr-defined]
            out.append(set(cache.dirty))
        return out

    def core_state(
        self, state: Optional[List[Collection[int]]] = None
    ) -> List[Collection[int]]:
        """The core caches' parts of :meth:`state`, by default the live one.

        The shared cache's parts are left empty, so the indices of
        :meth:`still` hold.  Requires :attr:`splits`.
        """
        out: List[Collection[int]] = [[], set()]
        if state is not None:
            return out + state[2:]
        for cache in self.distributed:
            out.append(list(cache.policy._data))  # type: ignore[attr-defined]
            out.append(set(cache.dirty))
        return out

    def counters(self) -> List[int]:
        """Every additive counter, in the order :meth:`advance` reads."""
        out: List[int] = []
        for cache in self._caches():
            out += (cache.hits, cache.misses, cache.writebacks)
            out += cache.misses_by_matrix
        return out

    def still(self, idle: Collection[int]) -> Set[int]:
        """The parts of :meth:`state` that a loop leaves in place.

        ``idle`` are the cores that ran no multiply-add in one iteration
        of a declared loop, so none in any later, translated one.  In
        LRU mode only the multiply-adds of the cores a cache serves
        touch it, unless evictions above it back-invalidate it
        (inclusive), so a cache whose cores were all idle keeps its key
        order and dirty set.
        """
        if self.inclusive:
            return set()
        resting = set(idle)
        out: Set[int] = set()
        index = 0
        for level in self.levels:
            span = self.p // len(level)
            for first in range(0, self.p, span):
                if resting.issuperset(range(first, first + span)):
                    out.update((2 * index, 2 * index + 1))
                index += 1
        return out

    def advance(
        self, delta: Sequence[int], shift: Sequence[int], still: Collection[int]
    ) -> None:
        """Add ``delta`` to :meth:`counters`; move every key by ``shift``.

        The caches whose :meth:`state` parts are in ``still`` keep their
        keys.  Recency and insertion order are kept; requires
        :attr:`renames`.
        """
        deltas = iter(delta)
        for index, cache in enumerate(self._caches()):
            cache.hits += next(deltas)
            cache.misses += next(deltas)
            cache.writebacks += next(deltas)
            by_matrix = cache.misses_by_matrix
            for mat in range(3):
                by_matrix[mat] += next(deltas)
            if 2 * index in still:
                continue
            data = cache.policy._data  # type: ignore[attr-defined]
            moved = shifted(data, shift)
            data.clear()
            data.update(dict.fromkeys(moved))
            _move(cache.dirty, shift)

    def advance_cores(
        self, delta: Sequence[int], shift: Sequence[int], still: Collection[int]
    ) -> None:
        """:meth:`advance` for the core caches alone: the shared cache keeps
        its counters and keys, which :meth:`replay` moves instead.
        Requires :attr:`splits`."""
        # The shared cache's six counters and two state parts come first.
        self.advance([0] * 6 + list(delta[6:]), shift, {0, 1, *still})


def _move(keys: Set[int], shift: Sequence[int]) -> None:
    """Rename a set of keys in place (see :func:`~repro.cache.block.shifted`)."""
    moved = shifted(keys, shift)
    keys.clear()
    keys.update(moved)


#: What the row kernel reads of one LRU cache: the cache, its
#: ``OrderedDict`` with that dict's ``move_to_end`` and ``popitem``, its
#: dirty set and its capacity.
_View = Tuple[
    Cache,
    OrderedDict[int, None],
    Callable[[int], None],
    Callable[[bool], Tuple[int, None]],
    Set[int],
    int,
]


def _view(cache: Cache) -> _View:
    data = cache.policy._data  # type: ignore[attr-defined]
    return cache, data, data.move_to_end, data.popitem, cache.dirty, cache.capacity


class IdealHierarchy:
    """Explicitly controlled hierarchy for the ideal cache model.

    Every data movement is an explicit call:

    * :meth:`load_shared` — memory → shared: counts one shared miss;
    * :meth:`load_distributed` — shared → distributed cache of one core:
      counts one distributed miss for that core;
    * :meth:`evict_shared` / :meth:`evict_distributed` — frees capacity;
      dirty blocks count a write-back;
    * ``dist_dirty[core]`` — the blocks a core's multiply-adds wrote
      (:class:`~repro.sim.contexts.IdealContext` adds each ``C``).

    It counts whatever directives it is given, and trusts them:
    :func:`repro.check.analyze_schedule` proves a schedule's capacity,
    inclusion and presence.
    """

    def __init__(self, p: int) -> None:
        if p < 1:
            raise ConfigurationError(f"need at least one core, got p={p}")
        self.p = p
        self.shared_set: Set[int] = set()
        self.dist_sets: List[Set[int]] = [set() for _ in range(p)]
        self.shared_dirty: Set[int] = set()
        self.dist_dirty: List[Set[int]] = [set() for _ in range(p)]
        # counters
        self.ms = 0
        self.ms_by_matrix = [0, 0, 0]
        self.md = [0] * p
        self.md_by_matrix = [[0, 0, 0] for _ in range(p)]
        self.shared_writebacks = 0
        self.dist_updates = [0] * p
        self.redundant_loads = 0
        self.peak_shared = 0
        self.peak_dist = [0] * p

    # ------------------------------------------------------------------
    # Shared level
    # ------------------------------------------------------------------
    def load_shared(self, key: int) -> None:
        """Load one block from memory into the shared cache (one MS)."""
        sset = self.shared_set
        if key in sset:
            self.redundant_loads += 1
            return
        sset.add(key)
        self.ms += 1
        self.ms_by_matrix[key >> MAT_SHIFT] += 1
        if len(sset) > self.peak_shared:
            self.peak_shared = len(sset)

    def evict_shared(self, key: int) -> None:
        """Remove a block from the shared cache.

        Dirty blocks count one write-back to memory.
        """
        if key in self.shared_dirty:
            self.shared_dirty.discard(key)
            self.shared_writebacks += 1
        self.shared_set.discard(key)

    # ------------------------------------------------------------------
    # Distributed level
    # ------------------------------------------------------------------
    def load_distributed(self, core: int, key: int) -> None:
        """Load one block from shared into ``core``'s cache (one MD)."""
        dset = self.dist_sets[core]
        if key in dset:
            self.redundant_loads += 1
            return
        dset.add(key)
        self.md[core] += 1
        self.md_by_matrix[core][key >> MAT_SHIFT] += 1
        if len(dset) > self.peak_dist[core]:
            self.peak_dist[core] = len(dset)

    def evict_distributed(self, core: int, key: int) -> None:
        """Remove a block from ``core``'s cache.

        A dirty block is pushed back into the shared copy (counted in
        ``dist_updates``; the shared copy becomes dirty).
        """
        if key in self.dist_dirty[core]:
            self.dist_dirty[core].discard(key)
            self.dist_updates[core] += 1
            self.shared_dirty.add(key)
        self.dist_sets[core].discard(key)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def snapshot(self) -> HierarchyStats:
        """Snapshot all counters into a :class:`HierarchyStats`.

        Hits are meaningless under explicit control and reported as 0.
        """
        shared = CacheStats(
            hits=0,
            misses=self.ms,
            writebacks=self.shared_writebacks,
            misses_by_matrix=list(self.ms_by_matrix),
        )
        distributed = [
            CacheStats(
                hits=0,
                misses=self.md[c],
                writebacks=self.dist_updates[c],
                misses_by_matrix=list(self.md_by_matrix[c]),
            )
            for c in range(self.p)
        ]
        return HierarchyStats(shared=shared, distributed=distributed)

    def reset(self) -> None:
        """Empty both levels and zero every counter."""
        self.shared_set.clear()
        self.shared_dirty.clear()
        for dset in self.dist_sets:
            dset.clear()
        for ddirty in self.dist_dirty:
            ddirty.clear()
        self.ms = 0
        self.ms_by_matrix = [0, 0, 0]
        self.md = [0] * self.p
        self.md_by_matrix = [[0, 0, 0] for _ in range(self.p)]
        self.shared_writebacks = 0
        self.dist_updates = [0] * self.p
        self.redundant_loads = 0
        self.peak_shared = 0
        self.peak_dist = [0] * self.p

    # ------------------------------------------------------------------
    # Renaming (loop fast-forward)
    # ------------------------------------------------------------------
    def state(self) -> List[Collection[int]]:
        """A copy of every resident set and dirty set."""
        return [
            set(keys)
            for keys in (
                self.shared_set,
                self.shared_dirty,
                *self.dist_sets,
                *self.dist_dirty,
            )
        ]

    def counters(self) -> List[int]:
        """Every additive counter, in the order :meth:`advance` reads.

        The peaks are not additive: a renamed stretch repeats the
        occupancy of the one it copies, so they stay.
        """
        out = [self.ms, *self.ms_by_matrix]
        out += (self.shared_writebacks, self.redundant_loads)
        out += self.md
        out += self.dist_updates
        for row in self.md_by_matrix:
            out += row
        return out

    def still(self, idle: Collection[int]) -> Set[int]:
        """No part of :meth:`state` stays in place: directives may reach
        a core that runs no multiply-add."""
        return set()

    def advance(
        self, delta: Sequence[int], shift: Sequence[int], still: Collection[int]
    ) -> None:
        """Add ``delta`` to :meth:`counters`; move every key by ``shift``.

        ``still`` is always empty (see :meth:`still`).
        """
        deltas = iter(delta)
        self.ms += next(deltas)
        for mat in range(3):
            self.ms_by_matrix[mat] += next(deltas)
        self.shared_writebacks += next(deltas)
        self.redundant_loads += next(deltas)
        for c in range(self.p):
            self.md[c] += next(deltas)
        for c in range(self.p):
            self.dist_updates[c] += next(deltas)
        for row in self.md_by_matrix:
            for mat in range(3):
                row[mat] += next(deltas)
        for keys in (self.shared_set, self.shared_dirty):
            _move(keys, shift)
        for keys in (*self.dist_sets, *self.dist_dirty):
            _move(keys, shift)
