"""The two-level cache hierarchy of the paper, in both simulator modes.

Two classes mirror the two modes of the paper's simulator (§4.1):

* :class:`LRUHierarchy` — "read and write operations are made at the
  distributed cache level (top of hierarchy); if a miss occurs,
  operations are propagated throughout the hierarchy until a cache hit
  happens."  Replacement is automatic (LRU by default, FIFO available
  for ablations).  Explicit load/evict directives from algorithms are
  ignored in this mode.

* :class:`IdealHierarchy` — "the user manually decides which data needs
  to be loaded/unloaded in a given cache; I/O operations are not
  propagated throughout the hierarchy in case of a cache miss: it is the
  user responsibility to guarantee that a given data is present in every
  cache below the target cache."  With ``check=True`` the hierarchy
  *verifies* that responsibility: capacity overflows, inclusion
  violations and computes on absent blocks raise instead of being
  silently miscounted.

Both expose the same statistics surface
(:class:`repro.cache.stats.HierarchyStats`) so the simulation engine is
mode-agnostic, and the same renaming surface (``state``, ``counters``,
``advance``) through which :mod:`repro.sim.contexts` fast-forwards a
schedule's periodic loops.
"""

from __future__ import annotations

from typing import Collection, List, Sequence, Set

from repro.cache.block import MAT_SHIFT, key_name, shifted
from repro.cache.cache import Cache
from repro.cache.lru import FIFOCache, LRUCache
from repro.cache.stats import CacheStats, HierarchyStats
from repro.exceptions import (
    CapacityError,
    ConfigurationError,
    InclusionError,
    PresenceError,
)


class LRUHierarchy:
    """Shared cache + ``p`` distributed caches with automatic replacement.

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
        When ``True``, evicting a block from the shared cache
        back-invalidates any distributed copy, enforcing the paper's
        inclusivity assumption.  When ``False`` (default, and what a
        straightforward two-level LRU does), inner copies may outlive
        the shared one.
    """

    def __init__(
        self,
        p: int,
        cs: int,
        cd: int,
        policy: str = "lru",
        inclusive: bool = False,
    ) -> None:
        if p < 1:
            raise ConfigurationError(f"need at least one core, got p={p}")
        self.p = p
        self.policy_name = policy
        self.inclusive = inclusive
        self.shared = Cache("shared", cs, policy)
        self.distributed = [Cache(f"distributed[{c}]", cd, policy) for c in range(p)]
        # The specialized fast path manipulates the LRU OrderedDicts
        # directly; it is only valid for plain non-inclusive LRU.
        self._fast = policy == "lru" and not inclusive

    # ------------------------------------------------------------------
    # Generic (policy-agnostic) access path
    # ------------------------------------------------------------------
    def touch(self, core: int, key: int, write: bool = False) -> bool:
        """One reference by ``core`` to ``key``; returns distributed-hit.

        A distributed miss is propagated to the shared cache; a shared
        miss loads from memory.  Writes mark the block dirty at the
        distributed level.  A dirty victim evicted from the distributed
        cache is written back into its shared copy, which becomes dirty
        (mirroring :meth:`IdealHierarchy.evict_distributed`); if the
        shared cache no longer holds the block, the write-back goes
        straight to memory and was already counted at the distributed
        level.
        """
        hit, victim, victim_dirty = self.distributed[core].access(key, write)
        if victim is not None and victim_dirty and victim in self.shared:
            self.shared.dirty.add(victim)
        if hit:
            return True
        s_hit, s_victim, _ = self.shared.access(key)
        if s_victim is not None and self.inclusive:
            for dc in self.distributed:
                dc.invalidate(s_victim)
        return False

    def compute_touches(self, core: int, akey: int, bkey: int, ckey: int) -> None:
        """The three references of one block multiply-add ``C += A·B``.

        This is the innermost simulator operation.  When the hierarchy
        runs plain non-inclusive LRU, the logic of :meth:`touch` is
        inlined over the ``OrderedDict`` internals; tests assert that
        this fast path and three :meth:`touch` calls produce identical
        statistics.
        """
        if not self._fast:
            self.touch(core, akey)
            self.touch(core, bkey)
            self.touch(core, ckey, write=True)
            return

        dc = self.distributed[core]
        ddata = dc.policy._data  # type: ignore[attr-defined]
        dcap = dc.capacity
        ddirty = dc.dirty
        dmbm = dc.misses_by_matrix
        sc = self.shared
        sdata = sc.policy._data  # type: ignore[attr-defined]
        scap = sc.capacity
        sdirty = sc.dirty
        smbm = sc.misses_by_matrix

        for key in (akey, bkey, ckey):
            if key in ddata:
                ddata.move_to_end(key)
                dc.hits += 1
            else:
                dc.misses += 1
                dmbm[key >> MAT_SHIFT] += 1
                if len(ddata) >= dcap:
                    victim = ddata.popitem(last=False)[0]
                    if victim in ddirty:
                        ddirty.discard(victim)
                        dc.writebacks += 1
                        if victim in sdata:
                            sdirty.add(victim)
                ddata[key] = None
                # propagate to shared
                if key in sdata:
                    sdata.move_to_end(key)
                    sc.hits += 1
                else:
                    sc.misses += 1
                    smbm[key >> MAT_SHIFT] += 1
                    if len(sdata) >= scap:
                        s_victim = sdata.popitem(last=False)[0]
                        if s_victim in sdirty:
                            sdirty.discard(s_victim)
                            sc.writebacks += 1
                    sdata[key] = None
        ddirty.add(ckey)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def snapshot(self) -> HierarchyStats:
        """Snapshot all counters into a :class:`HierarchyStats`."""
        return HierarchyStats(
            shared=self.shared.stats(),
            distributed=[dc.stats() for dc in self.distributed],
        )

    def reset(self) -> None:
        """Empty every cache and zero all counters."""
        self.shared.reset()
        for dc in self.distributed:
            dc.reset()

    def check_inclusion(self) -> bool:
        """Whether every distributed-resident block is shared-resident."""
        return all(
            key in self.shared for dc in self.distributed for key in dc.policy
        )

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
            type(cache.policy) in (LRUCache, FIFOCache)
            for cache in (self.shared, *self.distributed)
        )

    def state(self) -> List[Collection[int]]:
        """A copy of each cache's keys in eviction order, and its dirty set."""
        out: List[Collection[int]] = []
        for cache in (self.shared, *self.distributed):
            out.append(list(cache.policy._data))  # type: ignore[attr-defined]
            out.append(set(cache.dirty))
        return out

    def counters(self) -> List[int]:
        """Every additive counter, in the order :meth:`advance` reads."""
        out: List[int] = []
        for cache in (self.shared, *self.distributed):
            out += (cache.hits, cache.misses, cache.writebacks)
            out += cache.misses_by_matrix
        return out

    def still(self, idle: Collection[int]) -> Set[int]:
        """The parts of :meth:`state` that a loop leaves in place.

        ``idle`` are the cores that ran no multiply-add in one iteration
        of a declared loop, so none in any later, translated one.  In
        LRU mode only a core's own multiply-adds touch its distributed
        cache, unless shared evictions back-invalidate it (inclusive),
        so an idle core's key order and dirty set stay as they are.
        """
        if self.inclusive:
            return set()
        return {part for core in idle for part in (2 * core + 2, 2 * core + 3)}

    def advance(
        self, delta: Sequence[int], shift: Sequence[int], still: Collection[int]
    ) -> None:
        """Add ``delta`` to :meth:`counters`; move every key by ``shift``.

        The caches whose :meth:`state` parts are in ``still`` keep their
        keys.  Recency and insertion order are kept; requires
        :attr:`renames`.
        """
        deltas = iter(delta)
        for index, cache in enumerate((self.shared, *self.distributed)):
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


def _move(keys: Set[int], shift: Sequence[int]) -> None:
    """Rename a set of keys in place (see :func:`~repro.cache.block.shifted`)."""
    moved = shifted(keys, shift)
    keys.clear()
    keys.update(moved)


class IdealHierarchy:
    """Explicitly controlled hierarchy for the ideal cache model.

    Every data movement is an explicit call:

    * :meth:`load_shared` — memory → shared: counts one shared miss;
    * :meth:`load_distributed` — shared → distributed cache of one core:
      counts one distributed miss for that core;
    * :meth:`evict_shared` / :meth:`evict_distributed` — frees capacity;
      dirty blocks count a write-back;
    * :meth:`mark_dirty` — flags a resident block as modified.

    With ``check=True`` (the default — disable only in throughput
    benchmarks) the hierarchy raises
    :class:`~repro.exceptions.CapacityError` on overflow,
    :class:`~repro.exceptions.InclusionError` when the inclusive-cache
    invariant would break, and :meth:`assert_present` raises
    :class:`~repro.exceptions.PresenceError` for computes on absent
    blocks.
    """

    def __init__(self, p: int, cs: int, cd: int, check: bool = True) -> None:
        if p < 1:
            raise ConfigurationError(f"need at least one core, got p={p}")
        self.p = p
        self.cs = cs
        self.cd = cd
        self.check = check
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
        if self.check and len(sset) >= self.cs:
            raise CapacityError(
                f"shared cache overflow loading {key_name(key)}: "
                f"{len(sset)}/{self.cs} blocks resident"
            )
        sset.add(key)
        self.ms += 1
        self.ms_by_matrix[key >> MAT_SHIFT] += 1
        if len(sset) > self.peak_shared:
            self.peak_shared = len(sset)

    def evict_shared(self, key: int) -> None:
        """Remove a block from the shared cache.

        Dirty blocks count one write-back to memory.  In checked mode,
        evicting a block still held by a distributed cache violates
        inclusivity and raises.
        """
        if self.check:
            for c, dset in enumerate(self.dist_sets):
                if key in dset:
                    raise InclusionError(
                        f"evicting {key_name(key)} from shared cache while "
                        f"core {c} still holds it"
                    )
        if key in self.shared_dirty:
            self.shared_dirty.discard(key)
            self.shared_writebacks += 1
        self.shared_set.discard(key)

    def mark_shared_dirty(self, key: int) -> None:
        """Flag a shared-resident block as modified."""
        if self.check and key not in self.shared_set:
            raise PresenceError(f"{key_name(key)} not in shared cache")
        self.shared_dirty.add(key)

    # ------------------------------------------------------------------
    # Distributed level
    # ------------------------------------------------------------------
    def load_distributed(self, core: int, key: int) -> None:
        """Load one block from shared into ``core``'s cache (one MD)."""
        dset = self.dist_sets[core]
        if key in dset:
            self.redundant_loads += 1
            return
        if self.check:
            if key not in self.shared_set:
                raise InclusionError(
                    f"core {core} loads {key_name(key)} absent from shared cache"
                )
            if len(dset) >= self.cd:
                raise CapacityError(
                    f"distributed cache of core {core} overflow loading "
                    f"{key_name(key)}: {len(dset)}/{self.cd} blocks resident"
                )
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

    def mark_distributed_dirty(self, core: int, key: int) -> None:
        """Flag a block in ``core``'s cache as modified."""
        if self.check and key not in self.dist_sets[core]:
            raise PresenceError(
                f"{key_name(key)} not in distributed cache of core {core}"
            )
        self.dist_dirty[core].add(key)

    def assert_present(self, core: int, akey: int, bkey: int, ckey: int) -> None:
        """Verify the three operands of a multiply-add are core-resident."""
        dset = self.dist_sets[core]
        for key in (akey, bkey, ckey):
            if key not in dset:
                raise PresenceError(
                    f"compute on core {core} touches {key_name(key)} which was "
                    "never loaded into its distributed cache"
                )

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

    def check_inclusion(self) -> bool:
        """Whether every distributed-resident block is shared-resident."""
        return all(
            key in self.shared_set for dset in self.dist_sets for key in dset
        )

    def resident_shared(self) -> int:
        """Blocks currently resident in the shared cache."""
        return len(self.shared_set)

    def resident_distributed(self, core: int) -> int:
        """Blocks currently resident in ``core``'s distributed cache."""
        return len(self.dist_sets[core])

    # ------------------------------------------------------------------
    # Renaming (loop fast-forward; unchecked mode only)
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
