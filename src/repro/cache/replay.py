"""Trace-compile/replay of IDEAL cells.

The step simulator (:mod:`repro.cache.hierarchy`, driven by
:mod:`repro.sim.contexts`) interprets a schedule one operation at a
time.  For an IDEAL cell this module splits that work in two:

* **compile** — run the schedule once against a recording context and
  keep its access trace (the compute stream and the explicit IDEAL
  directives) as a :class:`CompiledTrace`;
* **replay** — :func:`replay_ideal` evaluates the whole trace in one
  vectorized pass: the directive stream is lowered to numpy arrays
  once per trace, and the per-block state machines of both levels are
  a handful of sorts and cumulative scans instead of millions of
  Python method calls.

The replay is *exact*: every counter of the resulting
:class:`~repro.cache.stats.HierarchyStats` (``ms``, ``md``,
write-backs, per-matrix splits) is bit-identical to the step
simulator's, which the test suite proves on every algorithm at ragged
shapes and on hypothesis-drawn shapes.

Its one production caller is Fig. 12's bandwidth-ratio sweep
(:func:`repro.sim.sweep.ratio_sweep`), which is drawn in IDEAL mode.
:func:`repro.sim.runner.run_experiment` consults one rule,
:func:`replays`: a replay request replays only an IDEAL cell of at
most :data:`STREAM_FMAS` multiply-adds, and every other cell,
LRU-family cells of every policy included, runs on the step engine,
which fast-forwards declared loops and is both faster and leaner there.

Compiling memoizes nothing.  :func:`compiled_trace_for` compiles on
every call unless the on-disk tier (:func:`configure_trace_tier`,
:mod:`repro.cache.tracestore`) holds the schedule's trace.  Cell
results are memoized one level up, in
:func:`repro.sim.runner.run_experiment`, keyed on the
:class:`~repro.algorithms.base.ScheduleKey`, so a ratio sweep's
repeated schedules never reach a trace.

:func:`replay_bulk` and :func:`replay_bulk_streaming` keep the names
(and signatures) of the retired LRU/FIFO kernels because the benchmark
harness times layers by wrapping them; nothing in the package calls
them.  Their bodies feed the step
:class:`~repro.cache.hierarchy.LRUHierarchy`, so they return exactly a
cold step run's counters.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.algorithms.base import Directives, ExecutionContext, MatmulAlgorithm
from repro.cache.block import MAT_SHIFT
from repro.cache.hierarchy import LRUHierarchy
from repro.cache.stats import CacheStats, HierarchyStats
from repro.exceptions import ConfigurationError

#: Directive opcodes in a compiled trace's directive stream.
OP_LOAD_SHARED = 0
OP_EVICT_SHARED = 1
OP_LOAD_DIST = 2
OP_EVICT_DIST = 3


class _Recorder(ExecutionContext):
    """Execution context that records the schedule instead of simulating.

    The compute stream is appended to a flat ``array('q')`` buffer as
    ``(core, akey, bkey, ckey)`` quadruples — the exact touch order of
    the step simulator (A, B, then the written C) — and lowered to one
    ``(n, 4)`` int64 array at compile time.  With ``directives=True``
    the recorder is its own ``directives``, and the schedule's IDEAL
    directives are recorded too, as four parallel int lists timestamped
    with the number of computes already emitted (directive ``t`` sorts
    before compute ``t``).
    """

    def __init__(self, p: int, directives: bool) -> None:
        super().__init__(p)
        self._records_directives = directives
        self._buf: "array[int]" = array("q")
        self._n_fmas = 0
        self.dir_op: List[int] = []
        self.dir_t: List[int] = []
        self.dir_core: List[int] = []
        self.dir_key: List[int] = []

    @property
    def directives(self) -> Optional[Directives]:
        return self if self._records_directives else None

    def _record(self, op: int, core: int, key: int) -> None:
        self.dir_op.append(op)
        self.dir_t.append(self._n_fmas)
        self.dir_core.append(core)
        self.dir_key.append(key)

    def load_shared(self, key: int) -> None:
        self._record(OP_LOAD_SHARED, -1, key)

    def evict_shared(self, key: int) -> None:
        self._record(OP_EVICT_SHARED, -1, key)

    def load_dist(self, core: int, key: int) -> None:
        self._record(OP_LOAD_DIST, core, key)

    def evict_dist(self, core: int, key: int) -> None:
        self._record(OP_EVICT_DIST, core, key)

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        self._buf.extend((core, akey, bkey, ckey))
        self._n_fmas += 1
        self.comp[core] += 1

    def fma_array(self) -> NDArray[np.int64]:
        if self._n_fmas == 0:
            return np.empty((0, 4), dtype=np.int64)
        return np.frombuffer(self._buf, dtype=np.int64).reshape(-1, 4).copy()


def _as_fma_array(fmas: Any) -> NDArray[np.int64]:
    """Coerce a compute stream (array or tuple list) to ``(n, 4)`` int64."""
    if isinstance(fmas, np.ndarray):
        if fmas.ndim != 2 or fmas.shape[1] != 4:
            raise ConfigurationError(
                f"fma array must have shape (n, 4), got {fmas.shape}"
            )
        return fmas
    return np.asarray(list(fmas), dtype=np.int64).reshape(-1, 4)


class CompiledTrace:
    """One schedule's recorded access trace, ready for replay.

    The compute stream lives in :attr:`fma_array` — an ``(n, 4)`` int64
    array of ``(core, akey, bkey, ckey)`` rows, either owned in memory
    or memmapped read-only from the on-disk trace tier (IDEAL replay
    reads its core and C columns only, so a memmap streams from the
    page cache and is shared across processes).  ``origin`` is
    telemetry: where this process got the trace (``"compiled"`` or
    ``"disk"``).
    """

    __slots__ = (
        "p",
        "fma_array",
        "comp",
        "has_directives",
        "origin",
        "_dir_lists",
        "_ideal_arrays",
    )

    def __init__(
        self,
        p: int,
        fmas: Any,
        comp: List[int],
        directives: Optional[Tuple[Any, Any, Any, Any]],
    ) -> None:
        self.p = p
        self.fma_array = _as_fma_array(fmas)
        self.comp = comp
        self.has_directives = directives is not None
        self.origin = "compiled"
        self._dir_lists = directives
        self._ideal_arrays: Optional[Tuple[NDArray[np.int64], ...]] = None

    def __len__(self) -> int:
        return int(self.fma_array.shape[0])

    @property
    def comp_total(self) -> int:
        return sum(self.comp)

    def ideal_arrays(self) -> Tuple[NDArray[np.int64], ...]:
        """The directive/compute streams as int64 arrays (built once).

        Returns ``(op, t, core, key, fma_core, fma_ckey)``; the numpy
        lowering is the expensive part of an IDEAL replay and is cached
        on the trace so repeated replays (sweep families, benchmark
        reruns, conformance checks) pay it once.
        """
        if self._ideal_arrays is None:
            if self._dir_lists is None:
                raise ConfigurationError(
                    "trace was compiled without IDEAL directives; "
                    "recompile with directives=True"
                )
            op, t, core, key = self._dir_lists
            self._ideal_arrays = (
                np.asarray(op, dtype=np.int64),
                np.asarray(t, dtype=np.int64),
                np.asarray(core, dtype=np.int64),
                np.asarray(key, dtype=np.int64),
                np.ascontiguousarray(self.fma_array[:, 0]),
                np.ascontiguousarray(self.fma_array[:, 3]),
            )
        return self._ideal_arrays


def compile_trace(
    algorithm: MatmulAlgorithm, *, directives: bool = True
) -> CompiledTrace:
    """Run ``algorithm`` once and record its trace.

    ``directives=True`` records the explicit IDEAL directives too
    (needed by :func:`replay_ideal`); ``directives=False`` records the
    compute stream only, the form the tier stores for a trace that
    carries no directives.
    """
    recorder = _Recorder(algorithm.machine.p, directives)
    algorithm.run(recorder)
    dirs = (
        (recorder.dir_op, recorder.dir_t, recorder.dir_core, recorder.dir_key)
        if directives
        else None
    )
    return CompiledTrace(
        recorder.p, recorder.fma_array(), list(recorder.comp), dirs
    )


# ----------------------------------------------------------------------
# The engine rule: how large a trace may materialize
# ----------------------------------------------------------------------
#: The largest cell, in FMAs, whose trace
#: :func:`repro.sim.runner.run_experiment` materializes and replays;
#: larger cells run on the step engine.  A materialized IDEAL replay
#: peaks at about 1.3 KB per FMA, because directives outnumber FMAs
#: about 4.5 to 1: one Shared Opt. cell measured 382 MB at order 64 and
#: 2.7 GB at order 128, where the step engine stays near 37 MB (2-vCPU
#: x86-64 host, Python 3.11).
STREAM_FMAS = 4_000_000


def replays(mode: str, n_fmas: int) -> bool:
    """Whether :func:`repro.sim.runner.run_experiment` replays this cell.

    Replay a materialized trace when the cell is an IDEAL cell whose
    ``n_fmas`` multiply-adds are within :data:`STREAM_FMAS`; otherwise
    the step engine runs the cell.  Every LRU-family cell (any policy,
    inclusive or not) runs on step, which fast-forwards it.
    """
    return mode == "ideal" and n_fmas <= STREAM_FMAS


# ----------------------------------------------------------------------
# LRU-family reference bodies (no caller in the package)
# ----------------------------------------------------------------------
def replay_bulk(
    trace: CompiledTrace, cells: Sequence[Tuple[str, int, int]]
) -> List[HierarchyStats]:
    """Exact hierarchy counters of ``trace`` for each ``(policy, cs, cd)``.

    Each cell feeds the trace's compute stream through a fresh step
    :class:`~repro.cache.hierarchy.LRUHierarchy`, so its counters are a
    cold step run's.  Returns one independent snapshot per cell, in
    cell order.
    """
    rows = trace.fma_array.tolist()
    out: List[HierarchyStats] = []
    for policy, cs, cd in cells:
        hierarchy = LRUHierarchy(trace.p, cs, cd, policy=policy)
        touches = hierarchy.compute_touches
        for core, akey, bkey, ckey in rows:
            touches(core, akey, bkey, ckey)
        out.append(hierarchy.snapshot())
    return out


def replay_bulk_streaming(
    algorithm: MatmulAlgorithm, cells: Sequence[Tuple[str, int, int]]
) -> Tuple[List[HierarchyStats], List[int]]:
    """Exact counters for each ``(policy, cs, cd)`` cell, with no trace.

    Runs ``algorithm`` once against a compute-only context that feeds
    each cell's step :class:`~repro.cache.hierarchy.LRUHierarchy`.
    Returns ``(stats, comp)``: ``stats`` in cell order and ``comp`` the
    per-core multiply-add counts.
    """
    # Imported here: repro.sim imports this module.
    from repro.sim.contexts import ChainContext, LRUContext

    p = algorithm.machine.p
    hierarchies = [LRUHierarchy(p, cs, cd, policy=policy) for policy, cs, cd in cells]
    ctx = ChainContext([LRUContext(hierarchy) for hierarchy in hierarchies])
    algorithm.run(ctx)
    return [hierarchy.snapshot() for hierarchy in hierarchies], list(ctx.comp)


# ----------------------------------------------------------------------
# IDEAL-mode replay (vectorized)
# ----------------------------------------------------------------------
def _last_before(
    mask: NDArray[np.bool_],
    idx: NDArray[np.int64],
    seg_first: NDArray[np.int64],
) -> NDArray[np.int64]:
    """Per element: index of the latest earlier element with ``mask`` set
    inside the same segment, or ``-1``."""
    last = np.maximum.accumulate(np.where(mask, idx, np.int64(-1)))
    excl = np.empty_like(last)
    excl[0] = -1
    excl[1:] = last[:-1]
    return np.where(excl >= seg_first, excl, np.int64(-1))


def _group_sort(group: NDArray[np.int64]) -> NDArray[np.int64]:
    """Stable argsort by group id (elements already in time order).

    Packs ``group`` and position into one int64 and sorts it — a single
    ``np.sort`` of scalars is ~10× cheaper than a stable ``argsort``
    here.  Falls back to the stable argsort when packing would overflow.
    """
    n = len(group)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n < (1 << 31) and int(group.max()) < (1 << 31):
        packed = (group << np.int64(31)) | np.arange(n, dtype=np.int64)
        packed.sort()
        return packed & np.int64((1 << 31) - 1)
    return np.argsort(group, kind="stable").astype(np.int64)


def _dense_block_ids(key: NDArray[np.int64]) -> NDArray[np.int64]:
    """Map block keys to small dense ids using their (tag, row, col)
    structure — no sort needed, unlike ``np.unique``."""
    if len(key) == 0:
        return key
    mask = np.int64((1 << 28) - 1)
    tag = key >> np.int64(MAT_SHIFT)
    row = (key >> np.int64(28)) & mask
    col = key & mask
    n_row = np.int64(int(row.max()) + 1)
    n_col = np.int64(int(col.max()) + 1)
    return (tag * n_row + row) * n_col + col


def _time_ordered(
    seq: NDArray[np.int64], n_slots: int
) -> NDArray[np.int64]:
    """Indices that sort ``seq`` ascending, via scatter.

    ``seq`` holds unique interleave ranks ``< n_slots``, so scattering
    into a rank-indexed table and compacting replaces an argsort with
    two elementwise passes.
    """
    table = np.full(n_slots, -1, dtype=np.int64)
    table[seq] = np.arange(len(seq), dtype=np.int64)
    return table[table >= 0]


def replay_ideal(trace: CompiledTrace) -> HierarchyStats:
    """Exact IDEAL-mode counters from one vectorized pass.

    Replays the recorded load/evict directives and compute-writes with
    the semantics of :class:`~repro.cache.hierarchy.IdealHierarchy`:
    redundant loads don't count misses, dirty distributed evictions
    update the shared copy (which becomes dirty), dirty shared
    evictions write back to memory.  Instead of a Python
    call per directive, events are sorted per (cache, block) and the
    per-block state machines are evaluated with cumulative scans.
    IDEAL counters are capacity-independent, a pure function of the
    trace, which is why :func:`repro.sim.runner.run_experiment`
    memoizes them per :class:`~repro.algorithms.base.ScheduleKey`.
    """
    p = trace.p
    op, t, core, key, fma_core, fma_ckey = trace.ideal_arrays()
    n_dir = len(op)
    n_fma = len(fma_core)

    # Global interleave rank: directive d (timestamp t_d) precedes
    # compute i iff t_d <= i, so rank(directive d) = d + t_d and
    # rank(compute i) = i + |{d : t_d <= i}|.
    dir_seq = np.arange(n_dir, dtype=np.int64) + t
    if n_fma:
        d_before = np.cumsum(np.bincount(t, minlength=n_fma + 1)[:n_fma])
        fma_seq = np.arange(n_fma, dtype=np.int64) + d_before
    else:
        fma_seq = np.empty(0, dtype=np.int64)

    # ---------------- distributed level ----------------
    # Events per (core, key): explicit loads/evicts + dirtying writes.
    dl = (op == OP_LOAD_DIST) | (op == OP_EVICT_DIST)
    e_core = np.concatenate([core[dl], fma_core])
    e_key = np.concatenate([key[dl], fma_ckey])
    e_seq = np.concatenate([dir_seq[dl], fma_seq])
    # kinds: 0 = load, 1 = evict, 2 = write
    e_kind = np.concatenate(
        [
            np.where(op[dl] == OP_LOAD_DIST, np.int64(0), np.int64(1)),
            np.full(n_fma, 2, dtype=np.int64),
        ]
    )
    n_slots = n_dir + n_fma
    time_order = _time_ordered(e_seq, n_slots)
    e_core = e_core[time_order]
    e_key = e_key[time_order]
    e_kind = e_kind[time_order]
    e_seq = e_seq[time_order]

    md = [0] * p
    md_by_matrix = [[0, 0, 0] for _ in range(p)]
    dist_updates = [0] * p
    mark_keys = np.empty(0, dtype=np.int64)
    mark_seq = np.empty(0, dtype=np.int64)
    n_ev = len(e_kind)
    if n_ev:
        group = _dense_block_ids(e_key) * np.int64(p) + e_core
        order = _group_sort(group)
        g = group[order]
        k = e_key[order]
        c = e_core[order]
        kind = e_kind[order]
        idx = np.arange(n_ev, dtype=np.int64)
        new = np.empty(n_ev, dtype=bool)
        new[0] = True
        new[1:] = g[1:] != g[:-1]
        seg_first = np.maximum.accumulate(np.where(new, idx, np.int64(0)))
        last_load = _last_before(kind == 0, idx, seg_first)
        last_evict = _last_before(kind == 1, idx, seg_first)
        last_write = _last_before(kind == 2, idx, seg_first)
        resident = last_load > last_evict
        miss = (kind == 0) & ~resident
        mdc = np.bincount(c[miss], minlength=p)
        tags = k >> np.int64(MAT_SHIFT)
        mdm = np.bincount(
            c[miss] * np.int64(3) + tags[miss], minlength=3 * p
        ).reshape(p, 3)
        dirty_evict = (kind == 1) & (last_write > last_evict)
        duc = np.bincount(c[dirty_evict], minlength=p)
        md = [int(x) for x in mdc]
        md_by_matrix = [[int(x) for x in row] for row in mdm]
        dist_updates = [int(x) for x in duc]
        # dirty distributed evictions mark the shared copy dirty
        mark_keys = k[dirty_evict]
        mark_seq = e_seq[order][dirty_evict]

    # ---------------- shared level ----------------
    sl = (op == OP_LOAD_SHARED) | (op == OP_EVICT_SHARED)
    s_key = np.concatenate([key[sl], mark_keys])
    s_seq = np.concatenate([dir_seq[sl], mark_seq])
    # kinds: 0 = load, 1 = evict, 2 = dirty mark
    s_kind = np.concatenate(
        [
            np.where(op[sl] == OP_LOAD_SHARED, np.int64(0), np.int64(1)),
            np.full(len(mark_keys), 2, dtype=np.int64),
        ]
    )
    ms = 0
    ms_by_matrix = [0, 0, 0]
    shared_writebacks = 0
    n_sev = len(s_kind)
    if n_sev:
        time_order = _time_ordered(s_seq, n_slots)
        s_key = s_key[time_order]
        s_kind = s_kind[time_order]
        group = _dense_block_ids(s_key)
        order = _group_sort(group)
        g = group[order]
        k = s_key[order]
        kind = s_kind[order]
        idx = np.arange(n_sev, dtype=np.int64)
        new = np.empty(n_sev, dtype=bool)
        new[0] = True
        new[1:] = g[1:] != g[:-1]
        seg_first = np.maximum.accumulate(np.where(new, idx, np.int64(0)))
        last_load = _last_before(kind == 0, idx, seg_first)
        last_evict = _last_before(kind == 1, idx, seg_first)
        last_mark = _last_before(kind == 2, idx, seg_first)
        resident = last_load > last_evict
        miss = (kind == 0) & ~resident
        ms = int(miss.sum())
        tags = k >> np.int64(MAT_SHIFT)
        ms_by_matrix = [
            int(x) for x in np.bincount(tags[miss], minlength=3)
        ]
        dirty_evict = (kind == 1) & (last_mark > last_evict)
        shared_writebacks = int(dirty_evict.sum())

    return HierarchyStats(
        shared=CacheStats(0, ms, shared_writebacks, ms_by_matrix),
        distributed=[
            CacheStats(0, md[c], dist_updates[c], md_by_matrix[c])
            for c in range(p)
        ],
    )


# ----------------------------------------------------------------------
# The on-disk trace tier
# ----------------------------------------------------------------------
#: Root of the on-disk content-addressed trace tier, or ``None`` when
#: disabled (see :func:`configure_trace_tier`).
_TRACE_TIER: Optional[str] = None


def configure_trace_tier(root: Optional[str]) -> None:
    """Enable (or disable, with ``None``) the on-disk trace tier.

    When set, :func:`compiled_trace_for` consults
    :mod:`repro.cache.tracestore` under ``root`` before compiling and
    stores freshly compiled traces there, so a later process memmaps a
    trace instead of recompiling it.  Only replay cells compile
    traces, and no sweep executor replays: the tier serves the calling
    process (``repro-mmm figure fig12 --trace-tier``).
    """
    global _TRACE_TIER
    _TRACE_TIER = root


def trace_tier_root() -> Optional[str]:
    """The configured on-disk trace tier root (``None`` when disabled)."""
    return _TRACE_TIER


def compiled_trace_for(algorithm: MatmulAlgorithm) -> CompiledTrace:
    """``algorithm``'s trace, directives included: the tier's entry, or a
    fresh compile.

    With a tier configured, an entry under the algorithm's
    :meth:`~repro.algorithms.base.MatmulAlgorithm.schedule_key` that
    carries directives is returned as is.  Otherwise (no entry, or one
    stored without directives) the trace is compiled and, with a tier
    configured, stored to it, overwriting the entry.  The key holds
    what the emitted trace depends on, so the machines of a
    bandwidth-ratio sweep share one entry while Tradeoff's
    ``(α, β, µ)`` stays put.  Nothing is kept in memory: the result
    memo of :func:`repro.sim.runner.run_experiment` answers repeated
    cells before a trace is asked for.  ``trace.origin`` records where
    this call got the trace (telemetry).
    """
    from repro.cache import tracestore

    key = algorithm.schedule_key()
    if _TRACE_TIER is not None:
        loaded = tracestore.load(_TRACE_TIER, key)
        if loaded is not None and loaded.has_directives:
            loaded.origin = "disk"
            return loaded
    trace = compile_trace(algorithm)
    if _TRACE_TIER is not None:
        tracestore.store(_TRACE_TIER, key, trace)
    return trace
