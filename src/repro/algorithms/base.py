"""Algorithm/context interface: one schedule, many interpreters.

The paper's algorithms are *schedules*: an order of explicit cache
movements and elementary block multiply-adds.  We express each schedule
once, as a ``run(ctx)`` method emitting operations against an
:class:`ExecutionContext`, and plug in different contexts:

* an LRU counting context (no directives: every compute touches the
  hierarchy — the paper's LRU simulator mode);
* an IDEAL counting context (directives drive the explicitly-controlled
  hierarchy, optionally verifying capacity/inclusion/presence);
* a numeric context (no directives: every compute performs the real
  block arithmetic so the schedule's correctness is provable);
* a chain context fanning out to several of the above at once.

A context that honours the IDEAL mode's load/evict directives offers
them as :attr:`ExecutionContext.directives`, a :class:`Directives`;
every other context leaves it ``None``.  Schedules hoist
``d = ctx.directives`` and emit under ``if d is not None:``, so the
(very hot) LRU and numeric paths make no directive calls, and a
directive emitted outside the guard fails on the first LRU or numeric
run (and under strict mypy).  ``compute`` is always emitted.  Per-core
compute counters live in the context because the
communication-to-computation ratios of the paper normalize by them.

Schedules iterate their periodic loops through
:meth:`ExecutionContext.loop` (or :func:`tile_loop` for tile loops with
a ragged edge), declaring how keys move from one iteration to the next.
The counting contexts of :mod:`repro.sim.contexts` use the declaration
to skip iterations exactly; every other context iterates plainly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C
from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine

#: Per-matrix key offsets ``(A, B, C)`` from one iteration of a declared
#: loop to the next (see :meth:`ExecutionContext.loop`).
Shift = Tuple[int, int, int]


class Directives(Protocol):
    """The IDEAL mode's explicit cache movements (paper §4.1)."""

    def load_shared(self, key: int) -> None:
        """Load ``key`` from memory into the shared cache."""

    def evict_shared(self, key: int) -> None:
        """Evict ``key`` from the shared cache."""

    def load_dist(self, core: int, key: int) -> None:
        """Load ``key`` from shared into ``core``'s cache."""

    def evict_dist(self, core: int, key: int) -> None:
        """Evict ``key`` from ``core``'s cache."""


class ExecutionContext(ABC):
    """Interpreter of an algorithm's schedule.

    Attributes
    ----------
    p:
        Number of cores; schedules may only use core ids ``0..p-1``.
    comp:
        Per-core count of elementary block multiply-adds, which every
        ``compute`` implementation must maintain.
    """

    def __init__(self, p: int) -> None:
        if p < 1:
            raise ConfigurationError(f"need at least one core, got p={p}")
        self.p = p
        self.comp: List[int] = [0] * p

    @property
    def directives(self) -> Optional[Directives]:
        """The cache directives the context honours, or ``None`` when it
        has none (LRU, numeric and reference-recording contexts); a
        schedule then emits none.

        A context that is its own directives overrides this property to
        return itself: an attribute holding ``self`` would be a
        reference cycle, keeping the context and its state alive after
        its run until the cyclic garbage collector finds it.
        """
        return None

    # -- the universal hot operation -----------------------------------
    @abstractmethod
    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        """One elementary block multiply-add ``C[c] += A[a] · B[b]``."""

    def compute_row(
        self, core: int, crow: int, akey: int, brow: int, cols: Sequence[int]
    ) -> None:
        """The multiply-adds ``C[crow | j] += A[akey] · B[brow | j]``.

        One :meth:`compute` per ``j`` in ``cols``, in order: a row of
        ``C`` blocks against one ``A`` block and a row of ``B`` blocks,
        the innermost loop of every schedule.  A context may run the row
        in one call (see :class:`repro.sim.contexts.LRUContext`).
        """
        compute = self.compute
        for j in cols:
            compute(core, crow | j, akey, brow | j)

    # -- declared periodic loops ----------------------------------------
    def loop(self, iterations: range, shift: Shift) -> Iterable[int]:
        """Iterate over a loop whose iterations are translates of each other.

        The schedule promises that iteration ``i + 1`` emits exactly
        what iteration ``i`` emits, directives included, with every key
        of matrix ``M`` moved by ``shift[M]``: ``(1, 1 << ROW_SHIFT, 0)``
        for a ``k`` loop, where A's column and B's row advance and C
        stays.  Declare full iterations only; a ragged last iteration
        runs outside (see :func:`tile_loop`).  The counting contexts
        use the promise to skip iterations whose effect they can
        predict exactly; every other context iterates plainly.
        """
        return iterations

    @property
    def comp_total(self) -> int:
        """Total elementary multiply-adds across all cores."""
        return sum(self.comp)


class NullContext(ExecutionContext):
    """Counts computes and nothing else (scheduling dry-runs, tests)."""

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        self.comp[core] += 1


@dataclass(frozen=True)
class ScheduleKey:
    """Everything one algorithm instance's emitted schedule depends on.

    Two instances with equal keys emit the same directives and
    multiply-adds in the same order, so every counter the simulator
    produces is the same function of the simulated hierarchy for both.
    The key holds the registered name, the core count, the shape and the
    ``plan``: the sorted items of :meth:`MatmulAlgorithm.plan`.  It
    leaves out what only feeds the planning (bandwidths, a capacity the
    plan does not read) and informational entries of
    :meth:`MatmulAlgorithm.parameters`, so a Fig. 12 ratio sweep maps
    its 19 machines per preset onto a handful of keys.  Compiled traces
    (:mod:`repro.cache.replay`, on disk through its deterministic
    ``repr``) and memoized cell results (:mod:`repro.sim.runner`) are
    keyed on it; checkpoint identity is not (see
    :class:`repro.store.checkpoint.CellKey`).
    """

    algorithm: str
    p: int
    m: int
    n: int
    z: int
    plan: Tuple[Tuple[str, Any], ...]


class MatmulAlgorithm(ABC):
    """Base class of the six schedules.

    Subclasses compute their tile parameters at construction (raising
    :class:`~repro.exceptions.ParameterError` /
    :class:`~repro.exceptions.ConfigurationError` for impossible
    machines) and implement :meth:`run`.

    The matrix dimensions are in *blocks*: ``A`` is ``m × z``, ``B`` is
    ``z × n``, ``C`` is ``m × n``.  Schedules must handle arbitrary
    positive dimensions (ragged edge tiles); the paper's closed-form
    miss counts are exact only when the tile sides divide the
    dimensions, which the analysis and tests account for.
    """

    #: Stable identifier used by the registry, the CLI and reports.
    name: ClassVar[str] = "abstract"
    #: Pretty label as used in the paper's figures.
    label: ClassVar[str] = "Abstract"
    #: Whether the schedule lays cores on a square grid (needs square p).
    requires_square_grid: ClassVar[bool] = False
    #: Whether the schedule carries explicit IDEAL-mode cache directives.
    #: Compute-only schedules (counted through LRU/tree contexts) set
    #: this to False; the runner then refuses the ``ideal`` setting
    #: instead of silently reporting zero misses.
    supports_ideal: ClassVar[bool] = True

    def __init__(self, machine: MulticoreMachine, m: int, n: int, z: int) -> None:
        if m < 1 or n < 1 or z < 1:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got m={m}, n={n}, z={z}"
            )
        if self.requires_square_grid and not machine.is_square_grid:
            raise ConfigurationError(
                f"{self.name} lays cores on a square grid; p={machine.p} "
                "is not a perfect square"
            )
        self.machine = machine
        self.m = m
        self.n = n
        self.z = z

    @abstractmethod
    def run(self, ctx: ExecutionContext) -> None:
        """Emit the full schedule for ``C = A × B`` against ``ctx``."""

    def parameters(self) -> Dict[str, Any]:
        """The tile parameters the schedule runs with (for reports)."""
        return {}

    def plan(self) -> Dict[str, Any]:
        """What :meth:`run` reads besides ``p`` and the shape.

        Each schedule declares the resolved tile parameters its emitted
        operations depend on, and nothing informational: unlike
        :meth:`parameters` this is an identity (:meth:`schedule_key`),
        so an entry missing here would let two different schedules share
        one compiled trace and one memoized result.  The default suits
        schedules that read only ``p`` and the shape.
        """
        return {}

    def schedule_key(self) -> ScheduleKey:
        """The identity of the schedule :meth:`run` emits."""
        return ScheduleKey(
            self.name,
            self.machine.p,
            self.m,
            self.n,
            self.z,
            tuple(sorted(self.plan().items())),
        )

    @property
    def comp_total(self) -> int:
        """Elementary multiply-adds any correct schedule must emit."""
        return self.m * self.n * self.z

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v}" for k, v in self.parameters().items())
        return (
            f"{type(self).__name__}(m={self.m}, n={self.n}, z={self.z}"
            + (f", {params}" if params else "")
            + ")"
        )

    # ------------------------------------------------------------------
    # Shared helpers for schedules
    # ------------------------------------------------------------------
    @staticmethod
    def a_key(i: int, k: int) -> int:
        """Key of block ``A[i, k]`` (row ``i`` of ``A``, column ``k``)."""
        return block_key(MAT_A, i, k)

    @staticmethod
    def b_key(k: int, j: int) -> int:
        """Key of block ``B[k, j]``."""
        return block_key(MAT_B, k, j)

    @staticmethod
    def c_key(i: int, j: int) -> int:
        """Key of block ``C[i, j]``."""
        return block_key(MAT_C, i, j)

    @staticmethod
    def split_evenly(lo: int, hi: int, parts: int) -> List[range]:
        """Split ``range(lo, hi)`` into ``parts`` contiguous chunks.

        Chunk sizes differ by at most one (the first ``extra`` chunks
        are longer); empty chunks are possible when the range is shorter
        than ``parts``.  Used to deal rows/columns of a tile out to
        cores, e.g. Algorithm 1's ``λ/p`` sub-rows.
        """
        total = hi - lo
        base, extra = divmod(total, parts)
        chunks: List[range] = []
        start = lo
        for c in range(parts):
            size = base + (1 if c < extra else 0)
            chunks.append(range(start, start + size))
            start += size
        return chunks


def tile_loop(
    ctx: ExecutionContext, extent: int, tile: int, shift: Shift
) -> Iterable[int]:
    """Start offsets of consecutive tiles of side ``tile`` over ``extent``.

    The full tiles form a loop declared to ``ctx`` with ``shift``; a
    ragged last tile follows undeclared.
    """
    full = extent - extent % tile
    return chain(ctx.loop(range(0, full, tile), shift), range(full, extent, tile))
