"""Reference algorithms — *Shared Equal* and *Distributed Equal*.

The paper's second baseline (§4.1) is "inspired by [Toledo's out-of-core
survey]": the target cache is split in three equal parts, one per
matrix, and the product proceeds over square ``t × t`` tiles with
``3t² ≤ Z``.  Unlike the Maximum Reuse family, no matrix is favoured —
which is precisely why it "does not use the memory optimally": the tile
side is ``√(Z/3)`` instead of ``≈ √Z``.

Two variants, as in the paper:

* :class:`SharedEqual` sizes ``t`` to the shared cache.  The ``C`` tile
  is pinned in the shared cache while ``A``/``B`` tiles stream through;
  tile-row fragments are dealt to the cores like Algorithm 1 does.
  Closed form (exact under divisibility): ``MS = mn + 2mnz/t`` with
  ``t = ⌊√(CS/3)⌋``.
* :class:`DistributedEqual` sizes ``t`` to the distributed caches.  Each
  core independently processes its own share of ``C`` tiles, pinning a
  tile triple in its private cache; no inter-core sharing is attempted.
  Closed form: ``MD = mn/p + 2mnz/(p·t)`` with ``t = ⌊√(CD/3)⌋`` and
  ``MS = mn + 2mnz/t``.

These closed forms are *our* derivations (the paper only describes the
allocation scheme); they are validated against the simulator in
``tests/analysis/test_formula_vs_sim.py``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm, tile_loop
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT
from repro.exceptions import ParameterError
from repro.model.machine import MulticoreMachine


def equal_tile(capacity: int) -> int:
    """Largest ``t`` with ``3t² ≤ capacity`` (the equal-thirds tile)."""
    if capacity < 3:
        raise ParameterError(
            f"capacity {capacity} cannot hold one block of each matrix"
        )
    t = math.isqrt(capacity // 3)
    return max(t, 1)


class SharedEqual(MatmulAlgorithm):
    """Toledo-style equal-thirds allocation of the shared cache."""

    name = "shared-equal"
    label = "Shared Equal"

    def __init__(
        self,
        machine: MulticoreMachine,
        m: int,
        n: int,
        z: int,
        t: Optional[int] = None,
    ) -> None:
        super().__init__(machine, m, n, z)
        if t is None:
            t = equal_tile(machine.cs)
        if t < 1 or 3 * t * t > machine.cs:
            raise ParameterError(f"t={t} violates 3t² <= CS={machine.cs}")
        self.t = t

    def parameters(self) -> Dict[str, Any]:
        return {"t": self.t}

    def plan(self) -> Dict[str, Any]:
        return {"t": self.t}

    def run(self, ctx: ExecutionContext) -> None:
        p = ctx.p
        m, n, z = self.m, self.n, self.z
        t = self.t
        d = ctx.directives
        compute = ctx.compute
        compute_row = ctx.compute_row
        RS = ROW_SHIFT

        for i0 in tile_loop(ctx, m, t, (t << RS, 0, t << RS)):
            hi = min(i0 + t, m)
            for j0 in tile_loop(ctx, n, t, (0, t, t)):
                wj = min(j0 + t, n)
                if d is not None:
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            d.load_shared(crow | j)
                chunks = self.split_evenly(i0, hi, p)
                for k0 in tile_loop(ctx, z, t, (t, t << RS, 0)):
                    kh = min(k0 + t, z)
                    if d is not None:
                        for i in range(i0, hi):
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                d.load_shared(arow | k)
                        for k in range(k0, kh):
                            brow = B_BASE | (k << RS)
                            for j in range(j0, wj):
                                d.load_shared(brow | j)
                    # Tile rows are dealt to cores; the inner streaming
                    # mirrors Algorithm 1 (hold a, stream B/C pairs).
                    for core in range(p):
                        for i in chunks[core]:
                            crow = C_BASE | (i << RS)
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                ka = arow | k
                                brow = B_BASE | (k << RS)
                                if d is not None:
                                    d.load_dist(core, ka)
                                    for j in range(j0, wj):
                                        kb = brow | j
                                        kc = crow | j
                                        d.load_dist(core, kb)
                                        d.load_dist(core, kc)
                                        compute(core, kc, ka, kb)
                                        d.evict_dist(core, kb)
                                        d.evict_dist(core, kc)
                                    d.evict_dist(core, ka)
                                else:
                                    compute_row(core, crow, ka, brow, range(j0, wj))
                    if d is not None:
                        for i in range(i0, hi):
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                d.evict_shared(arow | k)
                        for k in range(k0, kh):
                            brow = B_BASE | (k << RS)
                            for j in range(j0, wj):
                                d.evict_shared(brow | j)
                if d is not None:
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            d.evict_shared(crow | j)


class DistributedEqual(MatmulAlgorithm):
    """Toledo-style equal-thirds allocation of each distributed cache.

    ``C`` tiles (side ``t``, ``3t² ≤ CD``) are dealt round-robin to the
    cores; each core pins its current ``(C, A, B)`` tile triple in its
    private cache.  Cores are interleaved at the ``k``-step granularity
    to approximate concurrent execution in LRU mode.  Groups of whole
    rounds that are also whole tile rows form a declared loop, so the
    counting contexts can skip most of them.
    """

    name = "distributed-equal"
    label = "Distributed Equal"

    def __init__(
        self,
        machine: MulticoreMachine,
        m: int,
        n: int,
        z: int,
        t: Optional[int] = None,
    ) -> None:
        super().__init__(machine, m, n, z)
        if t is None:
            t = equal_tile(machine.cd)
        if t < 1 or 3 * t * t > machine.cd:
            raise ParameterError(f"t={t} violates 3t² <= CD={machine.cd}")
        self.t = t

    def parameters(self) -> Dict[str, Any]:
        return {"t": self.t}

    def plan(self) -> Dict[str, Any]:
        return {"t": self.t}

    def run(self, ctx: ExecutionContext) -> None:
        p = ctx.p
        m, n, t = self.m, self.n, self.t
        # Tiles are numbered row-major, ``per_row`` to a tile row, and
        # dealt round-robin in rounds of ``p``.  A round can wrap across
        # tile rows, so rounds are no translates of each other; but
        # lcm(p, per_row) tiles are both whole rounds and ``rows`` whole
        # tile rows, so groups of that many full tile rows are.
        per_row = -(-n // t)
        total = -(-m // t) * per_row
        group = math.lcm(p, per_row)
        rows = group // per_row * t
        shift = (rows << ROW_SHIFT, 0, rows << ROW_SHIFT)
        groups = m // rows
        for g in ctx.loop(range(groups), shift):
            for r0 in range(g * group, (g + 1) * group, p):
                self._round(ctx, r0, r0 + p, per_row)
        # The leftover tile rows, the ragged one included, run plainly.
        for r0 in range(groups * group, total, p):
            self._round(ctx, r0, min(r0 + p, total), per_row)

    def _round(self, ctx: ExecutionContext, first: int, stop: int, per_row: int) -> None:
        """Tiles ``first .. stop - 1``, one per core, over every ``k0`` slab."""
        m, n, z = self.m, self.n, self.z
        t = self.t
        d = ctx.directives
        compute_row = ctx.compute_row
        RS = ROW_SHIFT

        round_tiles = []
        for index in range(first, stop):
            i0 = index // per_row * t
            j0 = index % per_row * t
            round_tiles.append((i0, min(i0 + t, m), j0, min(j0 + t, n)))
        # Each tile row a core owns, in emission order: its core, C row,
        # A row and columns.  Every k0 slab runs them all.
        rows = [
            (core, C_BASE | (i << RS), A_BASE | (i << RS), range(j0, wj))
            for core, (i0, hi, j0, wj) in enumerate(round_tiles)
            for i in range(i0, hi)
        ]
        if d is not None:
            for core, crow, _, cols in rows:
                for j in cols:
                    key = crow | j
                    d.load_shared(key)
                    d.load_dist(core, key)
        # Full k0 slabs within a round are translates of each other.
        for k0 in tile_loop(ctx, z, t, (t, t << RS, 0)):
            kh = min(k0 + t, z)
            step_keys: Dict[int, None] = {}
            if d is not None:
                # Different cores of a round may need the same A (or
                # B) tile; load each distinct block into the shared
                # cache once and evict them in load order, so that
                # consecutive slabs emit the same directives, shifted.
                for core, (i0, hi, j0, wj) in enumerate(round_tiles):
                    for i in range(i0, hi):
                        arow = A_BASE | (i << RS)
                        for k in range(k0, kh):
                            key = arow | k
                            if key not in step_keys:
                                step_keys[key] = None
                                d.load_shared(key)
                            d.load_dist(core, key)
                    for k in range(k0, kh):
                        brow = B_BASE | (k << RS)
                        for j in range(j0, wj):
                            key = brow | j
                            if key not in step_keys:
                                step_keys[key] = None
                                d.load_shared(key)
                            d.load_dist(core, key)
            brows = [(k, B_BASE | (k << RS)) for k in range(k0, kh)]
            for core, crow, arow, cols in rows:
                for k, brow in brows:
                    compute_row(core, crow, arow | k, brow, cols)
            if d is not None:
                for core, (i0, hi, j0, wj) in enumerate(round_tiles):
                    for i in range(i0, hi):
                        arow = A_BASE | (i << RS)
                        for k in range(k0, kh):
                            d.evict_dist(core, arow | k)
                    for k in range(k0, kh):
                        brow = B_BASE | (k << RS)
                        for j in range(j0, wj):
                            d.evict_dist(core, brow | j)
                for key in step_keys:
                    d.evict_shared(key)
        if d is not None:
            for core, crow, _, cols in rows:
                for j in cols:
                    key = crow | j
                    d.evict_dist(core, key)
                    d.evict_shared(key)
