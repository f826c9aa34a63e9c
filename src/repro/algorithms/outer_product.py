"""Reference algorithm — *Outer Product* (ScaLAPACK-style, paper §4.1).

The classical outer-product algorithm on a virtual ``√p × √p`` core
torus: ``C`` is partitioned into ``p`` large tiles, one per core, and
the common dimension is traversed in the *outermost* loop — for each
``k``, every core accumulates ``A[i,k]·B[k,j]`` into every block of its
tile.  Nothing is sized to the caches, which is the point of the
baseline: each ``C`` block is re-traversed ``z`` times, so the shared
level sees ``Θ(mnz)`` misses.

The paper notes the algorithm "is insensitive to cache policies, since
it is not focusing on cache usage"; its figures plot a single curve.
We run it through the same LRU hierarchy as everything else, and also
give it a capacity-safe streaming IDEAL schedule (no reuse beyond the
current element of ``A``) for the IDEAL-setting experiments:

* ``MS = z·(√p·m + 2mn)`` (every ``B`` and ``C`` block per compute
  row, one ``A`` element per core row traversal),
* ``MD = z·(m/√p + 2mn/p)`` per core.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT
from repro.model.machine import MulticoreMachine


class OuterProduct(MatmulAlgorithm):
    """ScaLAPACK-style outer product on a virtual core torus."""

    name = "outer-product"
    label = "Outer Product"
    requires_square_grid = True

    def __init__(self, machine: MulticoreMachine, m: int, n: int, z: int) -> None:
        super().__init__(machine, m, n, z)
        self.grid = machine.grid_side

    def parameters(self) -> Dict[str, Any]:
        return {"grid": self.grid}

    def _tiles(self) -> List[Tuple[int, int, int, int]]:
        """Per-core (row_lo, row_hi, col_lo, col_hi) torus tiles."""
        s = self.grid
        row_chunks = self.split_evenly(0, self.m, s)
        col_chunks = self.split_evenly(0, self.n, s)
        tiles = []
        for core in range(s * s):
            gi, gj = core % s, core // s
            rows, cols = row_chunks[gi], col_chunks[gj]
            tiles.append(
                (rows.start, rows.stop, cols.start, cols.stop)
            )
        return tiles

    def run(self, ctx: ExecutionContext) -> None:
        z = self.z
        d = ctx.directives
        compute = ctx.compute
        compute_row = ctx.compute_row
        tiles = self._tiles()
        RS = ROW_SHIFT

        for k in ctx.loop(range(z), (1, 1 << RS, 0)):
            brow = B_BASE | (k << RS)
            for core, (rlo, rhi, clo, chi) in enumerate(tiles):
                for i in ctx.loop(range(rlo, rhi), (1 << RS, 0, 1 << RS)):
                    ka = A_BASE | (i << RS) | k
                    crow = C_BASE | (i << RS)
                    if d is not None:
                        d.load_shared(ka)
                        d.load_dist(core, ka)
                        for j in range(clo, chi):
                            kb = brow | j
                            kc = crow | j
                            d.load_shared(kb)
                            d.load_dist(core, kb)
                            d.load_shared(kc)
                            d.load_dist(core, kc)
                            compute(core, kc, ka, kb)
                            d.evict_dist(core, kb)
                            d.evict_dist(core, kc)
                            d.evict_shared(kb)
                            d.evict_shared(kc)
                        d.evict_dist(core, ka)
                        d.evict_shared(ka)
                    else:
                        compute_row(core, crow, ka, brow, range(clo, chi))
