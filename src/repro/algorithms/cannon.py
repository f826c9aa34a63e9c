"""Cannon's algorithm (extra baseline, cited in the paper's introduction).

Cannon's algorithm [Cannon 1969] is the other classical 2-D parallel
matrix product the paper mentions alongside the ScaLAPACK outer
product.  On a ``√p × √p`` torus, core ``(u, v)`` owns a tile of ``C``
and, at step ``t``, multiplies the ``A``-band ``(u, u+v+t mod √p)`` by
the ``B``-band ``(u+v+t mod √p, v)`` — tiles of ``A`` shift left along
rows and tiles of ``B`` shift up along columns between steps, so at any
instant the ``p`` cores touch *pairwise disjoint* tiles of ``A`` and
``B``.

On the multicore cache model this skewing is the whole difference from
the Outer Product baseline: the same elementary products are computed,
but the common dimension is traversed in a staggered order per core, so
no two cores compete for the same block of ``A``/``B`` within a step.
Like the Outer Product, the algorithm is cache-oblivious by design and
re-touches each block of ``C`` once per ``k``, so its shared-level
traffic remains ``Θ(mnz)``.

Registered under :data:`repro.algorithms.registry.EXTRA_ALGORITHMS`
(not one of the paper's six).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT
from repro.model.machine import MulticoreMachine


class Cannon(MatmulAlgorithm):
    """Cannon's skewed torus algorithm at block granularity."""

    name = "cannon"
    label = "Cannon"
    requires_square_grid = True

    def __init__(self, machine: MulticoreMachine, m: int, n: int, z: int) -> None:
        super().__init__(machine, m, n, z)
        self.grid = machine.grid_side

    def parameters(self) -> Dict[str, Any]:
        return {"grid": self.grid}

    def run(self, ctx: ExecutionContext) -> None:
        s = self.grid
        d = ctx.directives
        compute = ctx.compute
        compute_row = ctx.compute_row
        RS = ROW_SHIFT
        row_chunks = self.split_evenly(0, self.m, s)
        col_chunks = self.split_evenly(0, self.n, s)
        k_chunks = self.split_evenly(0, self.z, s)

        for t in range(s):
            for core in range(s * s):
                u, v = core % s, core // s
                band = (u + v + t) % s
                rows, cols, ks = row_chunks[u], col_chunks[v], k_chunks[band]
                for k in ctx.loop(ks, (1, 1 << RS, 0)):
                    brow = B_BASE | (k << RS)
                    for i in rows:
                        ka = A_BASE | (i << RS) | k
                        crow = C_BASE | (i << RS)
                        if d is not None:
                            d.load_shared(ka)
                            d.load_dist(core, ka)
                            for j in cols:
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
                            compute_row(core, crow, ka, brow, cols)
