"""Algorithm 2 — *Distributed Opt.*: minimize distributed misses ``MD``.

The Maximum Reuse Algorithm applied at the distributed-cache level
(paper §3.2): each core pins a ``µ×µ`` block of ``C`` (with
``1 + µ + µ² ≤ CD``) in its private cache and fully accumulates it
before writing it back.  The ``p`` blocks are laid out 2-D cyclically on
a ``√p × √p`` core grid, so a ``√pµ × √pµ`` tile of ``C`` lives in the
shared cache together with a ``√pµ`` row of ``B`` and, one at a time,
the ``√pµ`` elements of the current column of ``A`` (cores on the same
grid row consume the same elements of ``A``; cores on the same grid
column the same fragment of ``B``).

Closed-form counts (exact when ``√pµ`` divides ``m`` and ``n``):

* ``MS = mn + 2mnz/(µ√p)``   (CCR_S ``= 1/z + 2/(µ√p)``, off the bound)
* ``MD = mn/p + 2mnz/(µp)``  (CCR_D ``= 1/z + 2/µ``, near the bound)
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm, tile_loop
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT
from repro.exceptions import ParameterError
from repro.model.machine import MulticoreMachine
from repro.model.params import mu_param


class DistributedOpt(MatmulAlgorithm):
    """Maximum Reuse Algorithm tuned for distributed caches (Algorithm 2).

    Parameters
    ----------
    mu:
        Private-cache tile side override.  Default: the largest ``µ``
        with ``1 + µ + µ² ≤ CD``.
    """

    name = "distributed-opt"
    label = "Distributed Opt."
    requires_square_grid = True

    def __init__(
        self,
        machine: MulticoreMachine,
        m: int,
        n: int,
        z: int,
        mu: Optional[int] = None,
    ) -> None:
        super().__init__(machine, m, n, z)
        if mu is None:
            mu = mu_param(machine.cd)
        if mu < 1:
            raise ParameterError(f"mu must be positive, got {mu}")
        if 1 + mu + mu * mu > machine.cd:
            raise ParameterError(f"mu={mu} violates 1 + µ + µ² <= CD={machine.cd}")
        self.mu = mu
        self.grid = machine.grid_side

    def parameters(self) -> Dict[str, Any]:
        return {"mu": self.mu, "grid": self.grid, "tile": self.grid * self.mu}

    def plan(self) -> Dict[str, Any]:
        return {"mu": self.mu}

    def run(self, ctx: ExecutionContext) -> None:
        m, n, z = self.m, self.n, self.z
        mu = self.mu
        s = self.grid
        tile = s * mu
        d = ctx.directives
        compute_row = ctx.compute_row
        RS = ROW_SHIFT

        for i0 in tile_loop(ctx, m, tile, (tile << RS, 0, tile << RS)):
            hi = min(i0 + tile, m)
            for j0 in tile_loop(ctx, n, tile, (0, tile, tile)):
                wj = min(j0 + tile, n)
                # Per-core sub-tile extents (clamped at ragged edges).
                rows = [
                    range(min(i0 + gi * mu, hi), min(i0 + (gi + 1) * mu, hi))
                    for gi in range(s)
                ]
                cols = [
                    range(min(j0 + gj * mu, wj), min(j0 + (gj + 1) * mu, wj))
                    for gj in range(s)
                ]
                if d is not None:
                    # C tile into the shared cache, sub-blocks into cores.
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            d.load_shared(crow | j)
                    for core in range(s * s):
                        gi, gj = core % s, core // s
                        for i in rows[gi]:
                            crow = C_BASE | (i << RS)
                            for j in cols[gj]:
                                d.load_dist(core, crow | j)
                for k in ctx.loop(range(z), (1, 1 << RS, 0)):
                    brow = B_BASE | (k << RS)
                    if d is not None:
                        for j in range(j0, wj):
                            d.load_shared(brow | j)
                        for core in range(s * s):
                            # A core with an empty row range at a ragged
                            # edge computes nothing: loading its B
                            # fragment would be dead traffic.
                            if rows[core % s]:
                                for j in cols[core // s]:
                                    d.load_dist(core, brow | j)
                    for gi in range(s):
                        for i in rows[gi]:
                            ka = A_BASE | (i << RS) | k
                            crow = C_BASE | (i << RS)
                            if d is not None:
                                d.load_shared(ka)
                            # Cores on grid row gi share this element of A.
                            for gj in range(s):
                                core = gj * s + gi
                                if not cols[gj]:
                                    continue  # ragged edge: no work, no load
                                if d is not None:
                                    d.load_dist(core, ka)
                                compute_row(core, crow, ka, brow, cols[gj])
                                if d is not None:
                                    d.evict_dist(core, ka)
                            if d is not None:
                                d.evict_shared(ka)
                    if d is not None:
                        for core in range(s * s):
                            if rows[core % s]:
                                for j in cols[core // s]:
                                    d.evict_dist(core, brow | j)
                        for j in range(j0, wj):
                            d.evict_shared(brow | j)
                if d is not None:
                    # Fully accumulated: drain cores, then the shared tile.
                    for core in range(s * s):
                        gi, gj = core % s, core // s
                        for i in rows[gi]:
                            crow = C_BASE | (i << RS)
                            for j in cols[gj]:
                                d.evict_dist(core, crow | j)
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            d.evict_shared(crow | j)
