"""Algorithm 3 — *Tradeoff*: minimize the data access time ``Tdata``.

The tradeoff variant of the Multicore Maximum Reuse Algorithm (paper
§3.3): an ``α×α`` tile of ``C`` is pinned in the shared cache together
with slabs of ``β`` columns of ``A`` and ``β`` rows of ``B``
(``α² + 2αβ ≤ CS``).  Loading slabs of depth ``β`` lets each core keep
its ``µ×µ`` sub-block of ``C`` across ``β`` accumulation steps, cutting
the ``C``-induced distributed misses by a factor ``β`` relative to
Shared Opt., at the price of a smaller ``α`` (hence more shared
misses).  The optimal ``α`` as a function of the bandwidth ratio
``ρ = pσD/σS`` is computed in :mod:`repro.analysis.tradeoff_opt`.

Closed-form counts (exact when ``α | m``, ``α | n``, ``β | z`` and
``α > √pµ``):

* ``MS = mn + 2mnz/α``
* ``MD = mnz/(pβ) + 2mnz/(pµ)``

and in the degenerate case ``α = √pµ`` each core owns a single
sub-block, which is loaded once per tile:

* ``MD = mn/p + 2mnz/(pµ)`` — the Distributed Opt. count.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm, tile_loop
from repro.analysis.tradeoff_opt import optimal_parameters
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT
from repro.exceptions import ParameterError
from repro.model.machine import MulticoreMachine
from repro.model.params import TradeoffParameters, beta_for_alpha, mu_param


class Tradeoff(MatmulAlgorithm):
    """Multicore Maximum Reuse Algorithm tuned for ``Tdata`` (Algorithm 3).

    Parameters
    ----------
    alpha, beta, mu:
        Tile parameter overrides.  By default they come from
        :func:`repro.analysis.tradeoff_opt.optimal_parameters`, i.e.
        from the machine's bandwidth ratio.  Overrides must satisfy
        ``α² + 2αβ ≤ CS``, ``1 + µ + µ² ≤ CD`` and ``√p·µ | α``.
    """

    name = "tradeoff"
    label = "Tradeoff"
    requires_square_grid = True

    def __init__(
        self,
        machine: MulticoreMachine,
        m: int,
        n: int,
        z: int,
        alpha: Optional[int] = None,
        beta: Optional[int] = None,
        mu: Optional[int] = None,
    ) -> None:
        super().__init__(machine, m, n, z)
        s = machine.grid_side
        if alpha is None:
            params = optimal_parameters(machine, mu=mu)
            alpha, beta, mu = params.alpha, params.beta, params.mu
            self._alpha_num = params.alpha_num
        else:
            if mu is None:
                mu = mu_param(machine.cd)
            if beta is None:
                beta = beta_for_alpha(machine.cs, alpha)
            self._alpha_num = float(alpha)
        if mu < 1 or 1 + mu + mu * mu > machine.cd:
            raise ParameterError(f"mu={mu} violates 1 + µ + µ² <= CD={machine.cd}")
        if alpha % (s * mu) != 0:
            raise ParameterError(
                f"alpha={alpha} must be a multiple of sqrt(p)*mu={s * mu}"
            )
        if beta < 1:
            raise ParameterError(f"beta must be >= 1, got {beta}")
        if alpha * alpha + 2 * alpha * beta > machine.cs:
            raise ParameterError(
                f"(alpha={alpha}, beta={beta}) violates α² + 2αβ <= CS={machine.cs}"
            )
        self.alpha = alpha
        self.beta = beta
        self.mu = mu
        self.grid = s

    def parameters(self) -> Dict[str, Any]:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "mu": self.mu,
            "alpha_num": round(self._alpha_num, 2),
            "grid": self.grid,
        }

    def plan(self) -> Dict[str, Any]:
        # alpha_num is the unrounded optimum behind alpha: it moves with
        # every bandwidth ratio while (alpha, beta, mu) mostly do not.
        return {"alpha": self.alpha, "beta": self.beta, "mu": self.mu}

    @property
    def single_subblock(self) -> bool:
        """Whether ``α = √p·µ`` (each core owns one ``C`` sub-block)."""
        return self.alpha == self.grid * self.mu

    def run(self, ctx: ExecutionContext) -> None:
        m, n, z = self.m, self.n, self.z
        alpha, beta, mu, s = self.alpha, self.beta, self.mu, self.grid
        region = alpha // s  # side of each core's contiguous C region
        d = ctx.directives
        compute_row = ctx.compute_row
        hoist = self.single_subblock
        RS = ROW_SHIFT

        for i0 in tile_loop(ctx, m, alpha, (alpha << RS, 0, alpha << RS)):
            hi = min(i0 + alpha, m)
            for j0 in tile_loop(ctx, n, alpha, (0, alpha, alpha)):
                wj = min(j0 + alpha, n)
                if d is not None:
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            d.load_shared(crow | j)
                # Per-core contiguous regions (paper pseudocode), clamped.
                regions = []
                for core in range(s * s):
                    gi, gj = core % s, core // s
                    rlo = min(i0 + gi * region, hi)
                    rhi = min(i0 + (gi + 1) * region, hi)
                    clo = min(j0 + gj * region, wj)
                    chi = min(j0 + (gj + 1) * region, wj)
                    regions.append((rlo, rhi, clo, chi))
                if d is not None and hoist:
                    # α = √pµ: each core's single sub-block is its whole
                    # region; pin it for the entire tile computation.
                    for core, (rlo, rhi, clo, chi) in enumerate(regions):
                        for i in range(rlo, rhi):
                            crow = C_BASE | (i << RS)
                            for j in range(clo, chi):
                                d.load_dist(core, crow | j)
                for k0 in tile_loop(ctx, z, beta, (beta, beta << RS, 0)):
                    kh = min(k0 + beta, z)
                    if d is not None:
                        for k in range(k0, kh):
                            brow = B_BASE | (k << RS)
                            for j in range(j0, wj):
                                d.load_shared(brow | j)
                        for i in range(i0, hi):
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                d.load_shared(arow | k)
                    for core, (rlo, rhi, clo, chi) in enumerate(regions):
                        for bi in range(rlo, rhi, mu):
                            bih = min(bi + mu, rhi)
                            for bj in range(clo, chi, mu):
                                bjh = min(bj + mu, chi)
                                if d is not None and not hoist:
                                    for i in range(bi, bih):
                                        crow = C_BASE | (i << RS)
                                        for j in range(bj, bjh):
                                            d.load_dist(core, crow | j)
                                for k in range(k0, kh):
                                    brow = B_BASE | (k << RS)
                                    if d is not None:
                                        for j in range(bj, bjh):
                                            d.load_dist(core, brow | j)
                                    for i in range(bi, bih):
                                        ka = A_BASE | (i << RS) | k
                                        crow = C_BASE | (i << RS)
                                        if d is not None:
                                            d.load_dist(core, ka)
                                        compute_row(core, crow, ka, brow, range(bj, bjh))
                                        if d is not None:
                                            d.evict_dist(core, ka)
                                    if d is not None:
                                        for j in range(bj, bjh):
                                            d.evict_dist(core, brow | j)
                                if d is not None and not hoist:
                                    # Push the partial sub-block back up.
                                    for i in range(bi, bih):
                                        crow = C_BASE | (i << RS)
                                        for j in range(bj, bjh):
                                            d.evict_dist(core, crow | j)
                    if d is not None:
                        for k in range(k0, kh):
                            brow = B_BASE | (k << RS)
                            for j in range(j0, wj):
                                d.evict_shared(brow | j)
                        for i in range(i0, hi):
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                d.evict_shared(arow | k)
                if d is not None:
                    if hoist:
                        for core, (rlo, rhi, clo, chi) in enumerate(regions):
                            for i in range(rlo, rhi):
                                crow = C_BASE | (i << RS)
                                for j in range(clo, chi):
                                    d.evict_dist(core, crow | j)
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            d.evict_shared(crow | j)
