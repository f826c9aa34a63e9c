"""Communication lower bounds (paper §2.3).

The paper extends the Irony–Toledo–Tiskin bound, itself built on the
Loomis–Whitney inequality, to the two-level hierarchy.  For a computing
system with a cache of ``Z`` blocks, any conventional matrix-product
schedule has a communication-to-computation ratio (both in block units)

    CCR ≥ sqrt(27 / (8 Z)).

Specialized to the two levels, with ``K = mnz`` elementary block
multiply-adds overall:

* shared level:       ``MS ≥ mnz · sqrt(27 / (8 CS))``
* distributed level:  ``MD ≥ (mnz / p) · sqrt(27 / (8 CD))``
  (for algorithms whose work and misses are balanced across cores, the
  regime of every algorithm in the paper),
* data access time:   ``Tdata ≥ mnz · ( sqrt(27/(8 CS))/σS
  + sqrt(27/(8 CD))/(p σD) )``.

These are exactly the "Lower Bound" series plotted in Figs. 7–12.

Beyond the paper, this module also carries the *tight* bounds that
``repro.check`` proves every counted ``MS``/``MD`` against
(``cost/below-tight-bound``):

* **Smith–Lowery–Langou–van de Geijn** (arXiv:1702.02017) close the
  Loomis–Whitney constant from ``√(27/8) ≈ 1.84`` to ``2``: any
  conventional matrix product on a cache of ``Z`` blocks moves at least
  ``2·mnz/√Z − 2·Z`` blocks.  Specialized to the two levels:

  - shared:       ``MS ≥ 2·mnz/√CS − 2·CS``
  - distributed:  ``MD ≥ 2·(mnz/p)/√CD − 2·CD`` — valid for the *max*
    per-core count unconditionally, because some core executes at least
    ``mnz/p`` multiply-adds and the bound is monotone in the work.

  The SLLvdG theorem counts transfers in both directions; in this
  schedule model every transferred block is a load (computes require
  residency, so a writeback is always preceded by a load) and every
  paper schedule's load traffic clears the two-term bound with margin —
  a counted value below it signals a broken counting model
  (``cost/below-tight-bound``).

* **Al Daas–Ballard–Grigori–Kumar–Rouse** (arXiv:2205.13407) give
  memory-*independent* parallel bounds: a processor that executes ``F``
  multiply-adds touches ``≥ 3·F^(2/3)`` distinct blocks (Loomis–Whitney
  + AM–GM), each of which a cold cache must load at least once —
  ``MD ≥ 3·(mnz/p)^(2/3)`` regardless of ``CD``.

* **Compulsory traffic**: every block of ``A``, ``B`` and ``C`` enters
  the shared cache at least once, so ``MS ≥ mz + zn + mn`` whatever
  ``CS`` is.

:func:`shared_bounds` / :func:`distributed_bounds` bundle each level's
bounds; their ``best`` is the floor no counted value may beat, and
their ``binding`` names the bound that attains it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine


class LoomisWhitneyOptimum(NamedTuple):
    """Solution of the paper's §2.3.1 optimization problem.

    Maximize ``k`` subject to ``k ≤ √(ηνξ)`` and ``η + ν + ξ ≤ 2``: the
    most computation ``Z`` cache misses can feed, per matrix share.
    """

    eta: float
    nu: float
    xi: float
    k: float


def loomis_whitney_optimum() -> LoomisWhitneyOptimum:
    """The closed-form optimum: ``η = ν = ξ = 2/3``, ``k = √(8/27)``.

    By AM–GM, ``ηνξ`` under ``η+ν+ξ ≤ 2`` is maximized at the symmetric
    point; :func:`loomis_whitney_optimum_numeric` cross-checks this with
    a numeric optimizer in the tests.
    """
    share = 2.0 / 3.0
    return LoomisWhitneyOptimum(share, share, share, math.sqrt(8.0 / 27.0))


def loomis_whitney_optimum_numeric() -> LoomisWhitneyOptimum:
    """Solve the §2.3.1 program numerically (scipy), as a cross-check."""
    from scipy.optimize import minimize

    def neg_k(v):
        eta, nu, xi = v
        return -math.sqrt(max(eta * nu * xi, 0.0))

    result = minimize(
        neg_k,
        x0=[0.5, 0.5, 0.5],
        bounds=[(0.0, 2.0)] * 3,
        constraints=[
            {"type": "ineq", "fun": lambda v: 2.0 - (v[0] + v[1] + v[2])}
        ],
        method="SLSQP",
    )
    eta, nu, xi = result.x
    return LoomisWhitneyOptimum(eta, nu, xi, -result.fun)


def ccr_lower_bound(z: int) -> float:
    """Lower bound on the CCR for a cache of ``z`` blocks: ``sqrt(27/(8z))``."""
    if z < 1:
        raise ConfigurationError(f"cache size must be positive, got {z}")
    return math.sqrt(27.0 / (8.0 * z))


def shared_misses_lower_bound(machine: MulticoreMachine, m: int, n: int, z: int) -> float:
    """Lower bound on shared-cache misses ``MS`` for ``C = A×B``.

    ``m``, ``n``, ``z`` are the matrix dimensions in blocks; the bound is
    ``mnz · sqrt(27 / (8 CS))``.
    """
    _check_dims(m, n, z)
    return m * n * z * ccr_lower_bound(machine.cs)


def distributed_misses_lower_bound(
    machine: MulticoreMachine, m: int, n: int, z: int
) -> float:
    """Lower bound on the max per-core distributed misses ``MD``.

    Valid for schedules whose computation and misses are balanced over
    the ``p`` cores: ``(mnz/p) · sqrt(27 / (8 CD))``.
    """
    _check_dims(m, n, z)
    return m * n * z / machine.p * ccr_lower_bound(machine.cd)


def tdata_lower_bound(machine: MulticoreMachine, m: int, n: int, z: int) -> float:
    """Lower bound on ``Tdata = MS/σS + MD/σD`` (balanced schedules)."""
    _check_dims(m, n, z)
    return (
        shared_misses_lower_bound(machine, m, n, z) / machine.sigma_s
        + distributed_misses_lower_bound(machine, m, n, z) / machine.sigma_d
    )


def tight_shared_misses_lower_bound(
    machine: MulticoreMachine, m: int, n: int, z: int
) -> float:
    """SLLvdG tight bound on ``MS``: ``max(0, 2·mnz/√CS − 2·CS)``.

    Asymptotically stronger than the Loomis–Whitney bound (constant 2
    vs ``√(27/8)``) but weaker on small problems because of the
    ``−2·CS`` boundary term — it crosses above Loomis–Whitney once
    ``mnz ≥ 2·CS^1.5 / (2 − √(27/8))``.  Consumers should take the max
    over both (:func:`shared_bounds`).
    """
    _check_dims(m, n, z)
    if machine.cs < 1:
        raise ConfigurationError(f"cache size must be positive, got {machine.cs}")
    return max(0.0, 2.0 * m * n * z / math.sqrt(machine.cs) - 2.0 * machine.cs)


def tight_distributed_misses_lower_bound(
    machine: MulticoreMachine, m: int, n: int, z: int
) -> float:
    """SLLvdG tight bound on the max per-core ``MD``.

    ``max(0, 2·(mnz/p)/√CD − 2·CD)``: some core executes at least
    ``mnz/p`` of the ``mnz`` multiply-adds, and the sequential bound is
    monotone in the work, so — unlike the balanced-schedule
    Loomis–Whitney specialization — this needs no balance assumption.
    """
    _check_dims(m, n, z)
    if machine.cd < 1:
        raise ConfigurationError(f"cache size must be positive, got {machine.cd}")
    per_core = m * n * z / machine.p
    return max(0.0, 2.0 * per_core / math.sqrt(machine.cd) - 2.0 * machine.cd)


def memory_independent_distributed_lower_bound(
    machine: MulticoreMachine, m: int, n: int, z: int
) -> float:
    """Al Daas et al. memory-independent bound: ``MD ≥ 3·(mnz/p)^(2/3)``.

    A core executing ``F`` multiply-adds touches ``|A|·|B|·|C| ≥ F²``
    distinct blocks per matrix face (Loomis–Whitney), hence
    ``|A|+|B|+|C| ≥ 3·F^(2/3)`` by AM–GM; cold distributed caches load
    each at least once.  Independent of ``CD`` — the floor a bigger
    cache can never beat.
    """
    _check_dims(m, n, z)
    return 3.0 * (m * n * z / machine.p) ** (2.0 / 3.0)


def compulsory_shared_lower_bound(
    machine: MulticoreMachine, m: int, n: int, z: int
) -> float:
    """Compulsory shared traffic: ``mz + zn + mn`` — every block once.

    Every block of ``A`` (m·z), ``B`` (z·n) and ``C`` (m·n) is an
    operand of some compute and the presence contract requires operands
    resident in the shared cache, which starts cold.
    """
    del machine  # capacity-independent; signature symmetry with the others
    _check_dims(m, n, z)
    return float(m * z + z * n + m * n)


class SharedBounds(NamedTuple):
    """Every shared-level lower bound on ``MS`` for one cell."""

    loomis_whitney: float
    tight: float
    compulsory: float

    @property
    def best(self) -> float:
        """The strongest (largest) of the shared-level bounds."""
        return max(self.loomis_whitney, self.tight, self.compulsory)

    @property
    def binding(self) -> str:
        """Name of the bound that attains :attr:`best`."""
        pairs = (
            ("loomis-whitney", self.loomis_whitney),
            ("tight", self.tight),
            ("compulsory", self.compulsory),
        )
        return max(pairs, key=lambda pair: pair[1])[0]


class DistributedBounds(NamedTuple):
    """Every distributed-level lower bound on the max per-core ``MD``."""

    loomis_whitney: float
    tight: float
    memory_independent: float

    @property
    def best(self) -> float:
        """The strongest (largest) of the distributed-level bounds."""
        return max(self.loomis_whitney, self.tight, self.memory_independent)

    @property
    def binding(self) -> str:
        """Name of the bound that attains :attr:`best`."""
        pairs = (
            ("loomis-whitney", self.loomis_whitney),
            ("tight", self.tight),
            ("memory-independent", self.memory_independent),
        )
        return max(pairs, key=lambda pair: pair[1])[0]


def shared_bounds(machine: MulticoreMachine, m: int, n: int, z: int) -> SharedBounds:
    """All shared-level bounds for one cell."""
    return SharedBounds(
        loomis_whitney=shared_misses_lower_bound(machine, m, n, z),
        tight=tight_shared_misses_lower_bound(machine, m, n, z),
        compulsory=compulsory_shared_lower_bound(machine, m, n, z),
    )


def distributed_bounds(
    machine: MulticoreMachine, m: int, n: int, z: int
) -> DistributedBounds:
    """All distributed-level bounds for one cell."""
    return DistributedBounds(
        loomis_whitney=distributed_misses_lower_bound(machine, m, n, z),
        tight=tight_distributed_misses_lower_bound(machine, m, n, z),
        memory_independent=memory_independent_distributed_lower_bound(
            machine, m, n, z
        ),
    )


def _check_dims(m: int, n: int, z: int) -> None:
    if m < 1 or n < 1 or z < 1:
        raise ConfigurationError(
            f"matrix dimensions must be positive, got m={m}, n={n}, z={z}"
        )
