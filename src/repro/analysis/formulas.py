"""Closed-form miss counts for every algorithm (paper §3 + our §4.1 baselines).

For each algorithm we give the predicted shared-cache misses ``MS`` and
(max per-core) distributed-cache misses ``MD`` under the IDEAL model.
The three Maximum-Reuse formulas are the paper's; the Outer Product and
Equal formulas are our derivations for the explicit IDEAL schedules we
gave those baselines (the paper only plots their simulated values).

Every formula is *exact* — integer-for-integer equal to what the IDEAL
simulator counts — when the algorithm's tile sides divide the matrix
dimensions (see :func:`divisibility_ok`); tests assert that equality.
With ragged tiles the formulas remain asymptotically correct.

Formulas (square grid ``s = √p``; see the per-algorithm docstrings for
derivations):

=================== ============================== ================================
algorithm           MS                             MD (per core)
=================== ============================== ================================
shared-opt          ``mn + 2mnz/λ``                ``mnz/λ + 2mnz/p``
distributed-opt     ``mn + 2mnz/(µ√p)``            ``mn/p + 2mnz/(µp)``
tradeoff            ``mn + 2mnz/α``                ``mnz/(pβ) + 2mnz/(pµ)`` †
outer-product       ``z(√p·m + 2mn)``              ``z(m/√p + 2mn/p)``
shared-equal        ``mn + 2mnz/t``                ``mnz/(pt) + 2mnz/p``
distributed-equal   ``mn + (1+p)mnz/(pt)``         ``mn/p + 2mnz/(pt)``
=================== ============================== ================================

† In the degenerate case ``α = √p·µ`` the ``C`` term drops to ``mn/p``
(the Distributed Opt. count), as the paper's §3.3 remark notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

from repro.algorithms.base import MatmulAlgorithm
from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine


@dataclass(frozen=True)
class PredictedCounts:
    """Predicted ``MS`` and ``MD`` (block units) for one algorithm run."""

    ms: float
    md: float

    def tdata(self, machine: MulticoreMachine) -> float:
        """Predicted data access time ``MS/σS + MD/σD``."""
        return self.ms / machine.sigma_s + self.md / machine.sigma_d

    def ccr_s(self, m: int, n: int, z: int) -> float:
        """Shared CCR: ``MS / (mnz)``."""
        return self.ms / (m * n * z)

    def ccr_d(self, m: int, n: int, z: int, p: int) -> float:
        """Distributed CCR: ``MD / (mnz / p)``."""
        return self.md / (m * n * z / p)


def _shared_opt(alg: MatmulAlgorithm) -> PredictedCounts:
    m, n, z, p = alg.m, alg.n, alg.z, alg.machine.p
    lam = alg.lam  # type: ignore[attr-defined]
    ms = m * n + 2 * m * n * z / lam
    # Per (tile, k, i): one element of A plus 2·⌈λ/p⌉ B/C loads on the
    # busiest core (split_evenly front-loads the remainder).
    md = (m * n * z / lam) * (1 + 2 * math.ceil(lam / p))
    return PredictedCounts(ms=ms, md=md)


def _distributed_opt(alg: MatmulAlgorithm) -> PredictedCounts:
    m, n, z, p = alg.m, alg.n, alg.z, alg.machine.p
    mu = alg.mu  # type: ignore[attr-defined]
    s = math.isqrt(p)
    ms = m * n + 2 * m * n * z / (mu * s)
    md = m * n / p + 2 * m * n * z / (mu * p)
    return PredictedCounts(ms=ms, md=md)


def _tradeoff(alg: MatmulAlgorithm) -> PredictedCounts:
    m, n, z, p = alg.m, alg.n, alg.z, alg.machine.p
    alpha = alg.alpha  # type: ignore[attr-defined]
    beta = alg.beta  # type: ignore[attr-defined]
    mu = alg.mu  # type: ignore[attr-defined]
    ms = m * n + 2 * m * n * z / alpha
    if alg.single_subblock:  # type: ignore[attr-defined]
        c_term = m * n / p
    else:
        c_term = m * n * math.ceil(z / beta) / p
    md = c_term + 2 * m * n * z / (p * mu)
    return PredictedCounts(ms=ms, md=md)


def _outer_product(alg: MatmulAlgorithm) -> PredictedCounts:
    m, n, z, p = alg.m, alg.n, alg.z, alg.machine.p
    s = math.isqrt(p)
    ms = z * (s * m + 2 * m * n)
    md = z * (math.ceil(m / s) * (1 + 2 * math.ceil(n / s)))
    return PredictedCounts(ms=ms, md=md)


def _shared_equal(alg: MatmulAlgorithm) -> PredictedCounts:
    m, n, z, p = alg.m, alg.n, alg.z, alg.machine.p
    t = alg.t  # type: ignore[attr-defined]
    ms = m * n + 2 * m * n * z / t
    md = (m * n / (t * t)) * math.ceil(t / p) * z * (1 + 2 * t)
    return PredictedCounts(ms=ms, md=md)


def _distributed_equal(alg: MatmulAlgorithm) -> PredictedCounts:
    m, n, z, p = alg.m, alg.n, alg.z, alg.machine.p
    t = alg.t  # type: ignore[attr-defined]
    ms = m * n + (1 + p) * m * n * z / (p * t)
    md = m * n / p + 2 * m * n * z / (p * t)
    return PredictedCounts(ms=ms, md=md)


FORMULAS: Dict[str, Callable[[MatmulAlgorithm], PredictedCounts]] = {
    "shared-opt": _shared_opt,
    "distributed-opt": _distributed_opt,
    "tradeoff": _tradeoff,
    "outer-product": _outer_product,
    "shared-equal": _shared_equal,
    "distributed-equal": _distributed_equal,
    # Cannon's skewing permutes the (core, k) traversal order but not
    # the per-core streaming volumes, so its counts equal Outer Product's.
    "cannon": _outer_product,
}


def predict(alg: MatmulAlgorithm) -> PredictedCounts:
    """Predicted counts for an algorithm instance (its actual parameters)."""
    try:
        formula = FORMULAS[alg.name]
    except KeyError:
        raise ConfigurationError(f"no closed form registered for {alg.name!r}") from None
    return formula(alg)


def divisibility_ok(alg: MatmulAlgorithm) -> bool:
    """Whether the exactness conditions of the closed forms hold.

    When this returns ``True``, tests require the IDEAL simulator's
    counts to equal the formulas exactly (up to float representation).
    """
    m, n, z, p = alg.m, alg.n, alg.z, alg.machine.p
    s = math.isqrt(p)
    name = alg.name
    if name == "shared-opt":
        lam = alg.lam  # type: ignore[attr-defined]
        return m % lam == 0 and n % lam == 0
    if name == "distributed-opt":
        tile = s * alg.mu  # type: ignore[attr-defined]
        return m % tile == 0 and n % tile == 0
    if name == "tradeoff":
        alpha = alg.alpha  # type: ignore[attr-defined]
        return m % alpha == 0 and n % alpha == 0
    if name == "outer-product":
        return m % s == 0 and n % s == 0
    if name == "cannon":
        return m % s == 0 and n % s == 0 and z % s == 0
    if name == "shared-equal":
        t = alg.t  # type: ignore[attr-defined]
        return m % t == 0 and n % t == 0 and z % t == 0
    if name == "distributed-equal":
        t = alg.t  # type: ignore[attr-defined]
        return (
            m % t == 0
            and n % t == 0
            and z % t == 0
            and (n // t) % p == 0
        )
    return False
