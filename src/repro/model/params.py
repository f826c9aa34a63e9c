"""Cache-fitting parameters of the paper's §3.

The three Maximum-Reuse variants size their working sets with:

* ``λ`` — the largest integer with ``1 + λ + λ² ≤ CS`` (Algorithm 1
  stores a ``λ×λ`` block of ``C``, a ``λ`` row of ``B`` and one element
  of ``A`` in the shared cache);
* ``µ`` — the largest integer with ``1 + µ + µ² ≤ CD`` (Algorithm 2
  stores a ``µ×µ`` block of ``C``, a ``µ`` row fragment of ``B`` and one
  element of ``A`` in each distributed cache);
* ``(α, β)`` — the Tradeoff parameters with ``α² + 2αβ ≤ CS`` (an
  ``α×α`` block of ``C`` plus ``α×β`` of ``A`` and ``β×α`` of ``B`` in
  the shared cache).  The numerically optimal ``α`` given the bandwidth
  ratio is computed in :mod:`repro.analysis.tradeoff_opt`; this module
  provides the capacity constraints shared by algorithms and analysis.

The paper additionally constrains the *implemented* parameters: ``λ``
and ``α`` must divide the matrix order, and ``α`` must be a multiple of
``√p · µ`` so the ``α×α`` block of ``C`` tiles evenly over the core
grid; it blames that rounding for Tradeoff's losses at q ∈ {64, 80}.
Only the grid constraint is kept here: no tile side is rounded to a
divisor of the order, and ragged edge tiles run directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ParameterError


def max_square_param(capacity: int) -> int:
    """Largest integer ``x ≥ 1`` with ``1 + x + x² ≤ capacity``.

    This is the generic form behind both ``λ`` (with ``capacity = CS``)
    and ``µ`` (with ``capacity = CD``).  Closed form:
    ``⌊ sqrt(capacity − 3/4) − 1/2 ⌋`` for ``capacity ≥ 3``.

    Raises
    ------
    ParameterError
        If ``capacity < 3`` — there is no room for even one block of
        each matrix.
    """
    if capacity < 3:
        raise ParameterError(
            f"capacity {capacity} cannot hold one block of each matrix (need >= 3)"
        )
    # Integer search from the closed form, guarded against float error.
    x = int(math.isqrt(4 * capacity - 3) - 1) // 2
    while 1 + (x + 1) + (x + 1) ** 2 <= capacity:
        x += 1
    while x > 1 and 1 + x + x * x > capacity:
        x -= 1
    if 1 + x + x * x > capacity:
        raise ParameterError(f"no feasible square parameter for capacity {capacity}")
    return x


def lambda_param(cs: int) -> int:
    """The paper's ``λ``: largest integer with ``1 + λ + λ² ≤ CS``."""
    return max_square_param(cs)


def mu_param(cd: int) -> int:
    """The paper's ``µ``: largest integer with ``1 + µ + µ² ≤ CD``."""
    return max_square_param(cd)


@dataclass(frozen=True)
class TradeoffParameters:
    """The (α, β) pair the Tradeoff algorithm actually runs with.

    ``alpha`` is the side of the ``C`` tile held in the shared cache,
    ``beta`` the depth of the ``A``/``B`` slabs loaded alongside it, and
    ``mu`` the side of the ``µ×µ`` sub-blocks dealt to the cores
    (normally :func:`mu_param` of ``CD``, reduced only when the minimal
    tile would overflow the shared cache).  ``alpha_num`` records the
    unrounded real-valued optimum for reporting the rounding loss.
    """

    alpha: int
    beta: int
    mu: int
    alpha_num: float

    def shared_footprint(self) -> int:
        """Blocks of shared cache used: ``α² + 2αβ``."""
        return self.alpha * self.alpha + 2 * self.alpha * self.beta


def beta_for_alpha(cs: int, alpha: int) -> int:
    """Largest ``β ≥ 1`` with ``α² + 2αβ ≤ CS`` (clamped to 1).

    The paper sets ``β = max(⌊(CS − α²) / (2α)⌋, 1)``: even when the
    ``C`` tile leaves no slack, slabs of depth one are loaded (they then
    overflow conceptually; the simulator's LRU policy absorbs this, and
    in IDEAL mode the caller must pick a smaller ``α``).
    """
    if alpha < 1:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    return max((cs - alpha * alpha) // (2 * alpha), 1)


def alpha_max(cs: int) -> float:
    """Upper end of the feasible α range: ``√(CS + 1) − 1``.

    This is the largest real ``α`` with ``α² + 2α ≤ CS``, i.e. leaving
    room for slabs of depth ``β = 1``.
    """
    return math.sqrt(cs + 1.0) - 1.0
