"""Analytical side of the reproduction.

* :mod:`repro.analysis.formulas` — the closed-form miss counts of §3
  for the three Maximum-Reuse variants, plus our derivations for the
  reference algorithms.
* :mod:`repro.analysis.tradeoff_opt` — the continuous optimization of
  the Tradeoff parameters (§3.3): objective ``F(α)``, its derivative,
  the closed-form root ``α_num`` and the final clamped ``(α, β)``.
"""

from repro.analysis.formulas import (
    PredictedCounts,
    predict,
    FORMULAS,
)
from repro.analysis.tradeoff_opt import (
    objective,
    objective_derivative,
    alpha_num,
    optimal_parameters,
)

__all__ = [
    "PredictedCounts",
    "predict",
    "FORMULAS",
    "objective",
    "objective_derivative",
    "alpha_num",
    "optimal_parameters",
]
