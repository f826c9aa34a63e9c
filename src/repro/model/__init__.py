"""Machine model, algorithm parameters and communication lower bounds.

This subpackage is the analytical half of the reproduction: it captures
the multicore model of the paper's §2 (:mod:`repro.model.machine`), the
cache-fitting parameters ``λ``, ``µ``, ``α``, ``β`` of §3
(:mod:`repro.model.params`) and the Loomis–Whitney communication lower
bounds of §2.3 (:mod:`repro.model.bounds`).
"""

from repro.model.machine import MulticoreMachine, PRESETS, preset
from repro.model.params import (
    lambda_param,
    mu_param,
    max_square_param,
    TradeoffParameters,
)
from repro.model.bounds import (
    ccr_lower_bound,
    shared_misses_lower_bound,
    distributed_misses_lower_bound,
    tdata_lower_bound,
)

__all__ = [
    "MulticoreMachine",
    "PRESETS",
    "preset",
    "lambda_param",
    "mu_param",
    "max_square_param",
    "TradeoffParameters",
    "ccr_lower_bound",
    "shared_misses_lower_bound",
    "distributed_misses_lower_bound",
    "tdata_lower_bound",
]
