"""repro — matrix product on multicore architectures, reproduced.

A faithful, self-contained reproduction of

    Mathias Jacquelin, Loris Marchal, Yves Robert,
    "Complexity analysis and performance evaluation of matrix product
    on multicore architectures", LIP RRLIP2009-09 / ICPP 2009.

The package provides:

* the multicore machine model and communication lower bounds
  (:mod:`repro.model`);
* a block-granular two-level cache simulator with LRU and IDEAL modes
  (:mod:`repro.cache`);
* the paper's three Multicore Maximum Reuse algorithms and the three
  reference baselines (:mod:`repro.algorithms`);
* closed-form miss-count formulas and the Tradeoff optimizer
  (:mod:`repro.analysis`);
* a numeric executor proving every schedule computes ``A·B``
  (:mod:`repro.numerics`, which loads numpy and is not imported here:
  ``from repro.numerics import BlockMatrix, verify_schedule``);
* the simulation engine, settings and sweeps (:mod:`repro.sim`);
* one entry point per paper figure (:mod:`repro.experiments`) and a CLI
  (``python -m repro`` / ``repro-mmm``).

Quickstart::

    from repro import preset, run_experiment
    machine = preset("q32")
    result = run_experiment("shared-opt", machine, 60, 60, 60, "lru-50")
    print(result.ms, result.md, result.tdata)
"""

from repro.model.machine import MulticoreMachine, PRESETS, preset
from repro.model.bounds import (
    ccr_lower_bound,
    shared_misses_lower_bound,
    distributed_misses_lower_bound,
    tdata_lower_bound,
)
from repro.algorithms import (
    SharedOpt,
    DistributedOpt,
    Tradeoff,
    OuterProduct,
    SharedEqual,
    DistributedEqual,
    ALGORITHMS,
    get_algorithm,
)
from repro.analysis.formulas import predict, PredictedCounts
from repro.analysis.tradeoff_opt import alpha_num, optimal_parameters
from repro.sim import (
    run_experiment,
    order_sweep,
    ratio_sweep,
    ExperimentResult,
    SweepResult,
    SETTINGS,
)

__version__ = "1.0.0"

__all__ = [
    "MulticoreMachine",
    "PRESETS",
    "preset",
    "ccr_lower_bound",
    "shared_misses_lower_bound",
    "distributed_misses_lower_bound",
    "tdata_lower_bound",
    "SharedOpt",
    "DistributedOpt",
    "Tradeoff",
    "OuterProduct",
    "SharedEqual",
    "DistributedEqual",
    "ALGORITHMS",
    "get_algorithm",
    "predict",
    "PredictedCounts",
    "alpha_num",
    "optimal_parameters",
    "run_experiment",
    "order_sweep",
    "ratio_sweep",
    "ExperimentResult",
    "SweepResult",
    "SETTINGS",
    "__version__",
]
