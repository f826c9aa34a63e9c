"""The six matrix-product algorithms evaluated in the paper.

* :class:`~repro.algorithms.shared_opt.SharedOpt` — Algorithm 1,
  minimizes shared-cache misses (parameter ``λ``).
* :class:`~repro.algorithms.distributed_opt.DistributedOpt` —
  Algorithm 2, minimizes distributed-cache misses (parameter ``µ``,
  2-D cyclic layout on a ``√p×√p`` core grid).
* :class:`~repro.algorithms.tradeoff.Tradeoff` — Algorithm 3, minimizes
  the data access time ``Tdata`` (parameters ``α, β``).
* :class:`~repro.algorithms.outer_product.OuterProduct` — the
  ScaLAPACK-style reference on a virtual core torus.
* :class:`~repro.algorithms.equal.SharedEqual` /
  :class:`~repro.algorithms.equal.DistributedEqual` — the Toledo-style
  equal-thirds memory allocation, tuned for the shared respectively the
  distributed cache level.

Every algorithm is written once, against the
:class:`~repro.algorithms.base.ExecutionContext` protocol, and drives
LRU simulation, IDEAL simulation (optionally with full capacity /
inclusion / presence checking) and numeric execution from the same
code path.
"""

from repro.algorithms.base import (
    ExecutionContext,
    MatmulAlgorithm,
    NullContext,
    ScheduleKey,
)
from repro.algorithms.shared_opt import SharedOpt
from repro.algorithms.distributed_opt import DistributedOpt
from repro.algorithms.tradeoff import Tradeoff
from repro.algorithms.outer_product import OuterProduct
from repro.algorithms.equal import SharedEqual, DistributedEqual
from repro.algorithms.registry import ALGORITHMS, get_algorithm, algorithm_names

__all__ = [
    "ExecutionContext",
    "MatmulAlgorithm",
    "NullContext",
    "ScheduleKey",
    "SharedOpt",
    "DistributedOpt",
    "Tradeoff",
    "OuterProduct",
    "SharedEqual",
    "DistributedEqual",
    "ALGORITHMS",
    "get_algorithm",
    "algorithm_names",
]
