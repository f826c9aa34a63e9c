"""The LRU row kernel runs every registered schedule exactly.

Each schedule's innermost loop is one
:meth:`~repro.algorithms.base.ExecutionContext.compute_row` call, which
:class:`~repro.sim.contexts.LRUContext` hands to
:meth:`~repro.cache.hierarchy.LRUHierarchy.compute_row` whole.  The
oracle is the same context with the base-class ``compute_row``, which
runs one ``compute`` per multiply-add.  Counters, multiply-add counts
and the final key order and dirty sets must agree, for plain LRU (the
row kernel), FIFO and inclusive LRU (the generic path), on 1, 4 and 9
cores, at a ragged shape, with declared loops fast-forwarded on both
sides.
"""

import pytest

from repro.algorithms.base import ExecutionContext
from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.cache.hierarchy import LRUHierarchy
from repro.model.machine import MulticoreMachine
from repro.sim.contexts import LRUContext
from repro.sim.settings import get_setting


class PerFmaLRU(LRUContext):
    compute_row = ExecutionContext.compute_row


#: One machine per core count; every registered schedule fits each of
#: them under every LRU-family setting.
MACHINES = {
    1: MulticoreMachine(p=1, cs=40, cd=13, q=8),
    4: MulticoreMachine(p=4, cs=100, cd=21, q=8),
    9: MulticoreMachine(p=9, cs=200, cd=13, q=8),
}

#: Ragged against every tile side the schedules pick on these machines.
SHAPE = (13, 11, 9)

SCHEDULES = algorithm_names(include_extras=True)


@pytest.mark.parametrize(
    "policy, inclusive", [("lru", False), ("fifo", False), ("lru", True)]
)
@pytest.mark.parametrize("setting", ["lru", "lru-2x", "lru-50"])
@pytest.mark.parametrize("p", sorted(MACHINES))
@pytest.mark.parametrize("name", SCHEDULES)
def test_row_kernel_matches_per_multiply_add(name, p, setting, policy, inclusive):
    machine = MACHINES[p]
    chosen = get_setting(setting)
    simulated = chosen.simulated(machine)
    alg = get_algorithm(name)(chosen.declared(machine), *SHAPE)
    outcomes = []
    for cls in (LRUContext, PerFmaLRU):
        hierarchy = LRUHierarchy(
            p, simulated.cs, simulated.cd, policy=policy, inclusive=inclusive
        )
        ctx = cls(hierarchy)
        alg.run(ctx)
        outcomes.append((hierarchy.snapshot(), list(ctx.comp), hierarchy.state()))
    rows, per_fma = outcomes
    assert rows == per_fma
    m, n, z = SHAPE
    assert sum(rows[1]) == m * n * z
