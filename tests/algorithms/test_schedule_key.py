"""The schedule key: what an algorithm's emitted schedule depends on.

Compiled traces and memoized cell results are keyed on
:meth:`MatmulAlgorithm.schedule_key`, so for every registered algorithm
(the paper's six, Cannon and Nested) the key must leave nothing out —
machines that give one key give identical step-engine counters — and
fold nothing together: a machine change that moves the tile parameters
moves the key.  Bandwidths enter only Tradeoff's plan, and never through
its informational ``alpha_num``.
"""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.algorithms.base import ScheduleKey
from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.exceptions import ReproError
from repro.experiments.figures import DEFAULT_RATIOS
from repro.model.machine import MulticoreMachine, preset
from repro.sim.contexts import IdealContext, LRUContext

NAMES = algorithm_names(include_extras=True)

#: The capacities each algorithm's plan reads (through its tile sides).
READS = {
    "shared-opt": {"cs"},
    "distributed-opt": {"cd"},
    "tradeoff": {"cs", "cd"},
    "outer-product": set(),
    "shared-equal": {"cs"},
    "distributed-equal": {"cd"},
    "cannon": set(),
    "nested-max-reuse": {"cd"},
}

#: ``parameters()`` entries that report but do not plan.
INFORMATIONAL = {"alpha_num"}

_sigma = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
_dim = st.integers(min_value=1, max_value=8)


def _build(name, machine, m, n, z):
    try:
        return get_algorithm(name)(machine, m, n, z)
    except ReproError:  # no feasible plan on this machine
        return None


def _tiles(alg):
    return {k: v for k, v in alg.parameters().items() if k not in INFORMATIONAL}


def _counters(alg, sim):
    """Step-engine counters of ``alg``'s schedule on ``sim``'s capacities."""
    lru = LRUHierarchy(sim.p, sim.cs, sim.cd)
    lru_ctx = LRUContext(lru)
    alg.run(lru_ctx)
    out = [(lru.snapshot(), lru_ctx.comp)]
    if alg.supports_ideal:
        ideal = IdealHierarchy(sim.p)
        ideal_ctx = IdealContext(ideal)
        alg.run(ideal_ctx)
        out.append((ideal.snapshot(), ideal_ctx.comp))
    return out


def test_reads_table_covers_every_registered_algorithm():
    assert set(READS) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_key_leaves_nothing_out_and_folds_nothing_together(name, data):
    p = data.draw(st.sampled_from([1, 4]), label="p")
    cd = data.draw(st.integers(3, 24), label="cd")
    cs = data.draw(st.integers(p * cd, p * cd + 160), label="cs")
    base = MulticoreMachine(
        p=p, cs=cs, cd=cd, sigma_s=data.draw(_sigma), sigma_d=data.draw(_sigma)
    )
    change = data.draw(st.sampled_from(["sigma", "cs", "cd"]), label="change")
    if change == "sigma":
        variant = replace(base, sigma_s=data.draw(_sigma), sigma_d=data.draw(_sigma))
    elif change == "cs":
        new_cs = st.integers(p * cd, p * cd + 160).filter(lambda v: v != cs)
        variant = replace(base, cs=data.draw(new_cs, label="new cs"))
    else:
        new_cd = st.integers(3, cs // p).filter(lambda v: v != cd)
        assume(cs // p > 3)
        variant = replace(base, cd=data.draw(new_cd, label="new cd"))
    m, n, z = data.draw(_dim), data.draw(_dim), data.draw(_dim)
    a, b = _build(name, base, m, n, z), _build(name, variant, m, n, z)
    assume(a is not None and b is not None)

    same_key = a.schedule_key() == b.schedule_key()
    if _tiles(a) != _tiles(b):
        assert not same_key
    if change == "sigma" and name != "tradeoff":
        assert same_key
    if change in ("cs", "cd") and change not in READS[name]:
        assert same_key
    if same_key:
        # both schedules on one simulated hierarchy: identical counters
        assert _counters(a, base) == _counters(b, base)


@pytest.mark.parametrize("name", NAMES)
def test_halved_caches_move_exactly_the_plans_that_read_them(name):
    full = preset("q32")
    a = get_algorithm(name)(full, 8, 8, 8)
    b = get_algorithm(name)(full.with_halved_caches(), 8, 8, 8)
    assert (a.schedule_key() != b.schedule_key()) == bool(READS[name])


def test_key_fields():
    alg = get_algorithm("shared-opt")(preset("q32"), 6, 7, 8)
    assert alg.schedule_key() == ScheduleKey("shared-opt", 4, 6, 7, 8, (("lambda", 30),))


def test_tradeoff_key_ignores_alpha_num():
    """Fig. 12's 19 ratios re-plan Tradeoff into a few schedules."""
    q32 = preset("q32")
    algs = [
        get_algorithm("tradeoff")(q32.with_bandwidth_ratio(r), 64, 64, 64)
        for r in DEFAULT_RATIOS
    ]
    assert len({alg.parameters()["alpha_num"] for alg in algs}) == len(DEFAULT_RATIOS)
    keys = {alg.schedule_key() for alg in algs}
    assert len(keys) == len({tuple(sorted(_tiles(alg).items())) for alg in algs})
    assert len(keys) < len(DEFAULT_RATIOS) // 2
