"""Cross-algorithm property tests (hypothesis).

These are the heavy guns: for *every* registered algorithm and random
(small) dimensions,

1. the schedule numerically computes ``A @ B`` exactly, emitting every
   elementary update exactly once;
2. the residency walk proves the IDEAL schedule never violates
   capacity, inclusion or presence and drains both cache levels, and
   the IDEAL run counts ``mnz`` computes;
3. the IDEAL shared misses are at least the compulsory traffic
   ``mn + mz + zn`` minus reuse... (we assert the universal compulsory
   floor: every block of every matrix must enter the shared cache at
   least once, so ``MS >= mn + mz + zn`` can fail only if a block is
   never loaded — it cannot, thanks to the presence proof);
4. LRU simulation of the same schedule touches exactly ``3·mnz``
   distributed references.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.equal import SharedEqual
from repro.algorithms.registry import ALGORITHMS
from repro.algorithms.shared_opt import SharedOpt
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.model.machine import MulticoreMachine
from repro.numerics.executor import verify_schedule
from repro.sim.contexts import IdealContext, LRUContext
from tests.conftest import assert_proved

MACHINE = MulticoreMachine(p=4, cs=100, cd=21, q=8, name="prop-quad")

#: One core whose shared cache is the single memory of the §3 lineage
#: (the ``one_memory`` fixture in ``tests/conftest.py``, ``M = 21``).
ONE_MEMORY = MulticoreMachine(p=1, cs=21, cd=3, q=8, name="prop-one-memory")

dims = st.tuples(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestEveryAlgorithm:
    @given(dims=dims)
    @settings(max_examples=12, deadline=None)
    def test_numeric_correctness(self, name, dims):
        m, n, z = dims
        alg = ALGORITHMS[name](MACHINE, m, n, z)
        verify_schedule(alg, q=2)

    @given(dims=dims)
    @settings(max_examples=12, deadline=None)
    def test_checked_ideal_invariants(self, name, dims):
        m, n, z = dims
        alg = ALGORITHMS[name](MACHINE, m, n, z)
        report = assert_proved(alg)  # any capacity/inclusion/presence bug
        assert "presence/leaked-resident" not in {f.rule for f in report.findings}
        h = IdealHierarchy(MACHINE.p)
        ctx = IdealContext(h)
        alg.run(ctx)
        assert ctx.comp_total == m * n * z
        # compulsory-traffic floor: every block enters the shared cache
        assert h.ms >= m * n + m * z + z * n

    @given(dims=dims)
    @settings(max_examples=8, deadline=None)
    def test_lru_touch_volume(self, name, dims):
        m, n, z = dims
        alg = ALGORITHMS[name](MACHINE, m, n, z)
        h = LRUHierarchy(MACHINE.p, MACHINE.cs, MACHINE.cd)
        ctx = LRUContext(h)
        alg.run(ctx)
        stats = h.snapshot()
        total_refs = sum(c.hits + c.misses for c in stats.distributed)
        assert total_refs == 3 * m * n * z
        assert ctx.comp_total == m * n * z

    @given(dims=dims)
    @settings(max_examples=8, deadline=None)
    def test_ideal_md_dominates_compulsory(self, name, dims):
        """Each core must load at least its distinct working set once."""
        m, n, z = dims
        alg = ALGORITHMS[name](MACHINE, m, n, z)
        assert_proved(alg)
        h = IdealHierarchy(MACHINE.p)
        alg.run(IdealContext(h))
        # the busiest core performs >= mnz/p computes (pigeonhole), and
        # each compute involves 3 resident blocks that entered its cache
        # at least once; a very weak but universal sanity bound:
        assert h.snapshot().md_total >= (m * n * z) ** (1 / 3)


class TestOneMemoryLineage:
    """Shared Opt. and Shared Equal on one core: [7]'s Maximum Reuse
    and [8]'s equal thirds of a single memory."""

    @given(dims=dims)
    @settings(max_examples=25, deadline=None)
    def test_peak_within_memory_and_loads_above_floor(self, dims):
        m, n, z = dims
        for cls in (SharedOpt, SharedEqual):
            alg = cls(ONE_MEMORY, m, n, z)
            assert_proved(alg)
            h = IdealHierarchy(1)
            alg.run(IdealContext(h))
            assert h.peak_shared <= ONE_MEMORY.cs
            # compulsory floor: every block loaded at least once
            assert h.ms >= m * n + m * z + z * n
