"""Cost-conformance analyzer: counting soundness and violation detection.

Three layers of evidence:

* a hypothesis property proving the residency walk finds no error and
  that its counts and peaks over the recorded event log equal the
  IDEAL simulator's ``MS``/``MD`` and peak resident sets integer for
  integer, on random small orders (evenly tiled and ragged) across
  every algorithm with a closed form;
* seeded violations — a perturbed formula (the ``mn`` term dropped
  from shared-opt's ``MS``) and a schedule whose counts beat the
  strongest lower bound — each caught as an error;
* the clean complement: real schedules produce zero cost findings.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.formulas as formulas
from repro.algorithms.base import ExecutionContext, MatmulAlgorithm
from repro.algorithms.registry import get_algorithm
from repro.analysis.formulas import FORMULAS, PredictedCounts, divisibility_ok, predict
from repro.cache.hierarchy import IdealHierarchy
from repro.check import AnalysisContext, analyze_schedule, check_cost, check_residency
from repro.check.cost import CountedCosts
from repro.check.events import COMPUTE, EVICT_S, LOAD_D, LOAD_S, Event
from repro.check.findings import ERROR
from repro.check.tightbounds import check_tight_bounds
from repro.model.machine import MulticoreMachine
from repro.sim.contexts import IdealContext
from repro.sim.runner import run_experiment

MACHINE = MulticoreMachine(p=4, cs=100, cd=21, q=8)

FORMULA_ALGS = sorted(FORMULAS)


def _tile_side(name: str) -> int:
    """The natural tile side of ``name`` on :data:`MACHINE`."""
    probe = get_algorithm(name)(MACHINE, 1, 1, 1)
    params: Dict[str, Any] = probe.parameters()
    sides = [
        v
        for k, v in params.items()
        if k in ("lambda", "tile", "alpha", "t", "grid") and isinstance(v, int)
    ]
    return max(sides) if sides else 1


def walk_counts(events: Sequence[Event], p: int) -> CountedCosts:
    """The residency walk's traffic counts, capacity unbounded."""
    room = len(events) + 1
    return check_residency(events, room, room, p)[3]


def _walk(alg: MatmulAlgorithm):
    """The residency walk over ``alg``'s recorded schedule."""
    ctx = AnalysisContext(alg.machine.p)
    alg.run(ctx)
    machine = alg.machine
    return check_residency(ctx.events, machine.cs, machine.cd, machine.p)


def _recorded_counts(name: str, m: int, n: int, z: int) -> CountedCosts:
    return _walk(get_algorithm(name)(MACHINE, m, n, z))[3]


class TestCountingSoundness:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(FORMULA_ALGS),
        dims=st.tuples(
            st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)
        ),
        snap=st.booleans(),
        double=st.booleans(),
    )
    def test_counted_equals_ideal_simulation(self, name, dims, snap, double):
        """The residency walk proves the schedule and == IDEAL simulation.

        The walk finds no capacity, inclusion or presence error, and
        counts and peak resident sets agree integer for integer.
        ``snap`` rounds the drawn dims to tile multiples so both the
        evenly-tiled (exact-formula) and ragged paths are exercised.
        """
        m, n, z = dims
        if snap:
            tile = _tile_side(name)
            factor = 2 if (double and tile <= 9) else 1
            m, n, z = (tile * factor,) * 3
        alg = get_algorithm(name)(MACHINE, m, n, z)
        findings, peak_shared, peak_dist, counted = _walk(alg)
        assert not [f for f in findings if f.severity == ERROR]
        result = run_experiment(name, MACHINE, m, n, z, "ideal")
        assert counted.ms == result.ms
        assert counted.md_max == result.md
        hierarchy = IdealHierarchy(MACHINE.p)
        alg.run(IdealContext(hierarchy))
        assert counted.md == tuple(hierarchy.md)
        assert peak_shared == hierarchy.peak_shared
        assert peak_dist == hierarchy.peak_dist

    @pytest.mark.parametrize("name", FORMULA_ALGS)
    def test_counted_matches_formula_on_divisible_orders(self, name):
        # Smallest multi-tile order satisfying the exactness conditions
        # (distributed-equal additionally needs p | n/t, hence the scan).
        tile = _tile_side(name)
        order = next(
            k * tile
            for k in range(2, 10)
            if divisibility_ok(get_algorithm(name)(MACHINE, k * tile, k * tile, k * tile))
        )
        alg = get_algorithm(name)(MACHINE, order, order, order)
        counted = _recorded_counts(name, order, order, order)
        predicted = predict(alg)
        assert counted.ms == predicted.ms
        assert counted.md_max == predicted.md

    def test_redundant_loads_and_evictions_tracked(self):
        # Load twice (one MS), evict, load again (second MS).
        events = [
            (LOAD_S, -1, 7),
            (LOAD_S, -1, 7),
            (EVICT_S, -1, 7),
            (LOAD_S, -1, 7),
            (LOAD_D, 0, 7),
            (LOAD_D, 0, 7),
            (LOAD_D, 1, 7),
        ]
        counted = walk_counts(events, p=2)
        assert counted.ms == 2
        assert counted.md == (1, 1)
        assert counted.md_max == 1

    def test_empty_log_counts_zero(self):
        counted = walk_counts([], p=0)
        assert counted.ms == 0
        assert counted.md_max == 0


class TestCleanSchedules:
    @pytest.mark.parametrize("name", FORMULA_ALGS)
    def test_no_findings_on_real_schedules(self, name, quad):
        for order in (8, 13):
            alg = get_algorithm(name)(quad, order, order, order)
            found = check_cost(alg, _walk(alg)[3], machine="quad")
            assert found == [], [f.render() for f in found]


class TestSeededViolations:
    def test_perturbed_formula_is_caught(self, quad, monkeypatch):
        """Dropping the ``mn`` term from shared-opt's MS must be flagged.

        This is the analyzer's reason to exist: a silent edit to a
        closed form that no longer matches the recorded schedule is a
        hard error on divisible orders.
        """

        def broken(alg: MatmulAlgorithm) -> PredictedCounts:
            m, n, z, p = alg.m, alg.n, alg.z, alg.machine.p
            lam = alg.lam  # type: ignore[attr-defined]
            ms = 2 * m * n * z / lam  # mn term dropped
            md = (m * n * z / lam) * (1 + 2 * math.ceil(lam / p))
            return PredictedCounts(ms=ms, md=md)

        monkeypatch.setitem(formulas.FORMULAS, "shared-opt", broken)
        alg = get_algorithm("shared-opt")(quad, 18, 18, 18)  # lambda=9 divides
        assert divisibility_ok(alg)
        report = analyze_schedule(alg, machine_label="quad")
        assert not report.ok
        rules = {f.rule_id for f in report.findings}
        assert "cost/formula-mismatch" in rules
        mismatch = next(
            f for f in report.findings if f.rule_id == "cost/formula-mismatch"
        )
        assert mismatch.severity == "error"
        assert "MS" in mismatch.message

    def test_perturbed_md_formula_is_caught(self, quad, monkeypatch):
        def broken(alg: MatmulAlgorithm) -> PredictedCounts:
            good = formulas._shared_opt(alg)
            return PredictedCounts(ms=good.ms, md=good.md + 1)

        monkeypatch.setitem(formulas.FORMULAS, "shared-opt", broken)
        alg = get_algorithm("shared-opt")(quad, 18, 18, 18)
        found = check_cost(alg, _walk(alg)[3], machine="quad")
        assert any(
            f.rule_id == "cost/formula-mismatch" and "MD" in f.message
            for f in found
        )

    def test_below_lower_bound_is_caught(self, quad):
        """A log claiming almost no traffic for a big product is unsound.

        ``cost/below-tight-bound`` proves counts against the maximum of
        every bound family, Loomis–Whitney included.
        """

        class Cheat(MatmulAlgorithm):
            name = "abstract"  # no registered closed form

            def parameters(self) -> Dict[str, Any]:
                return {}

            def run(self, ctx: ExecutionContext) -> None:  # pragma: no cover
                pass

        alg = Cheat(quad, 64, 64, 64)
        events = [(LOAD_S, -1, 1), (LOAD_D, 0, 1), (COMPUTE, 0, 1, 1, 1)]
        found = check_tight_bounds(
            alg, walk_counts(events, quad.p), machine="quad"
        )
        assert [f.rule_id for f in found] == ["cost/below-tight-bound"] * 2
        assert "counted MS=1" in found[0].message
        assert "counted MD=1" in found[1].message
        assert all(f.severity == "error" for f in found)

    def test_ragged_envelope_violation_is_caught(self, quad, monkeypatch):
        """Off by orders of magnitude on ragged tiles is still an error."""

        def wild(alg: MatmulAlgorithm) -> PredictedCounts:
            return PredictedCounts(ms=10**9, md=10**9)

        monkeypatch.setitem(formulas.FORMULAS, "shared-opt", wild)
        alg = get_algorithm("shared-opt")(quad, 13, 13, 13)  # ragged: 13 % 9
        assert not divisibility_ok(alg)
        found = check_cost(alg, _walk(alg)[3], machine="quad")
        assert {f.rule_id for f in found} == {"cost/formula-ratio"}
        assert len(found) == 2  # MS and MD both leave the envelope
