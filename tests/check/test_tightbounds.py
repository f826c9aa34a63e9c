"""Tight-bound conformance analyzer + counted-vs-bound property tests."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.check.cost import CountedCosts
from repro.check.tightbounds import check_tight_bounds
from repro.exceptions import ConfigurationError
from repro.model.bounds import distributed_bounds, shared_bounds
from repro.model.machine import preset
from repro.sim.runner import run_experiment


def make_counted(machine, m, n, z, slack=3.0):
    """A CountedCosts comfortably above every bound (a conforming cell)."""
    sb = shared_bounds(machine, m, n, z)
    db = distributed_bounds(machine, m, n, z)
    ms = int(sb.best * slack) + 1
    md = int(db.best * slack) + 1
    return CountedCosts(ms=ms, md=(md,) * machine.p)


class TestCheckTightBounds:
    def setup_method(self):
        self.machine = preset("q32")
        self.alg = get_algorithm("shared-opt")(self.machine, 24, 24, 24)

    def test_conforming_cell_is_clean(self):
        counted = make_counted(self.machine, 24, 24, 24)
        assert check_tight_bounds(self.alg, counted, machine="q32") == []

    def test_below_shared_bound_is_error(self):
        counted = make_counted(self.machine, 24, 24, 24)
        bad = CountedCosts(ms=1, md=counted.md)
        findings = check_tight_bounds(self.alg, bad, machine="q32")
        assert [f.rule_id for f in findings] == ["cost/below-tight-bound"]
        assert findings[0].severity == "error"
        assert "MS=1" in findings[0].message

    def test_below_distributed_bound_is_error(self):
        counted = make_counted(self.machine, 24, 24, 24)
        bad = CountedCosts(ms=counted.ms, md=(1,) * self.machine.p)
        findings = check_tight_bounds(self.alg, bad, machine="q32")
        assert [f.rule_id for f in findings] == ["cost/below-tight-bound"]
        assert "MD=1" in findings[0].message

    def test_message_names_the_binding_bound(self):
        counted = make_counted(self.machine, 24, 24, 24)
        bad = CountedCosts(ms=1, md=counted.md)
        findings = check_tight_bounds(self.alg, bad, machine="q32")
        sb = shared_bounds(self.machine, 24, 24, 24)
        assert sb.binding in findings[0].message


class TestCountedNeverBeatsBounds:
    """Satellite property: no paper schedule's counted MS/MD ever beats
    the strongest lower bound, on ragged shapes and both engines."""

    @settings(deadline=None, max_examples=12)
    @given(
        m=st.integers(min_value=1, max_value=10),
        n=st.integers(min_value=1, max_value=10),
        z=st.integers(min_value=1, max_value=10),
        engine=st.sampled_from(["replay", "step"]),
    )
    def test_all_paper_algorithms(self, m, n, z, engine):
        machine = preset("q32")
        sb = shared_bounds(machine, m, n, z)
        db = distributed_bounds(machine, m, n, z)
        for name in algorithm_names():
            try:
                result = run_experiment(
                    name, machine, m, n, z, "ideal", engine=engine
                )
            except ConfigurationError:
                continue  # shape infeasible for this schedule
            assert result.ms >= sb.best * (1.0 - 1e-9), (name, m, n, z)
            assert result.md >= db.best * (1.0 - 1e-9), (name, m, n, z)
