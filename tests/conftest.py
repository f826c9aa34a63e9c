"""Shared fixtures: small machines and dimension sets used across tests.

Also the one way tests prove an IDEAL schedule: :func:`assert_proved`
(and :func:`run_proved`, which also runs the cell).
"""

from __future__ import annotations

from typing import Any, Callable

import pytest

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.registry import get_algorithm
from repro.check import ScheduleReport, analyze_schedule
from repro.check.findings import ERROR
from repro.model.machine import MulticoreMachine, preset
from repro.sim.results import ExperimentResult
from repro.sim.runner import run_experiment


def assert_proved(alg: MatmulAlgorithm) -> ScheduleReport:
    """Prove ``alg``'s schedule with :func:`repro.check.analyze_schedule`.

    Fails on any error finding: a capacity overflow, an inclusion or
    presence violation, a lost or repeated multiply-add, a race, or a
    count off its closed form or below the tight lower bound.  Returns
    the report, whose warnings (leaked residents, dead loads) a test
    may assert on too.
    """
    report = analyze_schedule(alg)
    errors = [f"{f.rule}: {f.message}" for f in report.findings if f.severity == ERROR]
    assert not errors, "\n".join(errors)
    return report


def run_proved(
    algorithm: str, machine: MulticoreMachine, m: int, n: int, z: int, **params: Any
) -> ExperimentResult:
    """Run one IDEAL cell after proving its schedule (:func:`assert_proved`)."""
    assert_proved(get_algorithm(algorithm)(machine, m, n, z, **params))
    return run_experiment(algorithm, machine, m, n, z, "ideal", **params)


@pytest.fixture
def quad() -> MulticoreMachine:
    """A small quad-core machine: tiles stay tiny, runs stay fast.

    CS=100 -> lambda=9, CD=21 -> mu=4, equal tiles t=5 (shared) / 2
    (distributed).
    """
    return MulticoreMachine(p=4, cs=100, cd=21, q=8, name="test-quad")


@pytest.fixture
def paper_q32() -> MulticoreMachine:
    """The paper's q=32 preset (CS=977, CD=21)."""
    return preset("q32")


@pytest.fixture
def unicore() -> MulticoreMachine:
    """Single-core edge-case machine."""
    return MulticoreMachine(p=1, cs=30, cd=7, q=8, name="test-uni")


@pytest.fixture
def one_memory() -> Callable[[int], MulticoreMachine]:
    """The single-memory machine of the §3 lineage, by memory size ``M``.

    One core whose shared cache of ``M`` blocks is the one bounded
    memory of [7] and [8]; the 3-block distributed cache only stages
    each multiply-add's operands.  There Shared Opt. is the Maximum
    Reuse Algorithm and Shared Equal is Toledo's equal thirds: ``MS``,
    ``peak_shared``, ``λ`` and ``t`` are the single-level loads, peak,
    ``µ`` and ``t``.
    """

    def make(memory: int) -> MulticoreMachine:
        return MulticoreMachine(p=1, cs=memory, cd=3, q=8, name=f"one-memory-{memory}")

    return make


@pytest.fixture
def nine_core() -> MulticoreMachine:
    """3x3 grid machine (square but not power of two)."""
    return MulticoreMachine(p=9, cs=200, cd=13, q=8, name="test-nine")
