"""Exactness of the closed forms: formula == checked IDEAL simulation.

This is the keystone test of the analysis layer: for every algorithm,
whenever :func:`divisibility_ok` says the exactness conditions hold,
the simulated IDEAL counts must equal the paper's (or our) closed forms
*integer for integer* — not approximately.  Checked simulation never
fast-forwards, so unchecked cells at the paper's orders, where it does,
are held to the same equality.
"""

import pytest

from repro.algorithms.registry import ALGORITHMS
from repro.analysis.formulas import divisibility_ok, predict
from repro.model.machine import MulticoreMachine, preset
from repro.sim.runner import run_experiment

MACHINE = MulticoreMachine(p=4, cs=100, cd=21, q=8)

# (algorithm, dims, params) chosen so divisibility_ok holds.
EXACT_CASES = [
    ("shared-opt", (18, 18, 18), dict(lam=9)),
    ("shared-opt", (9, 18, 5), dict(lam=9)),
    ("shared-opt", (8, 8, 8), dict(lam=4)),
    ("distributed-opt", (16, 16, 16), dict(mu=4)),
    ("distributed-opt", (8, 16, 7), dict(mu=4)),
    ("distributed-opt", (6, 6, 6), dict(mu=3)),
    ("tradeoff", (16, 16, 16), dict(alpha=8, beta=2, mu=2)),  # general case
    ("tradeoff", (8, 8, 9), dict(alpha=8, beta=2, mu=2)),  # beta does not divide z
    ("tradeoff", (8, 8, 8), dict(alpha=8, beta=2, mu=4)),  # alpha = sqrt(p)*mu

    ("outer-product", (8, 8, 8), {}),
    ("outer-product", (10, 6, 3), {}),
    ("shared-equal", (10, 10, 10), dict(t=5)),
    ("shared-equal", (5, 10, 15), dict(t=5)),
    ("distributed-equal", (16, 16, 16), dict(t=2)),
    ("distributed-equal", (8, 16, 8), dict(t=2)),
]


@pytest.mark.parametrize("name,dims,params", EXACT_CASES)
def test_formula_matches_simulation_exactly(name, dims, params):
    m, n, z = dims
    alg = ALGORITHMS[name](MACHINE, m, n, z, **params)
    assert divisibility_ok(alg), "test case must satisfy exactness conditions"
    result = run_experiment(name, MACHINE, m, n, z, "ideal", check=True, **params)
    predicted = predict(alg)
    assert result.ms == predicted.ms
    assert result.md == predicted.md


# (algorithm, order) on q32 where divisibility_ok holds and the unchecked
# step engine fast-forwards the cell in well under a second.  Left out:
# Outer Product, whose outermost k loop simulates one whole m·n sweep
# before it can repeat (~4 s at order 1100).  Distributed Equal repeats
# in super-rounds of whole tile rows (~0.1 s at order 1080).
PAPER_SCALE_CASES = [
    ("shared-opt", 1080),
    ("distributed-opt", 1088),
    ("tradeoff", 1056),
    ("shared-equal", 1080),
    ("distributed-equal", 1080),
]


@pytest.mark.parametrize("name,order", PAPER_SCALE_CASES)
def test_formula_matches_fast_forwarded_paper_scale_cell(name, order):
    machine = preset("q32")
    alg = ALGORITHMS[name](machine, order, order, order)
    assert divisibility_ok(alg), "test case must satisfy exactness conditions"
    result = run_experiment(name, machine, order, order, order, "ideal", engine="step")
    assert result.engine == "step"
    predicted = predict(alg)
    assert result.ms == predicted.ms
    assert result.md == predicted.md


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_formula_close_even_when_ragged(name):
    """With ragged tiles the formulas stay within a modest factor."""
    m, n, z = 13, 11, 9
    result = run_experiment(name, MACHINE, m, n, z, "ideal", check=True)
    alg = ALGORITHMS[name](MACHINE, m, n, z)
    predicted = predict(alg)
    assert result.ms <= 2.5 * predicted.ms + 100
    assert predicted.ms <= 2.5 * result.ms + 100


def test_divisibility_flags_negative_cases():
    alg = ALGORITHMS["shared-opt"](MACHINE, 10, 10, 10, lam=9)
    assert not divisibility_ok(alg)
    alg = ALGORITHMS["distributed-equal"](MACHINE, 16, 6, 16, t=2)
    # n/t = 3 tiles per row, not divisible by p=4
    assert not divisibility_ok(alg)


def test_predict_unknown_algorithm():
    from repro.algorithms.base import MatmulAlgorithm
    from repro.exceptions import ConfigurationError

    class Fake(MatmulAlgorithm):
        name = "fake"

        def run(self, ctx):  # pragma: no cover
            pass

    with pytest.raises(ConfigurationError):
        predict(Fake(MACHINE, 2, 2, 2))


def test_predicted_counts_helpers():
    from repro.analysis.formulas import PredictedCounts

    pc = PredictedCounts(ms=100.0, md=40.0)
    machine = MulticoreMachine(p=4, cs=100, cd=21, sigma_s=2.0, sigma_d=0.5)
    assert pc.tdata(machine) == pytest.approx(100 / 2 + 40 / 0.5)
    assert pc.ccr_s(10, 10, 10) == pytest.approx(0.1)
    assert pc.ccr_d(10, 10, 10, 4) == pytest.approx(40 / 250)
