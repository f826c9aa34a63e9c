"""Property-based exactness: formulas == simulation over random configs.

`test_formula_vs_sim.py` pins hand-picked cases; here hypothesis draws
random machines and divisible dimensions and requires the closed forms
to match the IDEAL simulation of a proved schedule exactly, every time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.registry import ALGORITHMS
from repro.analysis.formulas import divisibility_ok, predict
from repro.model.machine import MulticoreMachine
from tests.conftest import run_proved


@st.composite
def shared_opt_case(draw):
    lam = draw(st.integers(min_value=1, max_value=6))
    cs = max(1 + lam + lam * lam, 4 * 21)
    machine = MulticoreMachine(p=4, cs=cs, cd=21, q=8)
    m = lam * draw(st.integers(min_value=1, max_value=3))
    n = lam * draw(st.integers(min_value=1, max_value=3))
    z = draw(st.integers(min_value=1, max_value=12))
    return machine, m, n, z, {"lam": lam}


@st.composite
def distributed_opt_case(draw):
    mu = draw(st.integers(min_value=1, max_value=4))
    cd = max(1 + mu + mu * mu, 3)
    machine = MulticoreMachine(p=4, cs=4 * cd + 40, cd=cd, q=8)
    tile = 2 * mu
    m = tile * draw(st.integers(min_value=1, max_value=3))
    n = tile * draw(st.integers(min_value=1, max_value=3))
    z = draw(st.integers(min_value=1, max_value=10))
    return machine, m, n, z, {"mu": mu}


@st.composite
def tradeoff_case(draw):
    mu = draw(st.integers(min_value=1, max_value=3))
    mult = draw(st.integers(min_value=1, max_value=2))
    alpha = 2 * mu * mult
    beta = draw(st.integers(min_value=1, max_value=4))
    cd = max(1 + mu + mu * mu, 3)
    cs = max(alpha * alpha + 2 * alpha * beta, 4 * cd)
    machine = MulticoreMachine(p=4, cs=cs, cd=cd, q=8)
    m = alpha * draw(st.integers(min_value=1, max_value=2))
    n = alpha * draw(st.integers(min_value=1, max_value=2))
    z = draw(st.integers(min_value=1, max_value=10))
    return machine, m, n, z, {"alpha": alpha, "beta": beta, "mu": mu}


CASES = {
    "shared-opt": shared_opt_case(),
    "distributed-opt": distributed_opt_case(),
    "tradeoff": tradeoff_case(),
}


@pytest.mark.parametrize("name", sorted(CASES))
class TestRandomExactness:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_formula_exact_on_divisible_configs(self, name, data):
        machine, m, n, z, params = data.draw(CASES[name])
        alg = ALGORITHMS[name](machine, m, n, z, **params)
        assert divisibility_ok(alg)
        result = run_proved(name, machine, m, n, z, **params)
        predicted = predict(alg)
        assert result.ms == predicted.ms
        assert result.md == predicted.md
