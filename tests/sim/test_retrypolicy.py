"""The shared retry/backoff policy (pool engine + fabric).

The jitter here replaces ``random.uniform`` (banned on the determinism
scope): it must decorrelate distinct cells while staying bit-identical
between runs, and it must never push a delay *above* the deterministic
exponential envelope that timeout budgets are calibrated against.
"""

import pytest

from repro.exceptions import (
    ConfigurationError,
    ParameterError,
    ScheduleError,
)
from repro.sim.faults import FaultInjectionError
from repro.sim.retrypolicy import BackoffPolicy, is_retryable


class TestRetryClassification:
    def test_permanent_errors_are_not_retryable(self):
        for exc in (
            ConfigurationError("bad"),
            ParameterError("bad"),
            ScheduleError("bad"),
        ):
            assert not is_retryable(exc)

    def test_transient_errors_are_retryable(self):
        for exc in (
            FaultInjectionError("flaky"),
            OSError("socket dropped"),
            RuntimeError("who knows"),
        ):
            assert is_retryable(exc)


class TestBackoffPolicy:
    def test_exponential_envelope_without_jitter(self):
        policy = BackoffPolicy(base_s=0.1, factor=2.0, cap_s=60.0, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_cap_bounds_deep_retries(self):
        policy = BackoffPolicy(base_s=1.0, factor=2.0, cap_s=5.0, jitter=0.0)
        assert policy.delay(10) == 5.0
        assert policy.delay(50) == 5.0

    def test_jitter_stays_inside_envelope(self):
        policy = BackoffPolicy(base_s=0.1, factor=2.0, cap_s=60.0, jitter=0.5)
        for attempt in range(1, 8):
            raw = min(60.0, 0.1 * 2.0 ** (attempt - 1))
            for key in ("a:0", "a:1", "b:0", ""):
                delay = policy.delay(attempt, key=key)
                # Never above the envelope, never below (1-jitter)*raw.
                assert (1.0 - 0.5) * raw <= delay <= raw

    def test_jitter_is_deterministic(self):
        a = BackoffPolicy(base_s=0.1)
        b = BackoffPolicy(base_s=0.1)
        for attempt in (1, 2, 3):
            assert a.delay(attempt, key="cell:0") == b.delay(attempt, key="cell:0")

    def test_jitter_decorrelates_cells(self):
        policy = BackoffPolicy(base_s=0.1, jitter=0.5)
        delays = {policy.delay(1, key=f"cell:{i}") for i in range(16)}
        # Sixteen cells retrying after the same attempt must not all
        # wake at the same instant (thundering herd).
        assert len(delays) > 1

    def test_zero_base_is_allowed(self):
        policy = BackoffPolicy(base_s=0.0)
        assert policy.delay(1, key="x") == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="base_s"):
            BackoffPolicy(base_s=-0.1)
        with pytest.raises(ConfigurationError, match="factor"):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ConfigurationError, match="cap_s"):
            BackoffPolicy(cap_s=0.0)
        with pytest.raises(ConfigurationError, match="jitter"):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError, match="attempt"):
            BackoffPolicy().delay(0)

    def test_pool_engine_uses_the_shared_policy(self):
        """The pool engine, like the fabric, books every failed attempt
        in the cell ledger, whose retry delay is the shared policy's."""
        import repro.sim.parallel as parallel
        from repro.model.machine import MulticoreMachine
        from repro.sim.ledger import CellLedger, order_plan

        assert parallel.CellLedger is CellLedger
        machine = MulticoreMachine(p=4, cs=100, cd=21, q=8)
        plan = order_plan([("shared-opt", "ideal")], machine, [4])
        ledger = CellLedger(plan, retries=2, backoff=0.1)
        delay = ledger.charge(("shared-opt ideal", 0), 1, "Boom", "injected")
        assert delay == BackoffPolicy(base_s=0.1).delay(1, key="shared-opt ideal:0")
