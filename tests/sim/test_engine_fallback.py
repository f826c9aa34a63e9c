"""The engine rule: replay a trace that fits, else the step simulator.

:func:`repro.cache.replay.replays` is the one predicate
``run_experiment`` consults.  The table below covers every setting mode
× policy family × hierarchy option, each just within and just past the
``REPRO_STREAM_FMAS`` bound, and pins the telemetry each cell records
as well as its counters against the step oracle.  The rest pins how
fallbacks are counted in sweep manifests and survive serde.
"""

import itertools

import pytest

from repro.cache.replay import configure_trace_tier, trace_tier_root
from repro.model.machine import MulticoreMachine
from repro.sim.parallel import parallel_order_sweep
from repro.sim.runner import clear_memos, run_experiment
from repro.store.serde import result_from_dict, result_to_dict

# Power-of-two cache sizes so the 'plru' ablation policy is valid.
MACHINE = MulticoreMachine(p=4, cs=128, cd=16, q=8)
ORDER = 4
FMAS = ORDER**3


@pytest.fixture(autouse=True)
def _tierless_cold_memo():
    # trace_source is pinned below, so every cell compiles its own trace.
    previous_tier = trace_tier_root()
    configure_trace_tier(None)
    clear_memos()
    yield
    configure_trace_tier(previous_tier)
    clear_memos()


def _expected_kernel(setting, policy, inclusive, check, bound):
    """The kernel that must evaluate a cell under the engine rule."""
    if bound < FMAS:
        return "step"  # past the bound no family materializes a trace
    if setting == "ideal":
        return "step" if check else "ideal"
    if policy in ("lru", "fifo") and not inclusive:
        return f"bulk-{policy}"
    return "step"


#: Every (setting, policy, inclusive, check) configuration, with the
#: bound just within (``FMAS``) and just past (``FMAS - 1``) the cell.
RULE_TABLE = list(
    itertools.product(
        ("ideal", "lru-50"),
        ("lru", "fifo", "plru"),
        (False, True),
        (False, True),
        (FMAS, FMAS - 1),
    )
)


@pytest.mark.parametrize(
    "setting,policy,inclusive,check,bound",
    RULE_TABLE,
    ids=[
        f"{s}-{p}-{'incl' if i else 'excl'}-{'check' if c else 'nocheck'}-"
        f"{'within' if b == FMAS else 'past'}"
        for s, p, i, c, b in RULE_TABLE
    ],
)
def test_engine_rule(monkeypatch, setting, policy, inclusive, check, bound):
    monkeypatch.setenv("REPRO_STREAM_FMAS", str(bound))
    options = dict(check=check, policy=policy, inclusive=inclusive)
    result = run_experiment(
        "shared-opt", MACHINE, ORDER, ORDER, ORDER, setting, **options
    )
    step = run_experiment(
        "shared-opt", MACHINE, ORDER, ORDER, ORDER, setting, engine="step", **options
    )
    kernel = _expected_kernel(setting, policy, inclusive, check, bound)
    replayed = kernel != "step"
    assert result.engine == ("replay" if replayed else "step")
    assert result.kernel == kernel
    assert result.trace_source == ("compiled" if replayed else "")
    assert result.engine_fallback is not replayed
    assert result.stats == step.stats
    assert result.comp == step.comp
    assert not step.engine_fallback


class TestRunExperimentFallback:
    def test_unsupported_config_falls_back_to_step(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", inclusive=True
        )
        assert result.engine == "step"
        assert result.engine_fallback

    def test_explicit_step_engine_is_not_a_fallback(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", policy="plru", engine="step"
        )
        assert result.engine == "step"
        assert not result.engine_fallback

    def test_fallback_is_bit_identical_to_explicit_step(self):
        via_fallback = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", policy="plru"
        )
        explicit = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", policy="plru", engine="step"
        )
        assert via_fallback.stats == explicit.stats
        assert via_fallback.engine_fallback and not explicit.engine_fallback


class TestSweeps:
    def test_parallel_sweep_counts_fallbacks_in_manifest(self):
        sweep = parallel_order_sweep(
            [("shared-opt", "lru")], MACHINE, [4, 8], policy="plru", workers=2
        )
        manifest = sweep.manifest
        assert manifest is not None
        assert manifest.engine_fallbacks == 2
        assert all(cell.engine_fallback for cell in manifest.cells)
        assert manifest.to_dict()["engine_fallbacks"] == 2

    def test_parallel_sweep_clean_run_counts_zero(self):
        sweep = parallel_order_sweep(
            [("shared-opt", "lru")], MACHINE, [4], workers=1
        )
        manifest = sweep.manifest
        assert manifest is not None
        assert manifest.engine_fallbacks == 0
        assert not any(cell.engine_fallback for cell in manifest.cells)


class TestSerde:
    def test_engine_telemetry_round_trips(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", inclusive=True
        )
        again = result_from_dict(result_to_dict(result))
        assert again.engine == "step"
        assert again.engine_fallback

    def test_legacy_payload_defaults_to_no_fallback(self):
        result = run_experiment("shared-opt", MACHINE, 4, 4, 4, "lru")
        payload = result_to_dict(result)
        payload.pop("engine", None)
        payload.pop("engine_fallback", None)
        again = result_from_dict(payload)
        assert again.engine_fallback is False
