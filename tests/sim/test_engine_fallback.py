"""The engine rule: replay an unchecked IDEAL trace that fits, else step.

:func:`repro.cache.replay.replays` is the one predicate
``run_experiment`` consults.  The table below covers every setting mode
× policy family × hierarchy option, each just within and just past the
:data:`~repro.cache.replay.STREAM_FMAS` bound, and pins the telemetry
each cell records as well as its counters against a cold step run:
every LRU-family request runs on step with ``engine_fallback`` set.
The rest pins how fallbacks survive serde and which engine each entry
point runs: only ``run_experiment`` and ``ratio_sweep`` (Fig. 12) have
an engine knob, so every replay request here is explicit.
"""

import inspect
import itertools

import pytest

from repro.cache import replay
from repro.cache.replay import configure_trace_tier, trace_tier_root
from repro.fabric import fabric_order_sweep, run_local_fabric
from repro.model.machine import MulticoreMachine
from repro.sim.parallel import parallel_order_sweep
from repro.sim.runner import clear_memos, run_experiment
from repro.sim.sweep import order_sweep, ratio_sweep
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


def _replays(setting, policy, inclusive, check, bound):
    """Whether the engine rule lets a replay request replay the cell."""
    if bound < FMAS:
        return False  # past the bound no trace materializes
    # Only unchecked IDEAL cells replay; every LRU-family cell runs on step.
    return setting == "ideal" and not check


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
    monkeypatch.setattr(replay, "STREAM_FMAS", bound)
    options = dict(check=check, policy=policy, inclusive=inclusive)
    result = run_experiment(
        "shared-opt", MACHINE, ORDER, ORDER, ORDER, setting, engine="replay", **options
    )
    step = run_experiment(
        "shared-opt", MACHINE, ORDER, ORDER, ORDER, setting, engine="step", **options
    )
    replayed = _replays(setting, policy, inclusive, check, bound)
    assert result.engine == ("replay" if replayed else "step")
    assert result.trace_source == ("compiled" if replayed else "")
    assert result.engine_fallback is not replayed
    assert result.stats == step.stats
    assert result.comp == step.comp
    assert not step.engine_fallback
    # A replay call's entry, fallback or not, never answers a step call.
    assert step.trace_source == ""


class TestRunExperimentFallback:
    def test_unsupported_config_falls_back_to_step(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", inclusive=True, engine="replay"
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
            "shared-opt", MACHINE, 4, 4, 4, "lru", policy="plru", engine="replay"
        )
        explicit = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", policy="plru", engine="step"
        )
        assert via_fallback.stats == explicit.stats
        assert via_fallback.engine_fallback and not explicit.engine_fallback
        assert explicit.trace_source == ""  # simulated, not the fallback's entry


class TestSerde:
    def test_engine_telemetry_round_trips(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", inclusive=True, engine="replay"
        )
        again = result_from_dict(result_to_dict(result))
        assert again.engine == "step"
        assert again.engine_fallback

    def test_legacy_payload_defaults_to_no_fallback(self):
        result = run_experiment("shared-opt", MACHINE, 4, 4, 4, "lru", engine="replay")
        payload = result_to_dict(result)
        payload.pop("engine", None)
        payload.pop("engine_fallback", None)
        again = result_from_dict(payload)
        assert again.engine_fallback is False


#: One LRU and one IDEAL cell per sweep point.
GRID = [("shared-opt", "lru"), ("shared-opt", "ideal")]


#: The two entry points with an engine knob.
KNOBS = (run_experiment, ratio_sweep)


class TestDefaults:
    """Step is the default engine; only the serial ratio sweep (Fig. 12)
    asks for replay, which its IDEAL cells get, and no sweep executor
    has an engine knob at all."""

    @pytest.mark.parametrize(
        "function, engine",
        [
            (run_experiment, "step"),
            (order_sweep, "step"),
            (parallel_order_sweep, "step"),
            (fabric_order_sweep, "step"),
            (run_local_fabric, "step"),
            (ratio_sweep, "replay"),
        ],
    )
    def test_default_engine(self, function, engine):
        parameters = inspect.signature(function).parameters
        if function in KNOBS:
            assert parameters["engine"].default == engine
        else:
            # Without a knob, a cell runs on step unless its entry's
            # own params ask run_experiment for replay.
            assert "engine" not in parameters
            assert engine == "step"

    def test_a_default_cell_runs_on_step(self):
        result = run_experiment("shared-opt", MACHINE, ORDER, ORDER, ORDER, "lru")
        assert (result.engine, result.engine_fallback) == ("step", False)

    @pytest.mark.parametrize(
        "sweep, ideal_engine",
        [
            (lambda run_dir: order_sweep(GRID, MACHINE, [ORDER]), "step"),
            (
                lambda run_dir: parallel_order_sweep(
                    GRID, MACHINE, [ORDER], workers=1, run_dir=run_dir
                ),
                "step",
            ),
            (
                lambda run_dir: run_local_fabric(
                    GRID, MACHINE, [ORDER], workers=1, run_dir=run_dir
                ),
                "step",
            ),
            (lambda run_dir: ratio_sweep(GRID, MACHINE, [0.5], ORDER), "replay"),
        ],
        ids=["order", "pool", "fabric", "ratio"],
    )
    def test_default_sweep_cells(self, sweep, ideal_engine, tmp_path):
        series = sweep(tmp_path / "run").series.values()
        cells = {result.setting: result for results in series for result in results}
        assert sorted(cells) == sorted(setting for _, setting in GRID)
        # An LRU cell runs on step even when the sweep asks for replay.
        assert cells["lru"].engine == "step"
        assert cells["lru"].engine_fallback is (ideal_engine == "replay")
        assert cells["ideal"].engine == ideal_engine
