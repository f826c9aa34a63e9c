"""Parameter sweeps: matrix order and bandwidth ratio.

The paper's evaluation plots everything against either the (square)
matrix order in blocks (Figs. 4–11) or the bandwidth ratio
``r = σS/(σS + σD)`` at fixed order (Fig. 12).  These helpers produce
:class:`~repro.sim.results.SweepResult` families for both axes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine
from repro.sim.results import ExperimentResult, SweepResult
from repro.sim.runner import run_experiment

#: A sweep entry: algorithm name + setting key, optionally with
#: algorithm parameter overrides.
Entry = Union[Tuple[str, str], Tuple[str, str, Dict[str, Any]]]


def _unpack(entry: Entry) -> Tuple[str, str, Dict[str, Any]]:
    if len(entry) == 2:
        algorithm, setting = entry  # type: ignore[misc]
        return algorithm, setting, {}
    algorithm, setting, params = entry  # type: ignore[misc]
    return algorithm, setting, dict(params)


def series_label(
    algorithm: str,
    setting: str,
    params: Optional[Mapping[str, Any]] = None,
) -> str:
    """Canonical series label, e.g. ``"shared-opt lru-50"``.

    Parameter overrides are folded into the label
    (``"shared-opt lru-50 lam=8"``) so that two entries differing only
    in ``params`` produce *distinct* series instead of silently
    overwriting each other's results.
    """
    label = f"{algorithm} {setting}"
    if params:
        overrides = " ".join(f"{key}={params[key]}" for key in sorted(params))
        label = f"{label} {overrides}"
    return label


def resolve_entries(
    entries: Iterable[Entry],
) -> List[Tuple[str, str, Dict[str, Any], str]]:
    """Unpack entries and assign each its unique series label.

    Raises :class:`~repro.exceptions.ConfigurationError` when two
    entries collapse to the same label (same algorithm, setting *and*
    parameter overrides) — running a true duplicate would silently
    discard one entry's results.
    """
    resolved: List[Tuple[str, str, Dict[str, Any], str]] = []
    seen: Dict[str, int] = {}
    for position, entry in enumerate(entries):
        algorithm, setting, params = _unpack(entry)
        label = series_label(algorithm, setting, params)
        if label in seen:
            raise ConfigurationError(
                f"duplicate series label {label!r} (entries {seen[label] + 1} "
                f"and {position + 1}): identical (algorithm, setting, params) "
                "entries would overwrite each other's series"
            )
        seen[label] = position
        resolved.append((algorithm, setting, params, label))
    return resolved


def order_sweep(
    entries: Iterable[Entry],
    machine: MulticoreMachine,
    orders: Sequence[int],
    *,
    inclusive: bool = False,
    policy: str = "lru",
    workers: int = 0,
) -> SweepResult:
    """Run every (algorithm, setting) entry over square orders ``m=n=z``.

    Cells run on the step engine, which fast-forwards the loops each
    schedule declares; a cell whose schedule and simulated hierarchy
    this process already evaluated is a result-memo hit (see
    :mod:`repro.sim.runner`).  The sweep has no engine knob: only an
    entry's own params can ask ``run_experiment`` for
    ``engine="replay"``.

    With ``workers > 1`` the cells fan out through
    :func:`repro.sim.parallel.parallel_order_sweep` (retries, timeouts
    and a run manifest included).  Results are identical to the serial
    sweep (every cell is an independent ``run_experiment`` call); the
    result memo is per worker.
    """
    if workers > 1:
        from repro.sim.parallel import parallel_order_sweep

        return parallel_order_sweep(
            entries,
            machine,
            orders,
            workers=workers,
            inclusive=inclusive,
            policy=policy,
        )
    sweep = SweepResult(variable="order", xs=list(orders))
    for algorithm, setting, params, label in resolve_entries(entries):
        results: List[Optional[ExperimentResult]] = [
            run_experiment(
                algorithm,
                machine,
                order,
                order,
                order,
                setting,
                inclusive=inclusive,
                policy=policy,
                **params,
            )
            for order in orders
        ]
        sweep.add(label, results)
    return sweep


def ratio_sweep(
    entries: Iterable[Entry],
    machine: MulticoreMachine,
    ratios: Sequence[float],
    order: int,
    *,
    total_bandwidth: float = 2.0,
    inclusive: bool = False,
    policy: str = "lru",
    # Replay, not step: perfbench's traced fig12-ideal-ratio run asserts
    # trace.attributed_frac >= 0.9, and on step the figure's fixed
    # overhead outweighs its faster cells (the fraction reads ~0.82).
    # The benchmark change that reads in-tree spans moves that assert
    # (ROADMAP.md, "In-tree spans").
    engine: str = "replay",
) -> SweepResult:
    """Run entries over bandwidth ratios ``r = σS/(σS+σD)`` at fixed order.

    Each ratio rescales the machine's bandwidths (keeping their sum at
    ``total_bandwidth``); algorithms that adapt to bandwidths (Tradeoff)
    re-plan at every point, exactly as in Fig. 12.  Bandwidths enter
    ``Tdata`` only after simulation, so a ratio whose plan matches an
    earlier one is a result-memo hit (see :mod:`repro.sim.runner`).
    ``policy`` and ``inclusive`` forward to
    :func:`~repro.sim.runner.run_experiment` exactly as in
    :func:`order_sweep`, so ratio sweeps can exercise the FIFO and
    inclusive-hierarchy variants too; so does ``engine``, which only
    this sweep has.
    """
    sweep = SweepResult(variable="r", xs=list(ratios))
    machines = [machine.with_bandwidth_ratio(r, total=total_bandwidth) for r in ratios]
    for algorithm, setting, params, label in resolve_entries(entries):
        results: List[Optional[ExperimentResult]] = [
            run_experiment(
                algorithm,
                m,
                order,
                order,
                order,
                setting,
                inclusive=inclusive,
                policy=policy,
                engine=engine,
                **params,
            )
            for m in machines
        ]
        sweep.add(label, results)
    return sweep
