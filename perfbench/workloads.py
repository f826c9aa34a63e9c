"""The benchmark's workloads: inputs drawn from a seed, and the timed body.

Every repetition runs in a fresh process, so the in-process memos
(compiled traces, per-trace replay results) start cold, and no on-disk
trace tier is configured except the ones the sweep executors create under
their own run directories.  The program is reached only through public
entry points: ``repro.experiments.figures``, ``repro.sim.runner`` and
``repro.cli.main``.

This module imports nothing from ``repro`` at import time, so run.py
can plan a repetition without paying for the package import.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

WORKLOADS = ("fig12-ideal-ratio", "fig9-lru-orders", "paper-cell-stream", "sweep-fanout")

#: The paper's six algorithms, as Figs. 9–12 plot them.
SIX = (
    "shared-opt",
    "distributed-opt",
    "tradeoff",
    "outer-product",
    "shared-equal",
    "distributed-equal",
)

#: The paper's six cache configurations (the panels of Fig. 12).
PRESETS = ("q32", "q32-pessimistic", "q64", "q64-pessimistic", "q80", "q80-pessimistic")

#: Fig. 12's bandwidth-ratio axis at twice the paper's resolution; a seed
#: draws a few of these points.
RATIO_GRID = tuple(i / 40 for i in range(1, 40))
FIG12_RATIOS = 7
FIG12_ORDER = 8

FIG9_ORDERS = (16, 24)

#: The order-1100 code path at a size that repeats in seconds.
PAPER_ORDER = 64
PAPER_CELLS = (("shared-opt", "lru-50"), ("shared-opt", "ideal"))

SWEEP_ORDERS = tuple(range(4, 19, 2))
SWEEP_PRESETS = 2
#: Worker processes per executor: one per CPU of a 2-CPU host.
WORKERS = 2
#: (executor metric prefix, CLI arguments that select the executor).
EXECUTORS = (
    ("parallel", ("sweep", "--workers", str(WORKERS))),
    ("fabric", ("fabric", "serve", "--local", str(WORKERS))),
)

#: How each workload's timings follow host speed: they are multiplied by
#: ``(reference probe time / probe time) ** exponent``.  The in-process
#: workloads are CPU-bound in the repetition's own process.  sweep-fanout
#: partly waits on worker processes, sockets and fsync; across 268
#: repetitions whose probe took 21-53 ms its wall time moved as the probe
#: time to the power 0.50 (per repetition) and 0.56 (per run median).
HOST_SPEED_EXPONENT = {
    "fig12-ideal-ratio": 1.0,
    "fig9-lru-orders": 1.0,
    "paper-cell-stream": 1.0,
    "sweep-fanout": 0.5,
}

#: Sizes for the benchmark's own tests: every code path, in about a second.
TINY = {
    "fig12_order": 4,
    "fig12_ratios": 3,
    "fig9_orders": (8,),
    "paper_order": 16,
    "sweep_orders": (4, 6),
    "sweep_presets": 1,
}


def plan(workload: str, seed: int, tiny: bool = False) -> Dict[str, Any]:
    """The inputs of one repetition; the same seed gives the same inputs.

    Seeds vary which inputs run or their order, never how much work a
    repetition holds, so run-to-run spread measures the host, not the
    draw.
    """
    rng = random.Random(seed)
    if workload == "fig12-ideal-ratio":
        count = TINY["fig12_ratios"] if tiny else FIG12_RATIOS
        return {
            "order": TINY["fig12_order"] if tiny else FIG12_ORDER,
            "ratios": sorted(rng.sample(RATIO_GRID, count)),
        }
    if workload == "fig9-lru-orders":
        orders = list(TINY["fig9_orders"] if tiny else FIG9_ORDERS)
        rng.shuffle(orders)
        return {"orders": orders}
    if workload == "paper-cell-stream":
        cells = [list(cell) for cell in PAPER_CELLS]
        rng.shuffle(cells)
        return {"order": TINY["paper_order"] if tiny else PAPER_ORDER, "cells": cells}
    if workload == "sweep-fanout":
        orders = list(TINY["sweep_orders"] if tiny else SWEEP_ORDERS)
        rng.shuffle(orders)
        count = TINY["sweep_presets"] if tiny else SWEEP_PRESETS
        return {"presets": rng.sample(PRESETS, count), "orders": orders}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def planned_cells(workload: str, inputs: Dict[str, Any]) -> int:
    """Cells one repetition attempts."""
    if workload == "fig12-ideal-ratio":
        return len(PRESETS) * len(SIX) * len(inputs["ratios"])
    if workload == "fig9-lru-orders":
        return 2 * len(SIX) * len(inputs["orders"])
    if workload == "paper-cell-stream":
        return len(inputs["cells"])
    return len(EXECUTORS) * len(inputs["presets"]) * len(SIX) * len(inputs["orders"])


def environment(workload: str, inputs: Dict[str, Any]) -> Dict[str, str]:
    """Environment variables the repetition's process sets for itself."""
    if workload == "paper-cell-stream":
        # Below the cell's multiply-add count, as at order 1100: LRU
        # streams off the live schedule, IDEAL falls back to the step
        # engine.
        return {"REPRO_STREAM_FMAS": str(inputs["order"] ** 3 // 2)}
    return {}


@dataclass
class Outcome:
    """What the timed body leaves for the checks and the layer metrics."""

    #: ``{"run_dir", "wall_s", "exit_code"}`` per CLI executor call; the
    #: run directory's manifest is added after the timed section.
    pool_runs: List[Dict[str, Any]] = field(default_factory=list)
    fabric_runs: List[Dict[str, Any]] = field(default_factory=list)
    #: Results of cells that ran in executor worker processes.
    executor_results: List[Any] = field(default_factory=list)


def run(workload: str, inputs: Dict[str, Any], scratch: Path, tracer: Optional[Any]) -> Outcome:
    """The timed body of one repetition."""
    import repro.experiments.figures as figures

    outcome = Outcome()
    if workload == "fig12-ideal-ratio":
        figures.figure12(order=inputs["order"], ratios=inputs["ratios"])
    elif workload == "fig9-lru-orders":
        figures.figure9(orders=inputs["orders"], panels_filter=("a", "c"))
    elif workload == "paper-cell-stream":
        import repro.sim.runner as runner
        from repro.model.machine import preset

        order = inputs["order"]
        for algorithm, setting in inputs["cells"]:
            runner.run_experiment(algorithm, preset("q32"), order, order, order, setting)
    else:
        _sweep(inputs, scratch, tracer, outcome)
    return outcome


def _sweep(inputs: Dict[str, Any], scratch: Path, tracer: Optional[Any], outcome: Outcome) -> None:
    from repro import cli

    orders = [str(order) for order in inputs["orders"]]
    for preset in inputs["presets"]:
        for name, executor_args in EXECUTORS:
            run_dir = scratch / f"{name}-{preset}"
            argv = [
                *executor_args,
                *SIX,
                "--preset",
                preset,
                "--orders",
                *orders,
                "--setting",
                "lru-50",
                "--run-dir",
                str(run_dir),
            ]
            span = tracer.span(name) if tracer is not None else contextlib.nullcontext()
            start = time.perf_counter()
            with span, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            runs = outcome.pool_runs if name == "parallel" else outcome.fabric_runs
            runs.append(
                {"run_dir": str(run_dir), "wall_s": time.perf_counter() - start, "exit_code": code}
            )


def load_executor_runs(outcome: Outcome) -> List[str]:
    """Read each executor run's manifest and checkpointed results.

    Returns the problems found: a CLI call that exited non-zero, or a run
    directory that holds no manifest.  Either fails the repetition, even
    when the checkpoint holds every cell.
    """
    from repro.store import RunStore, result_from_dict

    problems = []
    for run in outcome.pool_runs + outcome.fabric_runs:
        name = Path(run["run_dir"]).name
        if run["exit_code"] != 0:
            problems.append(f"{name}: executor exited with {run['exit_code']}")
        store = RunStore(run["run_dir"])
        if store.manifest_path.exists():
            run["manifest"] = json.loads(store.manifest_path.read_text(encoding="utf-8"))
        else:
            run["manifest"] = {}
            problems.append(f"{name}: no run manifest")
        for record in store.load_checkpoint().ok_records().values():
            outcome.executor_results.append(result_from_dict(record["result"]))
    return problems
