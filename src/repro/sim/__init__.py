"""Simulation engine: contexts, settings, runner and sweeps.

* :mod:`repro.sim.contexts` — interpreters plugging algorithms into the
  LRU / IDEAL hierarchies.
* :mod:`repro.sim.settings` — the paper's simulation settings (IDEAL,
  LRU, LRU-50, LRU-2x).
* :mod:`repro.sim.runner` — one-call experiment execution producing
  :class:`~repro.sim.results.ExperimentResult`.
* :mod:`repro.sim.sweep` — matrix-order and bandwidth-ratio sweeps.
* :mod:`repro.sim.ledger` — the cell plan and books (records, resume,
  checkpoint, retry decisions, manifest) shared by both sweep executors.
* :mod:`repro.sim.parallel` — the fault-tolerant process-parallel sweep
  engine (timeouts, retries, crash recovery, run manifests).
* :mod:`repro.sim.telemetry` — per-cell records, worker statistics and
  the JSON run manifest.
* :mod:`repro.sim.faults` — injectable crash/hang/flaky/stall/die
  cells for exercising the engine and the fabric.
* :mod:`repro.sim.retrypolicy` — the shared retry classification and
  jittered exponential backoff used by the pool engine and the fabric.

The package re-exports the step engine only.  The sweep executors and
their parts (``parallel_order_sweep``, fault plans, retry policies,
telemetry records) are imported from their own modules, so a command
that runs cells in-process loads no ``multiprocessing``, numpy or run
store.
"""

from repro.sim.contexts import (
    ChainContext,
    IdealContext,
    LRUContext,
    RecordingContext,
)
from repro.sim.settings import SETTINGS, Setting, get_setting
from repro.sim.results import ExperimentResult, SweepResult
from repro.sim.runner import clear_memos, run_experiment
from repro.sim.sweep import order_sweep, ratio_sweep, resolve_entries, series_label

__all__ = [
    "ChainContext",
    "IdealContext",
    "LRUContext",
    "RecordingContext",
    "SETTINGS",
    "Setting",
    "get_setting",
    "ExperimentResult",
    "SweepResult",
    "clear_memos",
    "run_experiment",
    "order_sweep",
    "ratio_sweep",
    "resolve_entries",
    "series_label",
]
