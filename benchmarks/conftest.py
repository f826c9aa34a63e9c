"""Shared infrastructure for the benchmark harness.

Every ``bench_figNN`` module regenerates one figure of the paper: the
benchmarked callable *is* the full figure computation, and the rendered
series (the same rows/curves the paper plots) are written to
``benchmarks/out/<figid>.txt`` plus one CSV per panel, so a benchmark
run leaves the complete reproduction artifacts behind.

Scale is controlled by ``REPRO_BENCH_SCALE``:

* ``quick`` (default) — orders up to 32, a couple of minutes for the
  whole suite;
* ``full``  — orders up to 96 (and order 48 for the ratio sweep),
  closer to the paper's sweep shape; expect tens of minutes;
* ``paper`` — a sparse geometric axis reaching the paper's true
  x-axis bound, matrix order 1100 (in blocks), and the paper's Fig. 12
  at its own order (:data:`repro.experiments.figures.DEFAULT_RATIO_ORDER`,
  the order ``repro-mmm figure fig12`` draws).  The step engine's
  declared-loop fast-forward makes order 1100 feasible.  The nightly
  full-figures CI pipeline draws the same figures at the same orders
  with ``repro-mmm figure``, not through this suite.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Sequence

import pytest

from repro.experiments.figures import DEFAULT_RATIO_ORDER

#: Square matrix orders (blocks) swept by the figure benches.
QUICK_ORDERS: Sequence[int] = (8, 16, 24, 32)
FULL_ORDERS: Sequence[int] = (16, 32, 48, 64, 80, 96)
#: The paper's Figs. 7-11 x-axis tops out at matrix order 1100; this
#: axis samples it geometrically and lands on the true bound.
PAPER_ORDERS: Sequence[int] = (64, 128, 256, 512, 1100)

QUICK_RATIO_ORDER = 24
FULL_RATIO_ORDER = 48
PAPER_RATIO_ORDER = DEFAULT_RATIO_ORDER

OUT_DIR = Path(__file__).parent / "out"


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


@pytest.fixture(scope="session")
def orders() -> Sequence[int]:
    """Matrix orders for the order sweeps, per REPRO_BENCH_SCALE."""
    scale = bench_scale()
    if scale == "paper":
        return PAPER_ORDERS
    return FULL_ORDERS if scale == "full" else QUICK_ORDERS


@pytest.fixture(scope="session")
def ratio_order() -> int:
    """Matrix order for the Fig. 12 bandwidth sweep."""
    scale = bench_scale()
    if scale == "paper":
        return PAPER_RATIO_ORDER
    return FULL_RATIO_ORDER if scale == "full" else QUICK_RATIO_ORDER


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


def save_figure(figure, directory: Path) -> None:
    """Persist a regenerated figure: ASCII tables + per-panel CSV."""
    from repro.experiments.io import figure_to_csv, render_figure
    from repro.store.atomic import atomic_write_text

    atomic_write_text(directory / f"{figure.id}.txt", render_figure(figure))
    figure_to_csv(figure, directory)


def save_manifest(sweep, directory: Path, name: str) -> None:
    """Persist a sweep's engine run manifest next to the figure output.

    No-op for serial sweeps (they carry no manifest); for engine runs
    the JSON lands at ``<out>/<name>.manifest.json`` so a benchmark run
    leaves its telemetry (attempts, wall times, worker utilization)
    behind with the artifacts.
    """
    if getattr(sweep, "manifest", None) is not None:
        sweep.manifest.write(directory / f"{name}.manifest.json")
