"""Benchmark recording: ``BENCH_<date>.json`` + baseline comparison.

The perf trajectory of this repo is a sequence of ``BENCH_<date>.json``
records, one per recording run.  Each record is a compact distillation
of a pytest-benchmark JSON report — per benchmark the median, IQR, mean,
standard deviation and round count, in seconds — plus an environment
fingerprint (interpreter, platform, CPU count, numpy version, git
commit) so a number is never read without knowing where it was measured.

Regression checking compares the medians of two records benchmark by
benchmark.  Benchmarks are noisy; the comparison is deliberately
tolerant — only a median slowdown beyond ``threshold`` (default 25%)
counts as a regression, and benchmarks present on only one side are
reported as additions/removals, never failures.

The module has two producers:

* :func:`run_quick_suite` shells out to pytest with
  ``--benchmark-json`` and converts the report — what ``repro-mmm
  bench`` and the CI job run.
* :func:`record_from_benchmark_json` converts an existing report — for
  tests and for re-analyzing a report produced elsewhere.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.store.atomic import atomic_write_text

#: Schema version of the BENCH_<date>.json record format.
BENCH_SCHEMA = 1

#: Benchmark scales understood by the suite (see benchmarks/conftest.py).
#: ``paper`` sweeps a sparse geometric axis up to the paper's true
#: order-1100 bound — a tier for records, not a PR gate.
SCALES = ("quick", "full", "paper")


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _git_commit(repo_root: Optional[Path] = None) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment_fingerprint(repo_root: Optional[Path] = None) -> Dict[str, Any]:
    """Where the numbers were measured: interpreter, platform, commit.

    Every field degrades to ``None`` rather than failing — a record from
    a stripped container is still a record.
    """
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep in CI
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "git_commit": _git_commit(repo_root),
    }


# ----------------------------------------------------------------------
# Record construction
# ----------------------------------------------------------------------
def record_from_benchmark_json(
    report: Dict[str, Any],
    *,
    scale: str = "quick",
    date: Optional[str] = None,
    environment: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Distill a pytest-benchmark JSON report into a BENCH record.

    ``report`` is the parsed content of a ``--benchmark-json`` file.
    Benchmark names keep their pytest-benchmark fully-qualified form
    (``bench_file.py::bench_name``) so identically-named functions in
    different modules never collide.
    """
    benches = report.get("benchmarks")
    if not isinstance(benches, list):
        raise ConfigurationError(
            "not a pytest-benchmark report: missing 'benchmarks' list"
        )
    entries: Dict[str, Dict[str, Any]] = {}
    for bench in benches:
        stats = bench.get("stats", {})
        name = bench.get("fullname") or bench.get("name")
        if not name or "median" not in stats:
            raise ConfigurationError(
                f"malformed benchmark entry: {bench.get('name', '<unnamed>')!r}"
            )
        entries[name] = {
            "median_s": stats["median"],
            "iqr_s": stats.get("iqr"),
            "mean_s": stats.get("mean"),
            "stddev_s": stats.get("stddev"),
            "rounds": stats.get("rounds"),
        }
    if date is None:
        date = _dt.date.today().isoformat()
    return {
        "schema": BENCH_SCHEMA,
        "date": date,
        "scale": scale,
        "environment": (
            environment if environment is not None else environment_fingerprint()
        ),
        "benchmarks": dict(sorted(entries.items())),
    }


def default_record_path(
    directory: Union[str, Path] = ".", date: Optional[str] = None
) -> Path:
    """``<directory>/BENCH_<date>.json`` for today (or ``date``)."""
    if date is None:
        date = _dt.date.today().isoformat()
    return Path(directory) / f"BENCH_{date}.json"


def write_record(record: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Atomically persist a record (sorted keys, trailing newline)."""
    return atomic_write_text(
        path, json.dumps(record, indent=2, sort_keys=True) + "\n"
    )


def load_record(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a record, validating the schema and shape."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "benchmarks" not in data:
        raise ConfigurationError(f"{path}: not a BENCH record (no 'benchmarks')")
    schema = data.get("schema")
    if schema != BENCH_SCHEMA:
        raise ConfigurationError(
            f"{path}: unsupported BENCH schema {schema!r} "
            f"(this build reads schema {BENCH_SCHEMA})"
        )
    return data


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One benchmark whose median slowed beyond the threshold."""

    name: str
    baseline_median_s: float
    current_median_s: float

    @property
    def ratio(self) -> float:
        """current / baseline median (``> 1`` means slower)."""
        return self.current_median_s / self.baseline_median_s

    def describe(self) -> str:
        return (
            f"{self.name}: median {self.current_median_s * 1e3:.3f} ms "
            f"vs baseline {self.baseline_median_s * 1e3:.3f} ms "
            f"({self.ratio:.2f}x)"
        )


def compare_records(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    threshold: float = 0.25,
) -> Tuple[List[Regression], List[str], List[str]]:
    """Compare two records' medians with a noise-tolerant threshold.

    Returns ``(regressions, added, removed)``: benchmarks whose median
    slowed by more than ``threshold`` (fractional, 0.25 = 25%), names
    present only in ``current``, and names present only in
    ``baseline``.  Additions and removals are informational — the suite
    evolves — and only regressions should fail a build.

    Records taken at different scales are not comparable — the scale
    changes the swept axes, so every median legitimately moves — and
    comparing them raises :class:`~repro.exceptions.ConfigurationError`
    instead of reporting garbage regressions.
    """
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    current_scale = current.get("scale")
    baseline_scale = baseline.get("scale")
    if (
        current_scale is not None
        and baseline_scale is not None
        and current_scale != baseline_scale
    ):
        raise ConfigurationError(
            f"cannot compare a {current_scale!r}-scale record against a "
            f"{baseline_scale!r}-scale baseline: scales change the swept "
            "axes, so medians are incommensurable"
        )
    cur = current["benchmarks"]
    base = baseline["benchmarks"]
    regressions: List[Regression] = []
    for name in sorted(set(cur) & set(base)):
        base_median = base[name]["median_s"]
        cur_median = cur[name]["median_s"]
        if base_median <= 0:
            continue
        if cur_median > base_median * (1.0 + threshold):
            regressions.append(Regression(name, base_median, cur_median))
    added = sorted(set(cur) - set(base))
    removed = sorted(set(base) - set(cur))
    return regressions, added, removed


# ----------------------------------------------------------------------
# Suite runner
# ----------------------------------------------------------------------
def run_quick_suite(
    *,
    scale: str = "quick",
    bench_dir: Union[str, Path] = "benchmarks",
    select: Optional[str] = None,
    pytest_args: Sequence[str] = (),
    report_path: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Run the benchmark suite and return the distilled BENCH record.

    Shells out to ``pytest <bench_dir> --benchmark-json=<tmp>`` with
    ``REPRO_BENCH_SCALE=<scale>`` in the environment, then converts the
    report via :func:`record_from_benchmark_json`.  ``select`` is passed
    to pytest as ``-k`` to subset the suite; ``report_path`` keeps the
    raw pytest-benchmark JSON next to the record instead of a temp file.
    """
    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}; valid scales: {list(SCALES)}"
        )
    bench_dir = Path(bench_dir)
    if not bench_dir.exists():
        raise ConfigurationError(f"benchmark directory not found: {bench_dir}")
    own_report = report_path is None
    if report_path is None:
        report_path = bench_dir / "out" / ".benchmark-report.json"
    report_path = Path(report_path)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        str(bench_dir),
        "-q",
        # The suite memoizes results across benches, so the old
        # heap grows as it runs; without this, later benches pay for
        # full GC collections scanning that unrelated heap and medians
        # drift with suite position instead of kernel cost.
        "--benchmark-disable-gc",
        f"--benchmark-json={report_path}",
        *pytest_args,
    ]
    if select:
        cmd += ["-k", select]
    env = dict(os.environ, REPRO_BENCH_SCALE=scale)
    proc = subprocess.run(cmd, env=env)
    if proc.returncode != 0:
        raise ConfigurationError(
            f"benchmark suite failed (pytest exit {proc.returncode})"
        )
    report = json.loads(report_path.read_text())
    if own_report:
        report_path.unlink(missing_ok=True)
    return record_from_benchmark_json(report, scale=scale)
