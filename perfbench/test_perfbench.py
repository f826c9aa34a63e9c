"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Each workload runs at its ``--tiny`` size, traced and untraced, and must
emit exactly the metrics ``BENCHMARK.json`` names, with their units.  A
perturbed reference digest and a failed executor call must fail the
output check, and run.py must refuse to run where the program's sources
are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, workload: str, trace: int, *extra: str) -> Tuple[subprocess.CompletedProcess, Dict[str, Any]]:
    proc = subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            *extra,
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=root,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else {}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload: str, trace: int) -> None:
    proc, result = _run(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in section)
    elif workload != "sweep-fanout":
        # In process, the named layers account for nearly all the time.
        assert result["metrics"]["trace.attributed_frac"]["value"] >= 0.9


def _copy_benchmark(root: Path) -> None:
    """``BENCHMARK.json`` and this directory, without the program sources."""
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_perturbed_reference_fails_the_output_check(tmp_path: Path) -> None:
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({key: digest[::-1] for key, digest in reference.items()}))
    proc, result = _run(tmp_path, "paper-cell-stream", 0, "--tiny")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "reference" in proc.stderr


def test_refuses_to_run_without_program_sources(tmp_path: Path) -> None:
    _copy_benchmark(tmp_path)
    proc, _ = _run(tmp_path, "fig9-lru-orders", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_executor_exit_code_and_missing_manifest_are_problems(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    run = {"run_dir": str(tmp_path / "fabric-q32"), "wall_s": 1.0, "exit_code": 1}
    outcome = workloads.Outcome(fabric_runs=[run])
    assert workloads.load_executor_runs(outcome) == [
        "fabric-q32: executor exited with 1",
        "fabric-q32: no run manifest",
    ]


def test_entry_point_self_time_is_not_attributed() -> None:
    tracer = spans.Tracer()
    with tracer.span("figures"):
        with tracer.span("runner") as runner:
            with tracer.span("replay.bulk"):
                pass
    assert spans.attributed_s(tracer) == pytest.approx(runner.duration)


@pytest.mark.parametrize(
    "count, pct",
    [(5, 50.0), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(count: int, pct: float) -> None:
    samples: List[float] = [float(i) for i in range(1, count + 1)]
    got_pct, value = spans.tail(samples)
    assert got_pct == pct
    assert value == samples[-(-int(pct * count) // 100) - 1]
