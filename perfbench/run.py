"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--tiny]

Runs repetitions of one workload, each in a fresh process
(``perfbench/rep.py``), for ``--seconds`` seconds, checks every cell's
simulated counters, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted`` and ``failed`` cells, and the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics from traced repetitions (``--trace 1``).  A human-
readable summary goes to standard error.

Timings are rescaled to a reference host speed.  Small shared hosts
change speed by up to 2x for seconds to minutes at a time, as neighbours
come and go; each repetition times a fixed probe (``rep.probe``) just
before and after its timed section.  Its timings are multiplied by
``(REFERENCE_PROBE_S / probe time) ** exponent``, with the workload's
exponent from ``workloads.HOST_SPEED_EXPONENT``; every set-up time uses
exponent 1.  Each metric is then the median over the run's repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds ``rep.probe`` takes at the reference host speed.  Fixed for
#: good: changing it rescales every timing.
REFERENCE_PROBE_S = 0.025
#: Units of timings (rescaled by the host-speed factor) and of rates
#: (rescaled by its inverse); other units are not timings.
TIME_UNITS = frozenset({"s", "ms", "us"})
RATE_UNITS = frozenset({"1/s"})
#: Set-up time is the median of at least this many fresh processes.
SETUP_SAMPLES = 9
#: A repetition that runs longer than this is killed and counts as failed.
REP_TIMEOUT_S = 150.0


def _args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (for tests)")
    return parser.parse_args(argv)


def _reap_group(pgid: int) -> None:
    """Kill whatever the repetition left in its process group, and wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _spawn(args: argparse.Namespace, extra: List[str]) -> Optional[Dict[str, Any]]:
    """Run one repetition process; its JSON result, or ``None`` if it failed."""
    runs_dir = ROOT / ".perfbench_runs"
    runs_dir.mkdir(exist_ok=True)
    handle, out_path = tempfile.mkstemp(prefix="rep-", suffix=".json", dir=runs_dir)
    os.close(handle)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--out",
        out_path,
        *extra,
    ]
    if args.tiny:
        command.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command + ["--spawned", repr(spawned)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    _reap_group(proc.pid)
    proc.wait()
    try:
        text = Path(out_path).read_text(encoding="utf-8")
    finally:
        os.unlink(out_path)
    if code != 0 or not text:
        print(f"perfbench: repetition {' '.join(extra)} exited with {code}", file=sys.stderr)
        return None
    return json.loads(text)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _speed_factor(probe_s: float, exponent: float = 1.0) -> float:
    return (REFERENCE_PROBE_S / probe_s) ** exponent


def _rescaled(values: Dict[str, float], units: Dict[str, str], factor: float) -> Dict[str, float]:
    """One repetition's metrics, timings multiplied by ``factor``."""
    out = {}
    for name, value in values.items():
        unit = units.get(name)
        if unit in TIME_UNITS:
            value *= factor
        elif unit in RATE_UNITS:
            value /= factor
        out[name] = value
    return out


def _measure(args: argparse.Namespace) -> Dict[str, Any]:
    """Run repetitions for ``--seconds``; aggregate them."""
    planned = workloads.planned_cells(args.workload, workloads.plan(args.workload, args.seed, args.tiny))
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    attempted = failed = 0
    problems: List[str] = []
    durations: List[float] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        enough = bool(untraced) and (not args.trace or bool(traced))
        # Stop before a repetition would overrun; a run whose repetitions
        # keep failing stops after three.
        if durations and elapsed + statistics.median(durations) > args.seconds:
            if enough or len(durations) >= 3:
                break
        want_traced = bool(args.trace) and len(traced) < len(untraced)
        extra = ["--traced"] if want_traced else []
        # The step-engine comparison runs once per run, outside timing.
        if args.workload == "paper-cell-stream" and not (untraced or traced):
            extra.append("--step-check")
        began = time.monotonic()
        rep = _spawn(args, extra)
        durations.append(time.monotonic() - began)
        attempted += planned
        if rep is None:
            failed += planned
            problems.append("a repetition process failed")
            continue
        failed += rep["failed"]
        problems += rep["problems"]
        (traced if want_traced else untraced).append(rep)
    setups = list(untraced)
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            rep = _spawn(args, ["--setup-only"])
            if rep is None:
                break
            setups.append(rep)
    return {
        "untraced": untraced,
        "traced": traced,
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def _end_to_end(measured: Dict[str, Any], units: Dict[str, str], exponent: float) -> Dict[str, float]:
    per_rep = [
        _rescaled(
            {"wall_s": rep["wall_s"], "peak_rss_mb": rep["peak_rss_mb"]},
            units,
            _speed_factor(rep["probe_s"], exponent),
        )
        for rep in measured["untraced"]
    ]
    out = {name: _median([values[name] for values in per_rep]) for name in (per_rep[0] if per_rep else {})}
    # Set-up is interpreter start-up and imports: CPU-bound everywhere.
    out["setup_s"] = _median([r["setup_s"] * _speed_factor(r["probe_s"]) for r in measured["setups"]])
    return out


def _per_layer(measured: Dict[str, Any], units: Dict[str, str], exponent: float) -> Dict[str, float]:
    def factor(rep: Dict[str, Any]) -> float:
        return _speed_factor(rep["probe_s"], exponent)

    per_rep = [_rescaled(rep["layers"], units, factor(rep)) for rep in measured["traced"]]
    out = {name: _median([values[name] for values in per_rep]) for name in (per_rep[0] if per_rep else {})}
    untraced_wall = _median([r["wall_s"] * factor(r) for r in measured["untraced"]])
    out["trace.overhead_s"] = out.get("trace.wall_s", 0.0) - untraced_wall
    return out


def main(argv: List[str]) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    measured = _measure(args)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    exponent = workloads.HOST_SPEED_EXPONENT[args.workload]
    values = (_per_layer if args.trace else _end_to_end)(measured, units, exponent)
    for kind in ("untraced", "traced"):
        walls = " ".join(
            f"{rep['setup_s']:.3f}/{rep['wall_s']:.3f}/{rep['probe_s'] * 1e3:.1f}" for rep in measured[kind]
        )
        print(f"perfbench: {kind} repetitions, raw setup_s/wall_s/probe ms: {walls or '-'}", file=sys.stderr)
    metrics = {}
    for metric in section:
        value = values.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:34s} {value:14.6g} {metric['unit']}", file=sys.stderr)
    for problem in measured["problems"][:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = measured["failed"] == 0 and not measured["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measured["attempted"],
                "failed": measured["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
