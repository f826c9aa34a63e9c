"""One benchmark repetition, in a fresh process started by ``run.py``.

    python3 perfbench/rep.py --workload W --seed N --spawned T --out PATH
        [--traced] [--tiny] [--step-check] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` reading taken just
before it started this process (the clock is shared by every process on
the host); set-up time runs from there to the end of the ``repro``
imports.  A fixed probe timed just before and after the timed section
(``probe_s``) records how fast the host ran meanwhile.  The
repetition writes one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Accesses the host-speed probe simulates (about 25 ms on a 2020s core).
PROBE_ACCESSES = 60_000


def probe() -> float:
    """Seconds a fixed LRU-cache simulation takes on this host right now.

    The probe is frozen here, independent of the program, so no change to
    the program moves it; it mixes dict and ``OrderedDict`` traffic like
    the simulator does, so contention from other tenants of the host slows
    it about as much as it slows the workloads.  Best of three.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        cache: "OrderedDict[int, int]" = OrderedDict()
        state = 12345
        for step in range(PROBE_ACCESSES):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = state % 3000
            if key in cache:
                cache.move_to_end(key)
            else:
                cache[key] = step
                if len(cache) > 1000:
                    cache.popitem(last=False)
        best = min(best, time.perf_counter() - start)
    return best


def _args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--step-check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _step_problems(results: List[Any]) -> List[str]:
    """Re-run each cell on the step engine, the oracle; list mismatches."""
    import digest
    import repro.sim.runner as runner

    problems = []
    for result in results:
        step = runner.run_experiment(
            result.algorithm,
            result.machine,
            result.m,
            result.n,
            result.z,
            result.setting,
            engine="step",
        )
        if digest.cell_digest(step) != digest.cell_digest(result):
            problems.append(f"{digest.cell_key(result)}: replay counters differ from step")
    return problems


def _repetition(args: argparse.Namespace) -> Dict[str, Any]:
    import digest
    import spans
    import workloads

    inputs = workloads.plan(args.workload, args.seed, args.tiny)
    os.environ.update(workloads.environment(args.workload, inputs))
    reference = digest.load_reference()
    tracer = spans.Tracer() if args.traced else None
    results: List[Any] = []
    runs_dir = ROOT / ".perfbench_runs"
    runs_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir))
    try:
        with spans.instrument(tracer, results):
            probe_before = probe()
            start = time.perf_counter()
            outcome = workloads.run(args.workload, inputs, scratch, tracer)
            wall_s = time.perf_counter() - start
            probe_after = probe()
        executor_problems = workloads.load_executor_runs(outcome)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = _peak_rss_mb()
    cells = results + outcome.executor_results
    expected = workloads.planned_cells(args.workload, inputs)
    failed, problems = digest.check_cells(cells, reference, expected)
    if executor_problems:
        failed, problems = expected, executor_problems + problems
    if args.step_check:
        step_problems = _step_problems(results)
        if step_problems:
            failed, problems = expected, problems + step_problems
    out: Dict[str, Any] = {
        "probe_s": (probe_before + probe_after) / 2,
        "wall_s": wall_s,
        "failed": failed,
        "problems": problems[:10],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(
            tracer, results, wall_s, outcome.pool_runs, outcome.fabric_runs
        )
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json"))
    return out


def main(argv: List[str]) -> int:
    args = _args(argv)
    for var in ("REPRO_TRACE_TIER", "REPRO_STREAM_FMAS"):
        os.environ.pop(var, None)
    import repro.cli  # noqa: F401 -- the package import is part of set-up
    import repro.experiments.figures  # noqa: F401
    import repro.sim.runner  # noqa: F401

    out: Dict[str, Any] = {"setup_s": time.monotonic() - args.spawned}
    if args.setup_only:
        out["probe_s"] = probe()
    else:
        out.update(_repetition(args))
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
