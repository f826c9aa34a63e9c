"""Rewrite ``reference.json``: the counters digest of every cell a workload can run.

    PYTHONPATH=src python3 perfbench/record_reference.py

Every cell is computed through the same public entry points the benchmark
uses (replay engine), then again with ``engine="step"``, the oracle, and
its digest is written only when the two agree exactly.  The universe
covers every seed's draw and the ``--tiny`` sizes.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

import digest
import spans
import workloads


def _universe(results: List[Any]) -> None:
    import repro.experiments.figures as figures
    import repro.sim.runner as runner
    import repro.sim.sweep as sweep
    from repro.model.machine import preset

    tiny = workloads.TINY
    with spans.instrument(None, results):
        for order in (tiny["fig12_order"], workloads.FIG12_ORDER):
            figures.figure12(order=order, ratios=workloads.RATIO_GRID)
        figures.figure9(
            orders=(*tiny["fig9_orders"], *workloads.FIG9_ORDERS), panels_filter=("a", "c")
        )
        for order in (tiny["paper_order"], workloads.PAPER_ORDER):
            os.environ.update(workloads.environment("paper-cell-stream", {"order": order}))
            for algorithm, setting in workloads.PAPER_CELLS:
                runner.run_experiment(algorithm, preset("q32"), order, order, order, setting)
            del os.environ["REPRO_STREAM_FMAS"]
        entries = [(algorithm, "lru-50") for algorithm in workloads.SIX]
        for key in workloads.PRESETS:
            sweep.order_sweep(entries, preset(key), workloads.SWEEP_ORDERS)


def main() -> int:
    import repro.sim.runner as runner

    results: List[Any] = []
    _universe(results)
    reference: Dict[str, str] = {}
    for result in results:
        key = digest.cell_key(result)
        value = digest.cell_digest(result)
        step = runner.run_experiment(
            result.algorithm,
            result.machine,
            result.m,
            result.n,
            result.z,
            result.setting,
            engine="step",
        )
        if digest.cell_digest(step) != value:
            print(f"replay and step counters differ for {key}", file=sys.stderr)
            return 1
        if reference.setdefault(key, value) != value:
            print(f"two digests for {key}", file=sys.stderr)
            return 1
    with open(digest.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{len(reference)} cells recorded in {digest.REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
