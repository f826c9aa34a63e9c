"""Sweep engine overhead and telemetry artifact.

The fault-tolerant engine (:mod:`repro.sim.parallel`) adds machinery —
chunked submission, deadline tracking, per-cell records — on top of the
embarrassingly parallel sweep.  This bench measures what that costs on
a healthy pool and leaves the run manifest behind as an artifact
(``out/parallel_engine.manifest.json``), so a benchmark run documents
its own worker utilization and per-cell wall times.

Correctness is asserted inline: the engine run must be complete, cold
and bit-identical to the serial sweep it parallelizes.
"""

from benchmarks.conftest import save_manifest

from repro.model.machine import preset
from repro.sim import clear_memos
from repro.sim.parallel import parallel_order_sweep
from repro.sim.sweep import order_sweep

ENTRIES = [("shared-opt", "lru-50"), ("distributed-opt", "lru-50")]
ORDERS = (8, 16, 24)


def bench_engine_vs_serial(benchmark, out_dir):
    machine = preset("q32")
    serial = order_sweep(ENTRIES, machine, ORDERS)

    def run():
        return parallel_order_sweep(ENTRIES, machine, ORDERS, workers=2)

    # Cold: the pool's workers are forked from this process and would
    # inherit the result memo the serial reference just filled.
    sweep = benchmark.pedantic(run, setup=clear_memos, rounds=1, iterations=1)
    assert sweep.complete
    for label in serial.labels():
        for ppoint, spoint in zip(sweep.series[label], serial.series[label]):
            assert ppoint.trace_source != "memo", (label, ppoint.m)
            assert ppoint.stats == spoint.stats
    save_manifest(sweep, out_dir, "parallel_engine")
