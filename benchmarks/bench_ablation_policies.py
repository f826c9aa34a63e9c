"""Ablation — LRU vs FIFO replacement (DESIGN.md, simulator extension).

The paper simulates LRU only; FIFO is the classic cheaper-but-weaker
alternative.  This bench shows how much of the Maximum-Reuse layout's
benefit survives a FIFO hierarchy.
"""

from repro.algorithms.registry import get_algorithm
from repro.cache.replay import compile_trace, replay_bulk
from repro.model.machine import preset
from repro.sim.runner import run_experiment
from repro.sim.settings import get_setting
from repro.store.atomic import atomic_write_text

ORDER = 32


def bench_shared_opt_lru(benchmark):
    # This cell is memo-warm by the time the suite reaches it, so the
    # measured path is tens of microseconds; a single round would gate
    # on scheduler noise.  Median over many rounds is stable.
    r = benchmark.pedantic(
        run_experiment,
        args=("shared-opt", preset("q32"), ORDER, ORDER, ORDER, "lru-50"),
        kwargs={"policy": "lru", "engine": "replay"},
        rounds=25,
        iterations=4,
        warmup_rounds=1,
    )
    assert r.ms > 0


def bench_shared_opt_fifo(benchmark, out_dir):
    # Times the FIFO kernel alone: no trace outlives its call, so the
    # same cell's trace compiles in untimed set-up.
    machine, setting = preset("q32"), get_setting("lru-50")
    simulated = setting.simulated(machine)

    def setup():
        alg = get_algorithm("shared-opt")(
            setting.declared(machine), ORDER, ORDER, ORDER
        )
        trace = compile_trace(alg, directives=False)
        return (trace, [("fifo", simulated.cs, simulated.cd)]), {}

    (fifo,) = benchmark.pedantic(replay_bulk, setup=setup, rounds=1, iterations=1)
    lru = run_experiment(
        "shared-opt",
        machine,
        ORDER,
        ORDER,
        ORDER,
        "lru-50",
        policy="lru",
        engine="replay",
    )
    atomic_write_text(out_dir / "ablation_policies.txt",
        f"policy  MS  MD\nlru  {lru.ms}  {lru.md}\nfifo  {fifo.ms}  {fifo.md}\n"
    )
    # FIFO cannot beat LRU on this reuse-heavy access pattern by much.
    assert fifo.ms >= 0.9 * lru.ms
