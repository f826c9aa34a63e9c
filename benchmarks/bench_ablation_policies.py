"""Ablation — LRU vs FIFO replacement (DESIGN.md, simulator extension).

The paper simulates LRU only; FIFO is the classic cheaper-but-weaker
alternative.  This bench shows how much of the Maximum-Reuse layout's
benefit survives a FIFO hierarchy.
"""

from repro.model.machine import preset
from repro.sim.runner import clear_memos, run_experiment
from repro.store.atomic import atomic_write_text

ORDER = 32


def bench_shared_opt_lru(benchmark):
    # The warm-up round leaves this cell in the result memo, so the
    # measured path is tens of microseconds; a single round would gate
    # on scheduler noise.  Median over many rounds is stable.
    r = benchmark.pedantic(
        run_experiment,
        args=("shared-opt", preset("q32"), ORDER, ORDER, ORDER, "lru-50"),
        kwargs={"policy": "lru", "engine": "step"},
        rounds=25,
        iterations=4,
        warmup_rounds=1,
    )
    assert r.ms > 0


def bench_shared_opt_fifo(benchmark, out_dir):
    # Times one cold FIFO cell: the result memo is cleared in untimed
    # set-up, so the round simulates instead of reading an entry.
    machine = preset("q32")

    def setup():
        clear_memos()
        return ("shared-opt", machine, ORDER, ORDER, ORDER, "lru-50"), {
            "policy": "fifo",
            "engine": "step",
        }

    fifo = benchmark.pedantic(run_experiment, setup=setup, rounds=1, iterations=1)
    lru = run_experiment(
        "shared-opt",
        machine,
        ORDER,
        ORDER,
        ORDER,
        "lru-50",
        policy="lru",
        engine="step",
    )
    atomic_write_text(out_dir / "ablation_policies.txt",
        f"policy  MS  MD\nlru  {lru.ms}  {lru.md}\nfifo  {fifo.ms}  {fifo.md}\n"
    )
    # FIFO cannot beat LRU on this reuse-heavy access pattern by much.
    assert fifo.ms >= 0.9 * lru.ms
