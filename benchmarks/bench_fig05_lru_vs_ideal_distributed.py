"""Figure 5 — distributed misses of Distributed Opt.: LRU vs formula.

Regenerates the paper's Fig. 5 (CD = 21): Distributed Opt. under LRU(C)
and LRU(2C) against the closed form and its double.
"""

from benchmarks.conftest import save_figure
from repro.experiments.figures import figure5
from repro.sim import clear_memos


def bench_figure5(benchmark, orders, out_dir):
    # Cold: a figure bench times the figure, not what earlier benches
    # left in the result memo.
    fig = benchmark.pedantic(
        figure5,
        kwargs={"orders": tuple(orders)},
        setup=clear_memos,
        rounds=1,
        iterations=1,
    )
    save_figure(fig, out_dir)
    panel = fig.panels[0]
    assert (
        panel.series["distributed-opt LRU (2C)"][-1]
        <= panel.series["2x Formula (C)"][-1]
    )
