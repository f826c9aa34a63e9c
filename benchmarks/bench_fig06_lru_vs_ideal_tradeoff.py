"""Figure 6 — Tdata of Tradeoff under LRU vs the closed form.

Regenerates the paper's Fig. 6 (CS = 977, CD = 21).
"""

from benchmarks.conftest import save_figure
from repro.experiments.figures import figure6
from repro.sim import clear_memos


def bench_figure6(benchmark, orders, out_dir):
    # Cold: a figure bench times the figure, not what earlier benches
    # left in the result memo.
    fig = benchmark.pedantic(
        figure6,
        kwargs={"orders": tuple(orders)},
        setup=clear_memos,
        rounds=1,
        iterations=1,
    )
    save_figure(fig, out_dir)
    panel = fig.panels[0]
    assert panel.series["tradeoff LRU (2C)"][-1] <= panel.series["2x Formula (C)"][-1]
