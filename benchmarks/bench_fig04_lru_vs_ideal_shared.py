"""Figure 4 — shared misses of Shared Opt.: LRU(C)/LRU(2C) vs formula.

Regenerates the four curves of the paper's Fig. 4 (CS = 977): Shared
Opt. under plain LRU, under LRU with doubled capacity, the closed-form
prediction and twice the prediction.  The benchmark time is the cost of
the full sweep; the series land in ``benchmarks/out/fig4*``.
"""

from benchmarks.conftest import save_figure
from repro.experiments.figures import figure4
from repro.sim import clear_memos


def bench_figure4(benchmark, orders, out_dir):
    # Cold: a figure bench times the figure, not what earlier benches
    # left in the result memo.
    fig = benchmark.pedantic(
        figure4,
        kwargs={"orders": tuple(orders)},
        setup=clear_memos,
        rounds=1,
        iterations=1,
    )
    save_figure(fig, out_dir)
    panel = fig.panels[0]
    # Frigo et al. factor-of-two envelope, checked on the largest order.
    assert panel.series["shared-opt LRU (2C)"][-1] <= panel.series["2x Formula (C)"][-1]
