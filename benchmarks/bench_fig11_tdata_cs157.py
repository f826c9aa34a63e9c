"""Figure 11 — Tdata of all six algorithms, CS = 157, CD ∈ {4, 3}.

Regenerates the paper's Fig. 11(a–d) at q = 80, the configuration where
parameter rounding hurts Tradeoff and Shared Opt. catches up.
"""

from benchmarks.conftest import save_figure
from repro.experiments.figures import figure11
from repro.sim import clear_memos


def bench_figure11(benchmark, orders, out_dir):
    # Cold: a figure bench times the figure, not what earlier benches
    # left in the result memo.
    fig = benchmark.pedantic(
        figure11,
        kwargs={"orders": tuple(orders)},
        setup=clear_memos,
        rounds=1,
        iterations=1,
    )
    save_figure(fig, out_dir)
    for panel in fig.panels:
        so_label = [k for k in panel.series if k.startswith("shared-opt")][0]
        to_label = [k for k in panel.series if k.startswith("tradeoff")][0]
        # Tradeoff no longer clearly dominates Shared Opt. here.
        assert panel.series[so_label][-1] <= 1.6 * panel.series[to_label][-1]
