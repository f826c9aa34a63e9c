"""Figure 10 — Tdata of all six algorithms, CS = 245, CD ∈ {6, 4}.

Regenerates the paper's Fig. 10(a–d) at q = 64, where µ = 1 and the
Maximum-Reuse advantage at the distributed level disappears.
"""

from benchmarks.conftest import save_figure
from repro.experiments.figures import figure10
from repro.sim import clear_memos


def bench_figure10(benchmark, orders, out_dir):
    # Cold: a figure bench times the figure, not what earlier benches
    # left in the result memo.
    fig = benchmark.pedantic(
        figure10,
        kwargs={"orders": tuple(orders)},
        setup=clear_memos,
        rounds=1,
        iterations=1,
    )
    save_figure(fig, out_dir)
    for panel in fig.panels:
        # Shared Opt. and Tradeoff lead; Outer Product trails badly.
        lead = min(
            v[-1]
            for k, v in panel.series.items()
            if k != "Lower Bound"
        )
        op_label = [k for k in panel.series if k.startswith("outer-product")][0]
        assert panel.series[op_label][-1] > 1.5 * lead
