"""Figure 9 — Tdata of all six algorithms, CS = 977, CD ∈ {21, 16}.

Regenerates the paper's Fig. 9(a–d): LRU-50 and IDEAL settings over the
optimistic and pessimistic distributed-cache capacities at q = 32.
"""

from benchmarks.conftest import save_figure
from repro.experiments.figures import figure9
from repro.sim import clear_memos


def bench_figure9(benchmark, orders, out_dir):
    # Cold: a figure bench times the figure, not what earlier benches
    # left in the result memo.
    fig = benchmark.pedantic(
        figure9,
        kwargs={"orders": tuple(orders)},
        setup=clear_memos,
        rounds=1,
        iterations=1,
    )
    save_figure(fig, out_dir)
    for panel in fig.panels:
        if "IDEAL" in panel.title:
            # Fig. 9(b)/(d): Tradeoff outperforms everything under IDEAL.
            t = panel.series["tradeoff IDEAL"][-1]
            for label, values in panel.series.items():
                if label not in ("tradeoff IDEAL", "Lower Bound"):
                    assert t <= values[-1]
