"""Figure 7 — shared misses MS across algorithms, three cache configs.

Regenerates the paper's Fig. 7(a–c): Shared Opt. (LRU-50 and IDEAL),
Shared Equal (LRU-50), Outer Product and the lower bound, for
(CS, q) ∈ {(977, 32), (245, 64), (157, 80)}.
"""

from benchmarks.conftest import save_figure
from repro.experiments.figures import figure7
from repro.sim import clear_memos


def bench_figure7(benchmark, orders, out_dir):
    # Cold: a figure bench times the figure, not what earlier benches
    # left in the result memo.
    fig = benchmark.pedantic(
        figure7,
        kwargs={"orders": tuple(orders)},
        setup=clear_memos,
        rounds=1,
        iterations=1,
    )
    save_figure(fig, out_dir)
    for panel in fig.panels:
        # the paper's ranking at the largest swept order
        assert (
            panel.series["Shared Opt. LRU-50"][-1]
            < panel.series["Outer Product"][-1]
        )
        assert (
            panel.series["Lower Bound"][-1]
            <= panel.series["Shared Opt. IDEAL"][-1]
        )
