"""Figure 8 — distributed misses MD across algorithms.

Regenerates the paper's Fig. 8(a–c): Distributed Opt. (LRU-50, IDEAL),
Distributed Equal (LRU-50), Outer Product and the lower bound, for
CD ∈ {21, 16, 6}.  Panel (c) shows the µ=1 collapse at q=64.
"""

from benchmarks.conftest import save_figure
from repro.experiments.figures import figure8
from repro.sim import clear_memos


def bench_figure8(benchmark, orders, out_dir):
    # Cold: a figure bench times the figure, not what earlier benches
    # left in the result memo.
    fig = benchmark.pedantic(
        figure8,
        kwargs={"orders": tuple(orders)},
        setup=clear_memos,
        rounds=1,
        iterations=1,
    )
    save_figure(fig, out_dir)
    a, b, c = fig.panels
    # q=32 panels: Distributed Opt. wins at the distributed level.
    for panel in (a, b):
        assert (
            panel.series["Distributed Opt. LRU-50"][-1]
            < panel.series["Distributed Equal LRU-50"][-1]
        )
    # q=64 panel: advantage gone (µ = 1).
    assert (
        c.series["Distributed Opt. LRU-50"][-1]
        >= 0.95 * c.series["Distributed Equal LRU-50"][-1]
    )
