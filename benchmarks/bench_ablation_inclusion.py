"""Ablation — enforcing inclusivity in LRU mode (DESIGN.md choice #1).

The paper assumes inclusive caches; a straightforward two-level LRU is
not inclusive.  This bench quantifies both the miss-count and the
simulation-time impact of back-invalidation on a full Shared Opt. run.
"""

from repro.model.machine import preset
from repro.sim.runner import clear_memos, run_experiment
from repro.store.atomic import atomic_write_text

ORDER = 32


def bench_lru_non_inclusive(benchmark):
    result = benchmark.pedantic(
        run_experiment,
        args=("shared-opt", preset("q32"), ORDER, ORDER, ORDER, "lru-50"),
        kwargs={"inclusive": False},
        rounds=1,
        iterations=1,
    )
    assert result.ms > 0


def bench_lru_inclusive(benchmark):
    result = benchmark.pedantic(
        run_experiment,
        args=("shared-opt", preset("q32"), ORDER, ORDER, ORDER, "lru-50"),
        kwargs={"inclusive": True, "engine": "step"},
        rounds=1,
        iterations=1,
    )
    assert result.ms > 0


def bench_inclusion_miss_count_effect(benchmark, out_dir):
    """Record the count deltas (artifact: out/ablation_inclusion.txt)."""

    def run():
        clear_memos()  # the benches above ran both cells
        rows = []
        for inclusive in (False, True):
            r = run_experiment(
                "shared-opt",
                preset("q32"),
                ORDER,
                ORDER,
                ORDER,
                "lru-50",
                inclusive=inclusive,
                engine="step",
            )
            rows.append((inclusive, r.ms, r.md))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["inclusive  MS  MD"] + [f"{i}  {ms}  {md}" for i, ms, md in rows]
    atomic_write_text(out_dir / "ablation_inclusion.txt", "\n".join(lines) + "\n")
    # back-invalidation can only add distributed misses
    assert rows[1][2] >= rows[0][2]
