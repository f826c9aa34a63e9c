"""Lineage bench — the single-level Maximum Reuse story (§3 recap).

Reproduces the comparison the multicore paper inherits from [7]:
Maximum Reuse vs Toledo's equal thirds on one bounded memory, CCR
against the ``√(27/8M)`` bound.  On one core whose shared cache is that
memory, Shared Opt. and Shared Equal are the two schedules: ``MS`` and
``peak_shared`` are their loads and peak.  Artifact:
out/lineage_singlelevel.txt.
"""

from repro.algorithms.equal import SharedEqual
from repro.algorithms.shared_opt import SharedOpt
from repro.cache.hierarchy import IdealHierarchy
from repro.experiments.io import render_rows
from repro.model.bounds import ccr_lower_bound
from repro.model.machine import MulticoreMachine
from repro.sim.contexts import IdealContext
from repro.store.atomic import atomic_write_text

MEMORY = 91  # mu = 9 (1+9+81), t = 5 (3*25 = 75)
ORDER = 45  # divisible by both tile sides
# The distributed cache only stages each multiply-add's three operands.
ONE_MEMORY = MulticoreMachine(p=1, cs=MEMORY, cd=3)


def bench_single_level_ccr(benchmark, out_dir):
    def run():
        rows = []
        for name, schedule in (
            ("single-max-reuse", SharedOpt),
            ("single-equal", SharedEqual),
        ):
            hierarchy = IdealHierarchy(1)
            ctx = IdealContext(hierarchy)
            schedule(ONE_MEMORY, ORDER, ORDER, ORDER).run(ctx)
            assert ctx.comp_total == ORDER**3
            rows.append(
                {
                    "schedule": name,
                    "M": MEMORY,
                    "loads": hierarchy.ms,
                    "CCR": round(hierarchy.ms / ORDER**3, 4),
                    "CCR bound": round(ccr_lower_bound(MEMORY), 4),
                    "peak": hierarchy.peak_shared,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    atomic_write_text(out_dir / "lineage_singlelevel.txt", render_rows(rows))
    max_reuse, equal = rows
    # [7]'s claim: max reuse beats the equal split and nears the bound
    assert max_reuse["loads"] < equal["loads"]
    assert max_reuse["CCR"] < 2.0 * max_reuse["CCR bound"]
