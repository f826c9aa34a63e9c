"""Ablation — full associativity vs realistic set-associative caches.

The paper's model assumes fully associative caches.  This bench runs
Shared Opt. through the same LRU-50 setting with hardware-realistic
replacements: 8-way and 4-way set-associative LRU, and 8-way with tree
pseudo-LRU per set.  The gap quantifies how much of the Maximum-Reuse
layout's benefit survives real cache organizations.
Artifact: out/ablation_associativity.txt.
"""

from repro.experiments.io import render_rows
from repro.model.machine import MulticoreMachine
from repro.sim.runner import clear_memos, run_experiment
from repro.store.atomic import atomic_write_text

# A q32-like machine with way-friendly capacities (multiples of 8).
MACHINE = MulticoreMachine(p=4, cs=976, cd=16, q=32, name="assoc-ablation")
ORDER = 32

POLICIES = ("lru", "assoc8", "assoc4", "assoc8-plru")


def bench_associativity(benchmark, out_dir):
    def run():
        rows = []
        for policy in POLICIES:
            r = run_experiment(
                "shared-opt",
                MACHINE,
                ORDER,
                ORDER,
                ORDER,
                "lru-50",
                policy=policy,
                engine="step",
            )
            rows.append({"policy": policy, "MS": r.ms, "MD": r.md})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    atomic_write_text(out_dir / "ablation_associativity.txt", render_rows(rows))
    by_policy = {r["policy"]: r for r in rows}
    compulsory = 3 * ORDER * ORDER
    for row in rows:
        assert row["MS"] >= compulsory
    # lower associativity generally costs conflict misses on this
    # tile-reuse-heavy pattern
    assert by_policy["assoc4"]["MS"] >= by_policy["lru"]["MS"] * 0.95


def bench_plru_vs_lru(benchmark):
    def run():
        clear_memos()  # bench_associativity ran the assoc8 cell
        lru = run_experiment(
            "shared-opt",
            MACHINE,
            ORDER,
            ORDER,
            ORDER,
            "lru-50",
            policy="assoc8",
            engine="step",
        )
        plru = run_experiment(
            "shared-opt",
            MACHINE,
            ORDER,
            ORDER,
            ORDER,
            "lru-50",
            policy="assoc8-plru",
            engine="step",
        )
        return lru.ms, plru.ms

    lru_ms, plru_ms = benchmark.pedantic(run, rounds=1, iterations=1)
    # the heuristic stays within 2x of exact per-set LRU
    assert plru_ms <= 2 * lru_ms
