"""Tests for sweep machinery and result containers."""

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.results import SweepResult
from repro.sim.sweep import order_sweep, ratio_sweep, resolve_entries, series_label


class TestOrderSweep:
    def test_basic(self, quad):
        sweep = order_sweep(
            [("shared-opt", "ideal"), ("outer-product", "ideal")],
            quad,
            [4, 8],
        )
        assert sweep.variable == "order"
        assert sweep.xs == [4, 8]
        assert set(sweep.labels()) == {
            "shared-opt ideal",
            "outer-product ideal",
        }
        ms = sweep.values("shared-opt ideal", "ms")
        assert len(ms) == 2 and ms[1] > ms[0]

    def test_entry_with_params(self, quad):
        sweep = order_sweep(
            [("shared-opt", "ideal", {"lam": 4})], quad, [8]
        )
        result = sweep.series["shared-opt ideal lam=4"][0]
        assert result.parameters["lambda"] == 4

    def test_param_variants_keep_distinct_series(self, quad):
        # Regression: two entries differing only in params used to
        # collapse onto one label, silently dropping the first series.
        sweep = order_sweep(
            [
                ("shared-opt", "ideal", {"lam": 4}),
                ("shared-opt", "ideal", {"lam": 8}),
            ],
            quad,
            [8],
        )
        assert set(sweep.labels()) == {
            "shared-opt ideal lam=4",
            "shared-opt ideal lam=8",
        }
        r4 = sweep.series["shared-opt ideal lam=4"][0]
        r8 = sweep.series["shared-opt ideal lam=8"][0]
        assert r4.parameters["lambda"] == 4
        assert r8.parameters["lambda"] == 8

    def test_duplicate_entries_rejected(self, quad):
        with pytest.raises(ConfigurationError, match="duplicate series label"):
            order_sweep(
                [("shared-opt", "ideal"), ("shared-opt", "ideal")],
                quad,
                [4],
            )

    def test_square_dims(self, quad):
        sweep = order_sweep([("shared-opt", "ideal")], quad, [6])
        r = sweep.series["shared-opt ideal"][0]
        assert (r.m, r.n, r.z) == (6, 6, 6)


class TestParallelOrderSweep:
    ENTRIES = [
        ("shared-opt", "lru-50"),
        ("shared-opt", "ideal"),
        ("outer-product", "lru-50"),
    ]

    def test_workers_match_serial(self, quad):
        serial = order_sweep(self.ENTRIES, quad, [4, 6, 8])
        par = order_sweep(self.ENTRIES, quad, [4, 6, 8], workers=2)
        assert par.xs == serial.xs
        for label in serial.labels():
            for metric in ("ms", "md", "tdata"):
                assert par.values(label, metric) == serial.values(label, metric)

    def test_workers_forward_policy_and_params(self, quad):
        par = order_sweep(
            [("shared-opt", "lru-50", {"lam": 4})],
            quad,
            [8],
            policy="fifo",
            workers=2,
        )
        serial = order_sweep(
            [("shared-opt", "lru-50", {"lam": 4})], quad, [8], policy="fifo"
        )
        r = par.series["shared-opt lru-50 lam=4"][0]
        assert r.parameters["lambda"] == 4
        assert r.stats == serial.series["shared-opt lru-50 lam=4"][0].stats

    def test_worker_errors_propagate(self, quad):
        with pytest.raises(ConfigurationError):
            order_sweep([("shared-opt", "nope")], quad, [4], workers=2)


class TestRatioSweep:
    def test_tradeoff_adapts_along_ratio(self, paper_q32):
        sweep = ratio_sweep(
            [("tradeoff", "ideal")], paper_q32, [0.05, 0.95], order=8
        )
        results = sweep.series["tradeoff ideal"]
        # fast distributed (r small) -> big alpha; slow -> minimal alpha
        assert results[0].parameters["alpha"] > results[1].parameters["alpha"]

    def test_counts_same_but_tdata_differs(self, paper_q32):
        # For a non-adaptive algorithm the miss counts cannot depend on r.
        sweep = ratio_sweep(
            [("shared-opt", "ideal")], paper_q32, [0.2, 0.8], order=8
        )
        r1, r2 = sweep.series["shared-opt ideal"]
        assert r1.ms == r2.ms and r1.md == r2.md
        assert r1.tdata != r2.tdata

    def test_policy_forwarded(self, quad):
        # ratio_sweep silently dropped policy/inclusive before PR 4: the
        # kwargs never reached run_experiment, so every "fifo" ratio
        # sweep quietly simulated LRU.  shared-opt at order 10 on the
        # quad machine provably distinguishes the two policies.
        label = "shared-opt lru"
        lru = ratio_sweep([("shared-opt", "lru")], quad, [0.5], order=10)
        fifo = ratio_sweep(
            [("shared-opt", "lru")], quad, [0.5], order=10, policy="fifo"
        )
        assert (lru.series[label][0].ms, lru.series[label][0].md) != (
            fifo.series[label][0].ms,
            fifo.series[label][0].md,
        )

    def test_inclusive_forwarded(self, quad):
        label = "shared-opt lru"
        base = ratio_sweep([("shared-opt", "lru")], quad, [0.5], order=10)
        incl = ratio_sweep(
            [("shared-opt", "lru")], quad, [0.5], order=10, inclusive=True
        )
        assert (base.series[label][0].ms, base.series[label][0].md) != (
            incl.series[label][0].ms,
            incl.series[label][0].md,
        )


class TestSweepResult:
    def test_add_length_mismatch(self):
        sweep = SweepResult(variable="order", xs=[1, 2])
        with pytest.raises(ValueError):
            sweep.add("x", [])

    def test_series_label(self):
        assert series_label("tradeoff", "lru-50") == "tradeoff lru-50"

    def test_series_label_with_params(self):
        # Params are sorted by name so the label is deterministic.
        assert (
            series_label("shared-opt", "lru-50", {"lam": 8, "alpha": 2})
            == "shared-opt lru-50 alpha=2 lam=8"
        )
        assert series_label("tradeoff", "ideal", {}) == "tradeoff ideal"


class TestResolveEntries:
    def test_positions_in_duplicate_error(self):
        entries = [
            ("tradeoff", "ideal"),
            ("shared-opt", "ideal"),
            ("tradeoff", "ideal", {}),
        ]
        with pytest.raises(ConfigurationError, match="entries 1 and 3"):
            resolve_entries(entries)

    def test_resolves_params_and_labels(self):
        resolved = resolve_entries([("shared-opt", "lru", {"lam": 2})])
        assert resolved == [
            ("shared-opt", "lru", {"lam": 2}, "shared-opt lru lam=2")
        ]


class TestEngineKnob:
    def test_order_sweep_engines_agree(self, quad):
        # The order sweep has no engine knob; an entry's params reach
        # run_experiment, so they can still ask for replay, which IDEAL
        # cells get.
        entries = [("shared-opt", "ideal"), ("tradeoff", "ideal")]
        rep = order_sweep(
            [(alg, setting, {"engine": "replay"}) for alg, setting in entries],
            quad,
            [4, 6],
        )
        step = order_sweep(entries, quad, [4, 6])
        assert len(rep.labels()) == len(step.labels()) == len(entries)
        for rep_label, step_label in zip(rep.labels(), step.labels()):
            pairs = list(zip(rep.series[rep_label], step.series[step_label]))
            assert {(a.engine, b.engine) for a, b in pairs} == {("replay", "step")}
            for a, b in pairs:
                assert a.stats == b.stats

    def test_ratio_sweep_engines_agree(self, quad):
        rep = ratio_sweep([("tradeoff", "ideal")], quad, [0.3, 0.7], order=8)
        step = ratio_sweep(
            [("tradeoff", "ideal")], quad, [0.3, 0.7], order=8, engine="step"
        )
        for label in rep.labels():
            for a, b in zip(rep.series[label], step.series[label]):
                assert (a.engine, b.engine) == ("replay", "step")
                assert a.stats == b.stats

    def test_unknown_engine_rejected(self, quad):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            order_sweep([("shared-opt", "lru", {"engine": "warp"})], quad, [4])
