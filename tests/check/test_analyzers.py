"""Each analyzer must fire on a deliberately broken schedule.

The synthetic schedules below are minimal: each seeds exactly one class
of violation into an otherwise well-formed event stream, so a failing
assertion pins the blame on one analyzer.  The clean-schedule tests in
``test_runner.py`` prove the complements (no false positives on the
real algorithms).
"""

from __future__ import annotations

from typing import List

import pytest

from repro.cache.block import MAT_A, MAT_B, MAT_C, block_key
from repro.check import (
    REGISTRY,
    AnalysisContext,
    analyze_schedule,
    check_coverage,
    check_parameters,
    check_races,
    check_residency,
)
from repro.check.events import Event
from repro.check.findings import ERROR, FINDING_LIMIT, WARNING, Finding


def a(i: int, k: int) -> int:
    return block_key(MAT_A, i, k)


def b(k: int, j: int) -> int:
    return block_key(MAT_B, k, j)


def c(i: int, j: int) -> int:
    return block_key(MAT_C, i, j)


def record_1x1x1(ctx: AnalysisContext, core: int = 0) -> None:
    """A complete, correct 1x1x1 product on one core."""
    for key in (c(0, 0), a(0, 0), b(0, 0)):
        ctx.load_shared(key)
        ctx.load_dist(core, key)
    ctx.compute(core, c(0, 0), a(0, 0), b(0, 0))
    for key in (a(0, 0), b(0, 0), c(0, 0)):
        ctx.evict_dist(core, key)
        ctx.evict_shared(key)


def errors(findings: List[object]) -> List[object]:
    return [f for f in findings if f.severity == ERROR]


def capacity_findings(
    events: List[Event], cs: int, cd: int, p: int, **context: str
) -> List[Finding]:
    """The capacity findings of the residency walk."""
    findings = check_residency(events, cs, cd, p, **context)[0]
    return [f for f in findings if f.analyzer == "capacity"]


def presence_findings(events: List[Event], p: int) -> List[Finding]:
    """The presence findings of the residency walk.

    The capacities exceed any log's block count, so the walk's
    capacity proof stays silent.
    """
    room = len(events) + 1
    findings = check_residency(events, room, room, p)[0]
    assert all(f.analyzer == "presence" for f in findings)
    return findings


class TestCapacity:
    def test_clean_baseline(self) -> None:
        ctx = AnalysisContext(1)
        record_1x1x1(ctx)
        assert capacity_findings(ctx.events, cs=4, cd=4, p=1) == []
        # The whole walk is clean at these capacities, presence included.
        assert check_residency(ctx.events, 4, 4, 1)[0] == []

    def test_capacity_findings_precede_presence_findings(self) -> None:
        ctx = AnalysisContext(1)
        ctx.evict_shared(b(0, 0))  # presence error at event 0
        ctx.load_shared(a(0, 0))
        ctx.load_shared(a(1, 0))  # capacity error at event 2
        found = check_residency(ctx.events, 1, 1, 1)[0]
        assert [f.analyzer for f in found] == ["capacity"] + ["presence"] * 3
        assert [f.event for f in found[:2]] == [2, 0]

    def test_shared_overflow_flagged(self) -> None:
        # Load cs+1 distinct blocks into the shared cache, evict none.
        ctx = AnalysisContext(1)
        for i in range(5):
            ctx.load_shared(a(i, 0))
        found = capacity_findings(ctx.events, cs=4, cd=4, p=1)
        assert len(found) == 1
        assert found[0].severity == ERROR
        assert "shared cache overflow" in found[0].message
        assert found[0].event == 4  # the fifth load is the culprit

    def test_distributed_overflow_flagged(self) -> None:
        ctx = AnalysisContext(2)
        for i in range(3):
            ctx.load_shared(a(i, 0))
            ctx.load_dist(1, a(i, 0))
        found = capacity_findings(ctx.events, cs=10, cd=2, p=2)
        assert len(found) == 1
        assert "core 1 overflow" in found[0].message

    def test_eviction_frees_room(self) -> None:
        ctx = AnalysisContext(1)
        for i in range(6):
            ctx.load_shared(a(i, 0))
            ctx.evict_shared(a(i, 0))
        assert capacity_findings(ctx.events, cs=1, cd=1, p=1) == []

    def test_redundant_load_does_not_grow_set(self) -> None:
        ctx = AnalysisContext(1)
        ctx.load_shared(a(0, 0))
        ctx.load_shared(a(0, 0))
        assert capacity_findings(ctx.events, cs=1, cd=1, p=1) == []


class TestParameters:
    def test_clean_on_valid_algorithm(self, quad) -> None:
        from repro.algorithms.shared_opt import SharedOpt

        alg = SharedOpt(quad, 9, 9, 9)
        assert check_parameters(alg, machine="quad") == []

    def test_lambda_violation_flagged(self, quad) -> None:
        # Bypass the constructor guard the way a refactor bug would.
        from repro.algorithms.shared_opt import SharedOpt

        alg = SharedOpt(quad, 9, 9, 9)
        alg.lam = quad.cs  # 1 + CS + CS**2 > CS, grossly over
        found = check_parameters(alg, machine="quad")
        assert len(found) == 1
        assert "1 + λ + λ²" in found[0].message

    def test_mu_violation_flagged(self, quad) -> None:
        from repro.algorithms.distributed_opt import DistributedOpt

        alg = DistributedOpt(quad, 8, 8, 8)
        alg.mu = quad.cd
        found = check_parameters(alg, machine="quad")
        assert any("µ²" in f.message for f in found)

    def test_alpha_alignment_flagged(self, quad) -> None:
        from repro.algorithms.tradeoff import Tradeoff

        alg = Tradeoff(quad, 8, 8, 8)
        alg.alpha += 1  # no longer a multiple of sqrt(p)*mu
        found = check_parameters(alg, machine="quad")
        assert any("multiple of √p·µ" in f.message for f in found)

    def test_caught_where_the_working_sets_fit(self) -> None:
        # The residency walk does not imply this rule: at order 19 the
        # over-sized plan never overflows the shared cache.
        from repro.algorithms.tradeoff import Tradeoff
        from repro.model.machine import preset

        alg = Tradeoff(preset("q32"), 19, 19, 19)
        alg.beta += 1  # alpha² + 2·alpha·beta = 992 > CS = 977
        report = analyze_schedule(alg, machine_label="q32")
        assert [f.rule_id for f in report.findings] == ["capacity/param-constraint"]


class TestPresence:
    def test_clean_baseline(self) -> None:
        ctx = AnalysisContext(1)
        record_1x1x1(ctx)
        assert presence_findings(ctx.events, p=1) == []

    def test_compute_without_load_flagged(self) -> None:
        # The seeded bug: compute with no load anywhere.
        ctx = AnalysisContext(1)
        ctx.load_shared(c(0, 0))  # only C is staged properly...
        ctx.load_dist(0, c(0, 0))
        ctx.compute(0, c(0, 0), a(0, 0), b(0, 0))  # ...A and B are not
        found = errors(presence_findings(ctx.events, p=1))
        assert len(found) == 2
        assert all("not resident" in f.message for f in found)

    def test_load_dist_of_absent_block_flagged(self) -> None:
        ctx = AnalysisContext(1)
        ctx.load_dist(0, a(0, 0))  # never entered the shared cache
        found = errors(presence_findings(ctx.events, p=1))
        assert any("absent from the shared cache" in f.message for f in found)

    def test_inclusion_violation_flagged(self) -> None:
        ctx = AnalysisContext(2)
        ctx.load_shared(a(0, 0))
        ctx.load_dist(1, a(0, 0))
        ctx.evict_shared(a(0, 0))  # core 1 still holds it
        found = errors(presence_findings(ctx.events, p=2))
        assert len(found) == 1
        assert "core(s) [1] still hold it" in found[0].message

    def test_double_eviction_flagged(self) -> None:
        ctx = AnalysisContext(1)
        ctx.load_shared(a(0, 0))
        ctx.evict_shared(a(0, 0))
        ctx.evict_shared(a(0, 0))
        found = errors(presence_findings(ctx.events, p=1))
        assert any("spurious shared eviction" in f.message for f in found)

    def test_dead_load_is_a_warning(self) -> None:
        ctx = AnalysisContext(1)
        ctx.load_shared(a(0, 0))
        ctx.evict_shared(a(0, 0))  # loaded, never consumed
        found = presence_findings(ctx.events, p=1)
        assert [f.severity for f in found] == [WARNING]
        assert "dead shared load" in found[0].message

    def test_leaked_residency_is_a_warning(self) -> None:
        ctx = AnalysisContext(1)
        ctx.load_shared(a(0, 0))
        ctx.load_dist(0, a(0, 0))
        found = presence_findings(ctx.events, p=1)
        assert all(f.severity == WARNING for f in found)
        assert any("still resident" in f.message for f in found)

    def test_writeback_counts_as_shared_use(self) -> None:
        # C round-trips without a distributed re-read of the shared
        # copy; the dirty write-back is what justifies the shared load.
        ctx = AnalysisContext(1)
        record_1x1x1(ctx)
        assert all("dead" not in f.message for f in presence_findings(ctx.events, p=1))


class TestCoverage:
    def test_clean_baseline(self) -> None:
        ctx = AnalysisContext(1)
        record_1x1x1(ctx)
        assert check_coverage(ctx.events, 1, 1, 1) == []

    def test_missing_contribution_flagged(self) -> None:
        ctx = AnalysisContext(1)
        ctx.compute(0, c(0, 0), a(0, 0), b(0, 0))
        # z=2: the k=1 contribution is never emitted.
        found = check_coverage(ctx.events, 1, 1, 2)
        assert len(found) == 1
        assert "accumulated 1/2 contributions" in found[0].message

    def test_duplicate_update_flagged(self) -> None:
        ctx = AnalysisContext(1)
        ctx.compute(0, c(0, 0), a(0, 0), b(0, 0))
        ctx.compute(0, c(0, 0), a(0, 0), b(0, 0))
        found = check_coverage(ctx.events, 1, 1, 1)
        assert len(found) == 1
        assert "emitted twice" in found[0].message

    def test_inconsistent_coordinates_flagged(self) -> None:
        ctx = AnalysisContext(1)
        # C[0,0] += A[0,0] * B[1,0]: inner indices disagree (k=0 vs k=1).
        ctx.compute(0, c(0, 0), a(0, 0), b(1, 0))
        found = check_coverage(ctx.events, 1, 1, 2)
        assert any("inconsistent coordinates" in f.message for f in found)

    def test_wrong_matrix_flagged(self) -> None:
        ctx = AnalysisContext(1)
        ctx.compute(0, c(0, 0), b(0, 0), a(0, 0))  # A and B swapped
        found = check_coverage(ctx.events, 1, 1, 1)
        assert any("operands from A, B and C" in f.message for f in found)

    def test_out_of_range_flagged(self) -> None:
        ctx = AnalysisContext(1)
        ctx.compute(0, c(2, 0), a(2, 0), b(0, 0))  # i=2 outside m=1
        found = check_coverage(ctx.events, 1, 1, 1)
        assert any("outside the 1×1×1 iteration space" in f.message for f in found)


class TestRaces:
    def test_two_cores_same_c_block_races(self) -> None:
        # The canonical seeded race: both cores accumulate into C[0,0]
        # within one epoch (no shared-level barrier between them).
        ctx = AnalysisContext(2)
        ctx.load_shared(c(0, 0))
        ctx.load_shared(a(0, 0))
        ctx.load_shared(b(0, 0))
        ctx.load_shared(a(0, 1))
        ctx.load_shared(b(1, 0))
        for core, k in ((0, 0), (1, 1)):
            ctx.load_dist(core, c(0, 0))
            ctx.load_dist(core, a(0, k))
            ctx.load_dist(core, b(k, 0))
            ctx.compute(core, c(0, 0), a(0, k), b(k, 0))
        found = check_races(ctx.events, p=2)
        # Two distinct races: core 1's load_dist of C reads what core 0
        # concurrently writes, then core 1's own compute write/writes it.
        assert [f.severity for f in found] == [ERROR, ERROR]
        assert "read/write race on C[0,0]" in found[0].message
        assert "write/write race on C[0,0]" in found[1].message

    def test_barrier_between_writers_synchronizes(self) -> None:
        # Same accesses, but an evict_shared (master barrier) separates
        # the two cores' epochs: no race.
        ctx = AnalysisContext(2)
        for core, k in ((0, 0), (1, 1)):
            ctx.load_shared(a(0, k))  # barrier opens a new epoch
            ctx.load_dist(core, c(0, 0))
            ctx.load_dist(core, a(0, k))
            ctx.load_dist(core, b(k, 0))
            ctx.compute(core, c(0, 0), a(0, k), b(k, 0))
            ctx.evict_dist(core, c(0, 0))
            ctx.evict_shared(a(0, k))
        assert check_races(ctx.events, p=2) == []

    def test_read_write_race_flagged(self) -> None:
        # Core 0 writes a block core 1 concurrently reads.
        ctx = AnalysisContext(2)
        ctx.load_shared(c(0, 0))
        ctx.load_dist(1, c(0, 0))  # reader
        ctx.load_dist(0, c(0, 0))
        ctx.load_dist(0, a(0, 0))
        ctx.load_dist(0, b(0, 0))
        ctx.compute(0, c(0, 0), a(0, 0), b(0, 0))  # writer
        found = check_races(ctx.events, p=2)
        assert len(found) == 1
        assert "read/write race on C[0,0]" in found[0].message

    def test_shared_reads_do_not_race(self) -> None:
        # Both cores read the same A element concurrently: fine (this
        # is exactly how distributed-opt shares A along grid rows).
        ctx = AnalysisContext(2)
        ctx.load_shared(a(0, 0))
        ctx.load_dist(0, a(0, 0))
        ctx.load_dist(1, a(0, 0))
        assert check_races(ctx.events, p=2) == []

    def test_dirty_writeback_races_with_reader(self) -> None:
        ctx = AnalysisContext(2)
        ctx.load_shared(c(0, 0))
        ctx.load_shared(a(0, 0))
        ctx.load_shared(b(0, 0))
        ctx.load_dist(0, c(0, 0))
        ctx.load_dist(0, a(0, 0))
        ctx.load_dist(0, b(0, 0))
        ctx.compute(0, c(0, 0), a(0, 0), b(0, 0))
        ctx.evict_dist(0, c(0, 0))  # dirty write-back = write...
        ctx.load_dist(1, c(0, 0))  # ...concurrent with this read
        found = check_races(ctx.events, p=2)
        assert len(found) >= 1
        assert any("C[0,0]" in f.message for f in found)

    def test_clean_eviction_is_not_a_write(self) -> None:
        ctx = AnalysisContext(2)
        ctx.load_shared(a(0, 0))
        ctx.load_dist(0, a(0, 0))
        ctx.evict_dist(0, a(0, 0))  # clean: data untouched
        ctx.load_dist(1, a(0, 0))
        assert check_races(ctx.events, p=2) == []


class TestFindingLimiter:
    def test_flood_is_capped_with_suppression_notice(self) -> None:
        ctx = AnalysisContext(1)
        for i in range(40):
            ctx.evict_shared(a(i, 0))  # 40 spurious evictions
        found = presence_findings(ctx.events, p=1)
        assert len(found) == FINDING_LIMIT + 1 == 26
        assert "further findings suppressed" in found[-1].message
        assert found[-1].rule_id == "meta/findings-capped"
        assert found[-1].analyzer == "presence"

    def test_every_capped_analyzer_emits_registered_rules(self) -> None:
        flood = 2 * FINDING_LIMIT
        ctx = AnalysisContext(2)
        for i in range(flood):
            ctx.load_shared(a(i, 0))  # past CS=1, never used
        for i in range(flood):
            # Both cores write C[i,1] in one epoch, outside the 1x1x1
            # space, with operands that were never loaded.
            ctx.compute(0, c(i, 1), a(i, 1), b(1, 1))
            ctx.compute(1, c(i, 1), a(i, 1), b(1, 1))
        found = {
            "capacity": capacity_findings(ctx.events, cs=1, cd=1, p=2),
            "presence": presence_findings(ctx.events, p=2),
            "coverage": check_coverage(ctx.events, 1, 1, 1),
            "race": check_races(ctx.events, p=2),
        }
        for analyzer, findings in found.items():
            assert len(findings) == FINDING_LIMIT + 1, analyzer
            assert findings[-1].rule_id == "meta/findings-capped"
            assert findings[-1].analyzer == analyzer
            assert {f.rule_id for f in findings} <= set(REGISTRY), analyzer

    def test_raw_tuples_accepted(self) -> None:
        # Analyzers take plain event sequences, not only contexts.
        events: List[Event] = [(1, -1, a(0, 0))]
        found = presence_findings(events, p=1)
        assert len(found) == 1


class TestRendering:
    def test_finding_render_carries_context(self) -> None:
        ctx = AnalysisContext(1)
        for i in range(5):
            ctx.load_shared(a(i, 0))
        found = capacity_findings(
            ctx.events, cs=4, cd=4, p=1, algorithm="demo", machine="q32"
        )
        text = found[0].render()
        assert "capacity" in text
        assert "demo @ q32" in text
        assert "(event 4)" in text

    def test_to_dict_round_trips_fields(self) -> None:
        ctx = AnalysisContext(1)
        ctx.evict_shared(a(0, 0))
        d = presence_findings(ctx.events, p=1)[0].to_dict()
        assert d["analyzer"] == "presence"
        assert d["severity"] == ERROR
