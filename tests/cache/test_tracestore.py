"""On-disk trace tier: round-trips, crash consistency, tier scans.

The tier's contract is "a valid entry or a miss, never an exception":
torn writes, stale formats and corrupt files must all degrade to cache
misses, and a loaded trace must replay bit-identically to the
in-memory one it was stored from (replay runs off the read-only
memmap).  These tests also pin the integration surface —
:func:`repro.cache.replay.compiled_trace_for` promoting compiled
traces to disk and reporting ``origin`` telemetry — and the scan
behind ``repro-mmm traces stats``.
"""

import json

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.cache import replay, tracestore
from repro.cache.replay import (
    compile_trace,
    compiled_trace_for,
    configure_trace_tier,
    replay_bulk,
    replay_ideal,
)
from repro.model.machine import PRESETS
from repro.sim.runner import clear_memos

MACHINE = PRESETS["q32"]


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_memos()
    configure_trace_tier(None)
    yield
    clear_memos()
    configure_trace_tier(None)


def _alg(m=6, n=6, z=6, name="shared-opt"):
    return get_algorithm(name)(MACHINE, m, n, z)


class TestRoundTrip:
    def test_store_load_preserves_trace(self, tmp_path):
        alg = _alg()
        trace = compile_trace(alg, directives=True)
        fp = alg.schedule_key()
        assert tracestore.store(tmp_path, fp, trace)
        loaded = tracestore.load(tmp_path, fp)
        assert loaded is not None
        assert loaded.p == trace.p
        assert list(loaded.comp) == list(trace.comp)
        assert loaded.has_directives
        assert np.array_equal(loaded.fma_array, trace.fma_array)

    def test_loaded_trace_replays_bit_identically(self, tmp_path):
        alg = _alg(7, 5, 9)
        trace = compile_trace(alg, directives=True)
        fp = alg.schedule_key()
        tracestore.store(tmp_path, fp, trace)
        loaded = tracestore.load(tmp_path, fp)
        cells = [("lru", 16, 3), ("fifo", 16, 3)]
        assert replay_bulk(loaded, cells) == replay_bulk(trace, cells)
        assert replay_ideal(loaded) == replay_ideal(trace)

    def test_loaded_fma_array_is_readonly_memmap(self, tmp_path):
        alg = _alg()
        trace = compile_trace(alg, directives=False)
        fp = alg.schedule_key()
        tracestore.store(tmp_path, fp, trace)
        loaded = tracestore.load(tmp_path, fp)
        assert isinstance(loaded.fma_array, np.memmap)
        assert not loaded.fma_array.flags.writeable

    def test_compute_only_store_has_no_directives(self, tmp_path):
        alg = _alg()
        trace = compile_trace(alg, directives=False)
        fp = alg.schedule_key()
        tracestore.store(tmp_path, fp, trace)
        loaded = tracestore.load(tmp_path, fp)
        assert loaded is not None
        assert not loaded.has_directives


class TestCrashConsistency:
    def test_absent_entry_is_a_miss(self, tmp_path):
        assert tracestore.load(tmp_path, ("nope",)) is None

    def test_torn_write_without_meta_is_a_miss(self, tmp_path):
        """Arrays on disk but no meta.json — the pre-crash window."""
        alg = _alg()
        trace = compile_trace(alg, directives=False)
        fp = alg.schedule_key()
        tracestore.store(tmp_path, fp, trace)
        (tracestore.entry_dir(tmp_path, fp) / "meta.json").unlink()
        assert tracestore.load(tmp_path, fp) is None

    def test_corrupt_meta_is_a_miss(self, tmp_path):
        alg = _alg()
        trace = compile_trace(alg, directives=False)
        fp = alg.schedule_key()
        tracestore.store(tmp_path, fp, trace)
        (tracestore.entry_dir(tmp_path, fp) / "meta.json").write_text("{oops")
        assert tracestore.load(tmp_path, fp) is None

    def test_truncated_array_is_a_miss_not_an_exception(self, tmp_path):
        alg = _alg()
        trace = compile_trace(alg, directives=False)
        fp = alg.schedule_key()
        tracestore.store(tmp_path, fp, trace)
        entry = tracestore.entry_dir(tmp_path, fp)
        # shrink the array under an unchanged meta.json
        arr = np.load(entry / "fmas.npy")
        np.save(entry / "fmas.npy", arr[:1])
        assert tracestore.load(tmp_path, fp) is None

    def test_foreign_format_version_is_a_miss(self, tmp_path):
        alg = _alg()
        trace = compile_trace(alg, directives=False)
        fp = alg.schedule_key()
        tracestore.store(tmp_path, fp, trace)
        meta_path = tracestore.entry_dir(tmp_path, fp) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = tracestore.FORMAT_VERSION + 1
        meta_path.write_text(json.dumps(meta))
        assert tracestore.load(tmp_path, fp) is None


class TestTierIntegration:
    def test_compiled_trace_promoted_to_disk_then_shared(self, tmp_path):
        configure_trace_tier(str(tmp_path))
        first = compiled_trace_for(_alg())
        assert first.origin == "compiled"
        # no trace stays in memory: every later call, in this process or
        # another, memmaps the tier's entry
        for _ in range(2):
            again = compiled_trace_for(_alg())
            assert again.origin == "disk"
            assert np.array_equal(again.fma_array, first.fma_array)

    def test_directive_upgrade_recompiles_and_restores(self, tmp_path):
        configure_trace_tier(str(tmp_path))
        tracestore.store(
            tmp_path, _alg().schedule_key(), compile_trace(_alg(), directives=False)
        )
        upgraded = compiled_trace_for(_alg())
        assert upgraded.origin == "compiled"
        assert upgraded.has_directives
        assert compiled_trace_for(_alg()).origin == "disk"

    def test_tier_info(self, tmp_path):
        configure_trace_tier(str(tmp_path))
        compiled_trace_for(_alg())
        compiled_trace_for(_alg())
        info = tracestore.tier_info(tmp_path)
        assert info["entries"] == 1
        assert info["fmas"] == len(compile_trace(_alg()))
        assert info["bytes"] > 0
        assert info["directive_entries"] == 1

    def test_tier_info_on_missing_dir(self, tmp_path):
        info = tracestore.tier_info(tmp_path / "nothing")
        assert info == {
            "entries": 0,
            "fmas": 0,
            "bytes": 0,
            "directive_entries": 0,
        }

    def test_content_key_is_stable_and_distinct(self):
        fp_a = _alg().schedule_key()
        fp_b = _alg(7, 5, 9).schedule_key()
        assert tracestore.content_key(fp_a) == tracestore.content_key(fp_a)
        assert tracestore.content_key(fp_a) != tracestore.content_key(fp_b)
