"""Tests for the checkpoint log: checksums, torn tails, quarantine."""

import json

import pytest

from repro.model.machine import MulticoreMachine
from repro.store.checkpoint import (
    CHECKPOINT_SCHEMA,
    CellKey,
    CheckpointWriter,
    cell_fingerprint,
    load_checkpoint,
    record_intact,
    seal_record,
)

MACHINE = MulticoreMachine(p=4, cs=100, cd=21, q=8)


def _key(**overrides):
    base = dict(
        algorithm="shared-opt",
        setting="ideal",
        kwargs={},
        machine=MACHINE,
        variable="order",
        x=8,
        m=8,
        n=8,
        z=8,
    )
    base.update(overrides)
    return CellKey(**base)


def _fp(**overrides):
    return cell_fingerprint(_key(**overrides))


class TestCellFingerprint:
    def test_deterministic(self):
        assert _fp() == _fp()

    def test_sensitive_to_result_inputs(self):
        base = _fp()
        assert _fp(algorithm="outer-product") != base
        assert _fp(setting="lru") != base
        assert _fp(x=12, m=12, n=12, z=12) != base
        assert _fp(kwargs={"lam": 4}) != base
        bigger = MulticoreMachine(p=4, cs=200, cd=21, q=8)
        assert _fp(machine=bigger) != base

    def test_machine_name_is_cosmetic(self):
        named = MulticoreMachine(p=4, cs=100, cd=21, q=8, name="my box")
        assert _fp(machine=named) == _fp()


class TestCellKey:
    """Fingerprint purity is structural: no engine knob fits in a key."""

    def test_golden_fingerprints_are_stable(self):
        # Computed before CellKey existed: checkpoints written by earlier
        # releases must keep resuming.
        assert _fp() == (
            "cf4fb02052cebf0ba130bd9f7ab34b04df42a5a2fa488cbe50005da8aff438da"
        )
        assert _fp(
            setting="lru-50", kwargs={"policy": "fifo"}, variable="r", x=0.25
        ) == (
            "d2a8116e3011fd049fdb6ec7948686e802b067b990db3547b88edeb7e1b3b7cb"
        )

    def test_engine_kwargs_never_reach_the_fingerprint(self):
        base = _fp(kwargs={"policy": "fifo"})
        for knobs in ({"engine": "step"}, {"engine": "replay"}):
            key = _key(kwargs={"policy": "fifo", **knobs})
            assert dict(key.kwargs) == {"policy": "fifo"}
            assert cell_fingerprint(key) == base

    def test_knob_field_is_rejected(self):
        # A worker count in the key would make a resume with a
        # different --workers recompute every finished cell.
        with pytest.raises(TypeError):
            _key(workers=2)

    def test_key_is_frozen(self):
        key = _key()
        with pytest.raises(AttributeError):
            key.x = 12


class TestSealRecord:
    def test_sealed_record_is_intact(self):
        record = seal_record({"schema": CHECKPOINT_SCHEMA, "fp": "abc", "x": 1})
        assert record_intact(record)

    def test_tampering_detected(self):
        record = seal_record({"schema": CHECKPOINT_SCHEMA, "fp": "abc", "x": 1})
        record["x"] = 2
        assert not record_intact(record)

    def test_missing_checksum_detected(self):
        assert not record_intact({"schema": CHECKPOINT_SCHEMA, "fp": "abc"})


class TestWriterAndLoader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        with CheckpointWriter(path) as writer:
            writer.append({"fp": "a", "status": "ok", "value": 1})
            writer.append({"fp": "b", "status": "failed"})
        loaded = load_checkpoint(path)
        assert loaded.total_lines == 2
        assert not loaded.torn_tail
        assert loaded.quarantined == []
        assert loaded.records["a"]["value"] == 1
        assert set(loaded.ok_records()) == {"a"}

    def test_missing_file_is_empty(self, tmp_path):
        loaded = load_checkpoint(tmp_path / "nope.jsonl")
        assert loaded.records == {}
        assert loaded.total_lines == 0

    def test_torn_tail_dropped_with_warning(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        with CheckpointWriter(path) as writer:
            writer.append({"fp": "a", "status": "ok"})
            writer.append({"fp": "b", "status": "ok"})
        # Simulate a SIGKILL mid-append: chop the final record in half.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        loaded = load_checkpoint(path)
        assert loaded.torn_tail
        assert set(loaded.records) == {"a"}
        assert loaded.quarantined == []
        assert any("torn" in w for w in loaded.warnings)

    def test_interior_corruption_quarantined(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        with CheckpointWriter(path) as writer:
            writer.append({"fp": "a", "status": "ok"})
            writer.append({"fp": "b", "status": "ok"})
            writer.append({"fp": "c", "status": "ok"})
        lines = path.read_text().splitlines()
        middle = json.loads(lines[1])
        middle["status"] = "failed"  # flip a field without resealing
        lines[1] = json.dumps(middle, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        loaded = load_checkpoint(path)
        assert not loaded.torn_tail
        assert [q.line for q in loaded.quarantined] == [2]
        assert loaded.quarantined[0].reason == "content checksum mismatch"
        assert loaded.quarantined[0].fingerprint == "b"
        assert set(loaded.records) == {"a", "c"}

    def test_terminated_garbage_tail_is_still_torn(self, tmp_path):
        # A final line that is complete garbage (even newline-terminated)
        # reads as a torn tail only when unparseable; a checksum-mismatch
        # final record with a clean newline is interior-style corruption.
        path = tmp_path / "checkpoint.jsonl"
        with CheckpointWriter(path) as writer:
            writer.append({"fp": "a", "status": "ok"})
        with open(path, "ab") as fh:
            fh.write(b"{not json\n")
        loaded = load_checkpoint(path)
        assert loaded.torn_tail
        assert set(loaded.records) == {"a"}

    def test_duplicate_fingerprints_ok_takes_precedence(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        with CheckpointWriter(path) as writer:
            writer.append({"fp": "a", "status": "failed", "attempt": 1})
            writer.append({"fp": "a", "status": "ok", "attempt": 2})
            writer.append({"fp": "a", "status": "failed", "attempt": 3})
        loaded = load_checkpoint(path)
        # The ok record survives a later failure record for the same cell.
        assert loaded.records["a"]["status"] == "ok"
        assert loaded.records["a"]["attempt"] == 2

    def test_writer_repairs_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        with CheckpointWriter(path) as writer:
            writer.append({"fp": "a", "status": "ok"})
            writer.append({"fp": "b", "status": "ok"})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])  # torn tail
        with CheckpointWriter(path) as writer:  # reopen: repairs, then appends
            writer.append({"fp": "b", "status": "ok"})
        loaded = load_checkpoint(path)
        # No interior corruption: the torn line was truncated, not skipped.
        assert loaded.quarantined == []
        assert not loaded.torn_tail
        assert set(loaded.records) == {"a", "b"}
