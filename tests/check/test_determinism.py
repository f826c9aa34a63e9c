"""Tests for the determinism analyzer (`determinism/*` rules)."""

from repro.check.lint import FileProfile, scan_source


def findings_for(source):
    return scan_source(
        source, "m.py", profile=FileProfile(lint=False, determinism=True)
    )


def rule_ids(source):
    return [f.rule_id for f in findings_for(source)]


class TestWallClock:
    def test_time_time_into_serde_path(self):
        # The canonical mutation: stamping a record with the wall clock
        # right before serialization.
        src = (
            "import json, time\n"
            "def write(record, fh):\n"
            "    record['ts'] = time.time()\n"
            "    json.dump(record, fh, sort_keys=True)\n"
        )
        assert rule_ids(src) == ["determinism/wall-clock"]

    def test_datetime_now_and_utcnow(self):
        src = (
            "from datetime import datetime\n"
            "a = datetime.now()\n"
            "b = datetime.utcnow()\n"
        )
        assert rule_ids(src) == ["determinism/wall-clock"] * 2

    def test_monotonic_timers_allowed(self):
        # perf_counter/monotonic measure durations, not identity.
        src = (
            "import time\n"
            "t0 = time.perf_counter()\n"
            "t1 = time.monotonic()\n"
        )
        assert rule_ids(src) == []


class TestRng:
    def test_random_module(self):
        assert rule_ids("import random\nx = random.random()\n") == [
            "determinism/rng"
        ]
        assert rule_ids("import random\nx = random.randint(0, 9)\n") == [
            "determinism/rng"
        ]

    def test_entropy_sources(self):
        assert rule_ids("import os\nx = os.urandom(8)\n") == [
            "determinism/rng"
        ]
        assert rule_ids("import uuid\nx = uuid.uuid4()\n") == [
            "determinism/rng"
        ]

    def test_seeded_local_generator_is_clean(self):
        # A seeded Generator instance replays deterministically; only
        # module-level / entropy-backed draws are identity hazards.
        assert rule_ids("x = rng.random()\n") == []

    def test_non_rng_names_clean(self):
        assert rule_ids("x = spec.randomize_label()\n") == []


class TestUnsortedWalk:
    def test_bare_iterdir_flagged(self):
        src = "def walk(p):\n    for entry in p.iterdir():\n        pass\n"
        assert rule_ids(src) == ["determinism/unsorted-walk"]

    def test_sorted_wrap_is_clean(self):
        src = (
            "def walk(p):\n"
            "    for entry in sorted(p.iterdir()):\n"
            "        pass\n"
        )
        assert rule_ids(src) == []

    def test_membership_test_is_clean(self):
        # `x in os.listdir(d)` does not depend on enumeration order.
        src = "import os\nok = 'a.json' in os.listdir(d)\n"
        assert rule_ids(src) == []

    def test_glob_flagged_len_clean(self):
        assert rule_ids("hits = p.glob('*.json')\n") == [
            "determinism/unsorted-walk"
        ]
        assert rule_ids("n = len(list(p.glob('*.json')))\n") == []


class TestSetOrder:
    def test_iterating_set_flagged(self):
        src = (
            "def render(xs):\n"
            "    s = set(xs)\n"
            "    for x in s:\n"
            "        emit(x)\n"
        )
        assert rule_ids(src) == ["determinism/set-order"]

    def test_sorted_set_is_clean(self):
        src = (
            "def render(xs):\n"
            "    for x in sorted(set(xs)):\n"
            "        emit(x)\n"
        )
        assert rule_ids(src) == []

    def test_join_over_set(self):
        src = "def f(xs):\n    return ','.join({str(x) for x in xs})\n"
        assert rule_ids(src) == ["determinism/set-order"]

    def test_dumps_of_set_derived_value(self):
        src = (
            "import json\n"
            "def f(xs):\n"
            "    keys = list(set(xs))\n"
            "    return json.dumps(keys)\n"
        )
        assert rule_ids(src) == ["determinism/set-order"]

    def test_sort_keys_does_not_excuse_set_values(self):
        # sort_keys=True orders dict keys, not list-from-set values —
        # but the analyzer deliberately limits itself to the documented
        # escape hatch, so this stays the analyzer's contract either way.
        src = (
            "import json\n"
            "def f(d):\n"
            "    return json.dumps(d, sort_keys=True)\n"
        )
        assert rule_ids(src) == []

    def test_cross_method_set_attribute(self):
        # The exact shape of the sim/parallel.py bug this rule found:
        # a set built in __init__, iterated (via list()) elsewhere.
        src = (
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self.outstanding = set()\n"
            "    def drain(self):\n"
            "        for key in list(self.outstanding):\n"
            "            emit(key)\n"
            "    def drain_sorted(self):\n"
            "        for key in sorted(self.outstanding):\n"
            "            emit(key)\n"
        )
        findings = findings_for(src)
        assert [f.rule_id for f in findings] == ["determinism/set-order"]
        # Line-exact: only the unsorted iteration, not drain_sorted's.
        assert findings[0].location.endswith(":5")


class TestHashInKey:
    def test_builtin_hash_flagged(self):
        assert rule_ids("key = hash(obj)\n") == ["determinism/hash-in-key"]

    def test_hashlib_is_clean(self):
        src = "import hashlib\nkey = hashlib.sha256(b'x').hexdigest()\n"
        assert rule_ids(src) == []

    def test_method_named_hash_is_clean(self):
        assert rule_ids("key = spec.hash()\n") == []
