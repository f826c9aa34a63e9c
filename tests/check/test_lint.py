"""Lint-pass tests: each rule fires on a seeded snippet, repo is clean."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.check.determinism import call_name, dotted_call_name, walk_with_parents
from repro.check.lint import FileProfile, run_lint, scan_source


def scan(source, filename, **roles):
    """The lint family alone over one snippet, with the given role gates."""
    return scan_source(source, filename, profile=FileProfile(**roles))


def rules(findings):
    return [f.message.split(":", 1)[0] for f in findings]


class TestDeadBranch:
    def test_if_pass_flagged(self):
        src = (
            "def f(x):\n"
            "    if x > 0:\n"
            "        pass\n"
            "    return x\n"
        )
        found = scan(src, "m.py")
        assert rules(found) == ["dead-branch"]

    def test_if_pass_with_else_clean(self):
        src = (
            "def f(x):\n"
            "    if x > 0:\n"
            "        pass\n"
            "    else:\n"
            "        x = -x\n"
            "    return x\n"
        )
        assert scan(src, "m.py") == []

    def test_elif_pass_in_dispatch_chain_clean(self):
        # `elif op == COMPUTE: pass` is a legitimate "nothing to do for
        # this case" arm.
        src = (
            "def f(op):\n"
            "    if op == 1:\n"
            "        handle()\n"
            "    elif op == 2:\n"
            "        pass\n"
            "    elif op == 3:\n"
            "        other()\n"
        )
        assert scan(src, "m.py") == []

    def test_body_with_real_statements_clean(self):
        src = (
            "def f(x):\n"
            "    if x > 0:\n"
            "        x += 1\n"
            "    return x\n"
        )
        assert scan(src, "m.py") == []


class TestInitSelfCall:
    def test_reset_via_init_flagged(self):
        src = (
            "class C:\n"
            "    def reset(self):\n"
            "        self.__init__(self.p, self.cs)\n"
        )
        found = scan(src, "m.py")
        assert rules(found) == ["init-self-call"]

    def test_super_init_clean(self):
        src = (
            "class C(B):\n"
            "    def __init__(self):\n"
            "        super().__init__()\n"
        )
        assert scan(src, "m.py") == []

    def test_other_objects_init_clean(self):
        src = "def f(obj):\n    obj.__init__()\n"
        assert scan(src, "m.py") == []


class TestNonatomicArtifactWrite:
    def test_write_text_flagged(self):
        src = "def save(path, doc):\n    path.write_text(doc)\n"
        assert rules(scan(src, "m.py")) == ["nonatomic-artifact-write"]

    def test_write_bytes_flagged(self):
        src = "def save(path, doc):\n    path.write_bytes(doc)\n"
        assert rules(scan(src, "m.py")) == ["nonatomic-artifact-write"]

    def test_builtin_open_write_mode_flagged(self):
        src = 'def save(path):\n    with open(path, "w") as fh:\n        fh.write("x")\n'
        assert rules(scan(src, "m.py")) == ["nonatomic-artifact-write"]

    def test_path_open_append_mode_flagged(self):
        src = 'def save(path):\n    fh = path.open(mode="ab")\n'
        assert rules(scan(src, "m.py")) == ["nonatomic-artifact-write"]

    def test_read_mode_clean(self):
        src = (
            'def load(path):\n'
            '    with open(path) as fh:\n'
            "        a = fh.read()\n"
            '    with open(path, "rb") as fh:\n'
            "        b = fh.read()\n"
            "    return a, b\n"
        )
        assert scan(src, "m.py") == []

    def test_dynamic_mode_out_of_scope(self):
        src = "def touch(path, mode):\n    return open(path, mode)\n"
        assert scan(src, "m.py") == []

    def test_store_module_exempt(self):
        src = 'def save(path, doc):\n    path.write_text(doc)\n'
        assert scan(src, "m.py", store_module=True) == []

    def test_atomic_helper_usage_clean(self):
        src = (
            "from repro.store.atomic import atomic_write_text\n"
            "def save(path, doc):\n"
            "    atomic_write_text(path, doc)\n"
        )
        assert scan(src, "m.py") == []


class TestSyntaxError:
    def test_unparseable_reported_not_raised(self):
        found = scan("def f(:\n", "m.py")
        assert rules(found) == ["syntax"]


class TestRunLint:
    def test_repo_sources_are_clean(self):
        assert run_lint() == []

    def test_explicit_paths(self, tmp_path: Path):
        bad = tmp_path / "sim" / "rogue.py"
        bad.parent.mkdir()
        bad.write_text('def save(path):\n    return open(path, "w")\n')
        found = run_lint(paths=[bad])
        assert rules(found) == ["nonatomic-artifact-write"]
        assert found[0].location == f"{bad}:2"


class TestSharedWalk:
    """The one traversal every lint and determinism rule shares."""

    def test_walk_visits_every_node_and_records_parents(self):
        tree = ast.parse("sorted(p.iterdir())")
        nodes, parents = walk_with_parents(tree)
        assert nodes[0] is tree
        assert set(map(id, nodes)) == set(map(id, ast.walk(tree)))
        inner = tree.body[0].value.args[0]
        assert parents[inner] is tree.body[0].value

    def test_call_name(self):
        call = ast.parse("a.b.c()").body[0].value
        assert call_name(call) == "c"
        call = ast.parse("f()").body[0].value
        assert call_name(call) == "f"

    def test_dotted_call_name(self):
        call = ast.parse("time.time()").body[0].value
        assert dotted_call_name(call) == "time.time"
        call = ast.parse("(x or y).z()").body[0].value
        assert dotted_call_name(call) is None


def set_order_lines(source):
    return [
        int(f.location.rsplit(":", 1)[1])
        for f in scan_source(
            source, "m.py", profile=FileProfile(lint=False, determinism=True)
        )
        if f.rule_id == "determinism/set-order"
    ]


class TestSetOrderShapes:
    """Which bindings make a name set-shaped for ``determinism/set-order``."""

    def test_set_constructions_are_unordered(self):
        src = (
            "def f(xs):\n"
            "    a = set(xs)\n"
            "    b = {1, 2}\n"
            "    c = {x for x in xs}\n"
            "    for v in a:\n        emit(v)\n"
            "    for v in b:\n        emit(v)\n"
            "    for v in c:\n        emit(v)\n"
        )
        assert set_order_lines(src) == [5, 7, 9]

    def test_sorted_strips_unordered(self):
        src = (
            "def f(xs):\n"
            "    a = sorted(set(xs))\n"
            "    for v in a:\n"
            "        emit(v)\n"
        )
        assert set_order_lines(src) == []

    def test_list_preserves_unordered(self):
        src = (
            "def f(xs):\n"
            "    a = list(set(xs))\n"
            "    for v in tuple(a):\n"
            "        emit(v)\n"
        )
        assert set_order_lines(src) == [3]

    def test_for_over_set_reports_unordered_iter(self):
        src = (
            "def f(xs):\n"
            "    s = set(xs)\n"
            "    for x in s:\n"
            "        pass\n"
            "    for x in sorted(s):\n"
            "        pass\n"
        )
        assert set_order_lines(src) == [3]

    def test_annotated_self_attribute_across_methods(self):
        # The fabric coordinator's shape: an annotated set attribute.
        src = (
            "class Coordinator:\n"
            "    def __init__(self, records):\n"
            "        self.outstanding: Set[K] = set(records)\n"
            "    def abort(self):\n"
            "        for key in list(self.outstanding):\n"
            "            emit(key)\n"
        )
        assert set_order_lines(src) == [5]

    def test_binding_is_scoped_to_its_function_and_class(self):
        # Narrow by design: a name is set-shaped only where it is bound.
        src = (
            "def build(xs):\n"
            "    s = set(xs)\n"
            "    return s\n"
            "def render(s):\n"
            "    for x in s:\n"
            "        emit(x)\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self.items = set()\n"
            "class B:\n"
            "    def drain(self):\n"
            "        for x in self.items:\n"
            "            emit(x)\n"
        )
        assert set_order_lines(src) == []
