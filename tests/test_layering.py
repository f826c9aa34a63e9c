"""Which modules may import the replay engine and its trace tier.

Replay serves Fig. 12's ratio sweep through ``run_experiment``, and the
CLI configures and inspects the trace tier; nothing else in
``src/repro`` may reach either module.  The test walks every source
file's ``import`` statements, function-local ones included.  The two
LRU-family reference bodies that replay keeps for the benchmark
harness (``replay_bulk`` and ``replay_bulk_streaming``) must have no
caller in the package at all.  A fresh interpreter that imports the CLI,
draws a Fig. 9 panel and runs a step cell must load neither numpy nor
the sweep executors, the run store or the other packages a command
imports only where it uses them.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Set

import repro

SRC = Path(repro.__file__).resolve().parent

#: Module -> the only modules that may import it.
ALLOWED = {
    "repro.cache.replay": {"repro.sim.runner", "repro.cache.tracestore", "repro.cli"},
    "repro.cache.tracestore": {"repro.cache.replay", "repro.cli"},
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


class _Imports(ast.NodeVisitor):
    """Every module an import statement names, ``from a import b``
    counted as both ``a`` and ``a.b`` (``b`` may be a submodule)."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        self.names.update(alias.name for alias in node.names)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and not node.level:
            self.names.add(node.module)
            self.names.update(f"{node.module}.{alias.name}" for alias in node.names)


def _importers() -> Dict[str, Set[str]]:
    found: Dict[str, Set[str]] = {module: set() for module in ALLOWED}
    for path in sorted(SRC.rglob("*.py")):
        visitor = _Imports()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        imported = visitor.names
        for module in ALLOWED:
            if module in imported:
                found[module].add(_module_name(path))
    return found


def test_replay_and_its_tier_stay_private():
    importers = _importers()
    for module, allowed in ALLOWED.items():
        assert importers[module] <= allowed, (
            f"{module} imported by {sorted(importers[module] - allowed)}"
        )


#: Names only ``repro/cache/replay.py`` may mention.
CALLERLESS = {"replay_bulk", "replay_bulk_streaming"}


class _Names(ast.NodeVisitor):
    """Every name a module defines as a function, or mentions as a name,
    an attribute or an import alias."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.names.update(alias.name for alias in node.names)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.names.add(node.name)
        self.generic_visit(node)


def _mentions() -> Dict[str, Set[str]]:
    """Per source file (relative to ``src/repro``): the callerless names
    it defines or mentions."""
    found: Dict[str, Set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        visitor = _Names()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        if visitor.names & CALLERLESS:
            found[path.relative_to(SRC).as_posix()] = visitor.names & CALLERLESS
    return found


def test_the_lru_reference_bodies_have_no_caller():
    mentions = _mentions()
    # A walk that found nothing would pass the assert below vacuously.
    assert mentions.get("cache/replay.py") == CALLERLESS
    others = {path: names for path, names in mentions.items() if path != "cache/replay.py"}
    assert not others, f"callerless replay names used in {others}"


def test_the_walk_sees_the_known_importers():
    # A walk that found nothing would pass the test above vacuously.
    importers = _importers()
    assert "repro.sim.runner" in importers["repro.cache.replay"]
    assert "repro.cli" in importers["repro.cache.tracestore"]


#: Modules that drawing Figs. 4–11 or running a step cell does not use.
#: Loading them at start-up (numpy alone is 86 modules) would make every
#: CLI call pay for them.
NOT_AT_STARTUP = (
    "numpy",
    "multiprocessing",
    "concurrent.futures",
    "repro.cache.replay",
    "repro.cache.tracestore",
    "repro.numerics",
    "repro.sim.parallel",
    "repro.sim.ledger",
    "repro.sim.faults",
    "repro.sim.retrypolicy",
    "repro.store",
    "repro.fabric",
    "repro.check",
    "repro.bench",
    "repro.lu",
)

_STARTUP_PROBE = """
import json, sys
import repro.cli, repro.experiments.figures, repro.sim.runner
from repro.model.machine import preset
from repro.sim.runner import run_experiment

repro.cli.build_parser()
loaded = {}
loaded["set-up"] = sorted(sys.modules)
repro.experiments.figures.figure9(orders=(8,), panels_filter=("a",))
run_experiment("shared-opt", preset("q32"), 8, 8, 8, "ideal")
loaded["step"] = sorted(sys.modules)
run_experiment("shared-opt", preset("q32"), 6, 6, 6, "ideal", engine="replay")
loaded["replay"] = sorted(sys.modules)
print(json.dumps(loaded))
"""


def test_startup_loads_only_what_a_command_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    loaded = json.loads(out.stdout.splitlines()[-1])
    for stage in ("set-up", "step"):
        found = [
            name
            for name in loaded[stage]
            if any(name == m or name.startswith(f"{m}.") for m in NOT_AT_STARTUP)
        ]
        assert not found, f"loaded after {stage}: {found}"
    # A probe that could not load the replay engine would pass vacuously.
    assert "repro.cache.replay" in loaded["replay"]
