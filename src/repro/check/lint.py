"""AST lint pass enforcing repo idioms over :mod:`repro` sources.

Four rules, each born from a real failure mode of this codebase:

* ``explicit-guard`` — in ``algorithms/*.py``, calls to the explicit
  directives (``load_shared``, ``evict_shared``, ``load_dist``,
  ``evict_dist``) must sit under an ``if`` whose condition references
  ``explicit`` (``if ctx.explicit:`` or a hoisted ``if explicit:``).
  An unguarded directive silently burns cycles on the very hot LRU and
  numeric paths, where the calls are no-ops.
* ``dead-branch`` — no ``if`` statement whose entire body is ``pass``
  and that has no ``else``: the condition reads as if it handles a case
  but does nothing.  The LRU hierarchy carried exactly such a branch
  for dirty-victim write-back — it *looked* handled and masked a real
  undercounting bug.  ``elif … : pass`` inside a dispatch chain is
  exempt (there the no-op is an explicit "this case needs nothing").
* ``init-self-call`` — no ``self.__init__(...)`` calls: re-running
  ``__init__`` as a reset silently re-reads constructor arguments off
  ``self`` and skips any state added outside ``__init__``; write an
  explicit reinitialisation instead.
* ``nonatomic-artifact-write`` — outside :mod:`repro.store`, no direct
  ``write_text``/``write_bytes`` calls and no write-mode ``open``:
  every artifact writer must go through the atomic tmp-file + fsync +
  rename helper (:mod:`repro.store.atomic`), because a plain write torn
  by a crash leaves silently truncated JSON/CSV that every reader then
  trusts.  Manifests, CSVs, cache entries and baselines all carried
  exactly this bug before the run store existed.

Every rule is registered in :mod:`repro.check.rules` and runs on
every scan.  This module also hosts the per-file scan *orchestrator*
(:func:`scan_source` / :func:`run_lint`): it runs the
:mod:`repro.check.determinism` rules on fingerprint-feeding modules
and ``tests/`` over the same ``ast.walk`` as the lint rules, applies
inline ``# repro: noqa[rule-id]`` suppressions and raises
``meta/unused-suppression`` for dead waivers.  Every rule is purely
syntactic (:mod:`ast`) and needs no imports of the linted code; files
are scanned one after another in one thread.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.check.determinism import determinism_findings, walk_with_parents
from repro.check.findings import ERROR, Finding
from repro.check.rules import SuppressionIndex

#: The explicit-directive method names of the execution contexts.
DIRECTIVES = frozenset({"load_shared", "evict_shared", "load_dist", "evict_dist"})


def _finding(rule: str, message: str, filename: str, line: int) -> Finding:
    return Finding(
        "lint",
        ERROR,
        f"{rule}: {message}",
        location=f"{filename}:{line}",
        rule=f"lint/{rule}",
    )


def _mentions_explicit(node: ast.AST) -> bool:
    """Whether a condition expression references an ``explicit`` flag."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "explicit":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "explicit":
            return True
    return False


def _directive_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in DIRECTIVES:
        return func.attr
    if isinstance(func, ast.Name) and func.id in DIRECTIVES:
        return func.id
    return None


def _check_explicit_guard(
    tree: ast.AST, filename: str, findings: List[Finding]
) -> None:
    """Rule ``explicit-guard``: directives only under ``if … explicit …``."""

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.If) and _mentions_explicit(node.test):
            for child in node.body:
                visit(child, True)
            for child in node.orelse:
                # The else-branch of `if explicit:` is the *unguarded* path.
                visit(child, guarded)
            return
        if isinstance(node, ast.Call):
            name = _directive_name(node)
            if name is not None and not guarded:
                findings.append(
                    _finding(
                        "explicit-guard",
                        f"directive ctx.{name}(...) is not wrapped in "
                        "'if ctx.explicit'",
                        filename,
                        node.lineno,
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(tree, False)


def _elif_ifs(nodes: Sequence[ast.AST]) -> Set[int]:
    """Ids of ``ast.If`` nodes that are really ``elif`` arms.

    An ``elif`` is encoded as an ``If`` standing alone in its parent
    ``If``'s ``orelse``; those are part of a dispatch chain and exempt
    from the ``dead-branch`` rule.
    """
    out: Set[int] = set()
    for node in nodes:
        if (
            isinstance(node, ast.If)
            and len(node.orelse) == 1
            and isinstance(node.orelse[0], ast.If)
        ):
            out.add(id(node.orelse[0]))
    return out


def _check_dead_branch(
    nodes: Sequence[ast.AST], filename: str, findings: List[Finding]
) -> None:
    """Rule ``dead-branch``: no ``if cond: pass`` with no ``else``."""
    elifs = _elif_ifs(nodes)
    for node in nodes:
        if not isinstance(node, ast.If) or id(node) in elifs:
            continue
        if node.orelse:
            continue
        if len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
            findings.append(
                _finding(
                    "dead-branch",
                    "'if' whose whole body is 'pass' and that has no "
                    "'else': the condition looks handled but does "
                    "nothing — handle it or delete it",
                    filename,
                    node.lineno,
                )
            )


def _check_init_self_call(
    nodes: Sequence[ast.AST], filename: str, findings: List[Finding]
) -> None:
    """Rule ``init-self-call``: no ``self.__init__(...)`` resets."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            findings.append(
                _finding(
                    "init-self-call",
                    "'self.__init__(...)' used as a reset; write an "
                    "explicit reinitialisation (it is both clearer and "
                    "robust to state added outside __init__)",
                    filename,
                    node.lineno,
                )
            )


def _open_write_mode(call: ast.Call) -> bool:
    """Whether a call is a write/append-mode ``open`` / ``Path.open``."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id != "open":
            return False
        mode_position = 1  # builtin: open(file, mode, ...)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode_position = 0  # method: path.open(mode, ...)
    else:
        return False
    mode: Optional[ast.expr] = None
    if len(call.args) > mode_position:
        mode = call.args[mode_position]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return False  # default mode is "r"; dynamic modes stay out of scope
    return any(ch in mode.value for ch in "wax")


def _check_nonatomic_write(
    nodes: Sequence[ast.AST], filename: str, findings: List[Finding]
) -> None:
    """Rule ``nonatomic-artifact-write``: writes go through repro.store."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            findings.append(
                _finding(
                    "nonatomic-artifact-write",
                    f"direct .{func.attr}(...) outside repro.store: a crash "
                    "mid-write leaves a silently truncated artifact; use "
                    "repro.store.atomic.atomic_write_text/_bytes",
                    filename,
                    node.lineno,
                )
            )
        elif _open_write_mode(node):
            findings.append(
                _finding(
                    "nonatomic-artifact-write",
                    "write-mode open(...) outside repro.store: a crash "
                    "mid-write leaves a silently truncated artifact; use "
                    "repro.store.atomic (or repro.store.checkpoint for "
                    "append-only logs)",
                    filename,
                    node.lineno,
                )
            )


#: The syntactic lint checks, in dispatch order.  Each entry is
#: ``(gate, check)`` where ``gate`` names the :class:`FileProfile`
#: condition under which the rule applies (``explicit-guard`` has
#: bespoke wiring below because it walks the tree with guard state).
_SIMPLE_CHECKS: "Sequence[Tuple[str, _Check]]" = (
    ("always", _check_dead_branch),
    ("always", _check_init_self_call),
    ("not-store", _check_nonatomic_write),
)

_Check = Callable[[Sequence[ast.AST], str, List[Finding]], None]


@dataclass(frozen=True)
class FileProfile:
    """Which rule families and module-role gates apply to a file.

    The role flags mirror the package layout: ``algorithms_module``
    enables the directive rule, ``store_module`` exempts the
    one package allowed to perform raw writes.  The family flags pick
    rule families:
    ``lint`` (repo idioms) and ``determinism`` (fingerprint-feeding
    modules plus tests).
    """

    algorithms_module: bool = False
    store_module: bool = False
    lint: bool = True
    determinism: bool = False

    @property
    def families(self) -> Set[str]:
        out = {"meta"}
        if self.lint:
            out.add("lint")
        if self.determinism:
            out.add("determinism")
        return out


def _parse(
    source: str, filename: str, findings: List[Finding]
) -> Optional[ast.Module]:
    try:
        return ast.parse(source, filename=filename)
    except SyntaxError as exc:
        findings.append(
            _finding("syntax", f"cannot parse: {exc.msg}", filename, exc.lineno or 0)
        )
        return None


def _lint_tree(
    tree: ast.Module,
    filename: str,
    findings: List[Finding],
    *,
    profile: FileProfile,
) -> None:
    # One walk shared by every check — walking per rule dominated the
    # scan's profile.
    nodes, parents = walk_with_parents(tree)
    if profile.lint:
        for gate, check in _SIMPLE_CHECKS:
            if gate == "not-store" and profile.store_module:
                continue
            check(nodes, filename, findings)
        if profile.algorithms_module:
            _check_explicit_guard(tree, filename, findings)
    if profile.determinism:
        findings += determinism_findings(nodes, parents, filename)


def scan_source(
    source: str,
    filename: str,
    *,
    profile: Optional[FileProfile] = None,
) -> List[Finding]:
    """The full per-file pipeline: every applicable rule family, then
    inline ``# repro: noqa[rule-id]`` suppressions, then the
    ``meta/unused-suppression`` self-check.
    """
    prof = profile if profile is not None else FileProfile()
    findings: List[Finding] = []
    tree = _parse(source, filename, findings)
    if tree is None:
        return findings
    _lint_tree(tree, filename, findings, profile=prof)
    index = SuppressionIndex.from_source(source, filename)
    kept, _suppressed = index.filter(findings)
    return kept + index.unused_findings(prof.families)


#: Package files (relative, POSIX) on the determinism scope: the
#: modules that produce fingerprints, checkpoints, manifests or
#: serialized artifacts.  ``store/`` and ``fabric/`` are covered
#: wholesale by :func:`_profile_for`.
_DETERMINISM_FILES = frozenset(
    {
        "sim/parallel.py",
        "sim/ledger.py",
        "sim/telemetry.py",
        "sim/results.py",
        "sim/retrypolicy.py",
        "sim/faults.py",
        "check/findings.py",
        "check/sarif.py",
        "experiments/io.py",
    }
)


def _profile_for(path: Path, package_root: Optional[Path]) -> FileProfile:
    """Classify one file into its analyzer families and role gates."""
    relative: Optional[str] = None
    if package_root is not None:
        try:
            relative = path.relative_to(package_root).as_posix()
        except ValueError:
            relative = None
    in_tests = "tests" in path.parts and relative is None
    if in_tests:
        # Tests get the determinism hygiene pass only: they seed and
        # replay fingerprints, but repo idioms (atomic writes, guards)
        # do not apply to fixtures.
        return FileProfile(lint=False, determinism=True)
    determinism = relative is not None and (
        relative.startswith(("store/", "fabric/"))
        or relative in _DETERMINISM_FILES
    )
    return FileProfile(
        algorithms_module=path.parent.name == "algorithms",
        store_module=path.parent.name == "store",
        lint=True,
        determinism=determinism,
    )


def run_lint(
    root: Optional[Path] = None,
    *,
    paths: Optional[Iterable[Path]] = None,
) -> List[Finding]:
    """The source scan over the :mod:`repro` package (or explicit files).

    ``root`` defaults to the installed package directory, so the pass
    always checks the code that would actually run.  When the package
    lives in a source checkout (``src/repro``), the sibling
    ``benchmarks/`` suite is scanned too — its artifact writers are
    held to the same rules (e.g. ``nonatomic-artifact-write``) as the
    package's — and ``tests/`` gets the determinism hygiene pass.

    Files are scanned serially, in path order: :func:`ast.parse` is
    not safe to drive from several threads (CPython 3.11.7 raises
    ``SystemError: AST constructor recursion depth mismatch``), and
    under the GIL threads cannot speed up a CPU-bound parse anyway.
    """
    if paths is None:
        if root is None:
            root = Path(__file__).resolve().parent.parent
        scan = sorted(root.rglob("*.py"))
        if root.parent.name == "src":
            repo_root = root.parent.parent
            for sibling in ("benchmarks", "tests"):
                extra = repo_root / sibling
                if extra.is_dir():
                    scan += sorted(extra.rglob("*.py"))
        paths = scan
    findings: List[Finding] = []
    for path in paths:
        findings += scan_source(
            path.read_text(encoding="utf-8"),
            str(path),
            profile=_profile_for(path, root),
        )
    return findings
