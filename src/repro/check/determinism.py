"""Determinism rules for the fingerprint/checkpoint/serde paths.

Resume bit-identity and cross-machine manifest comparison only work if
the modules that *produce* persisted bytes are deterministic functions
of their inputs.  Four environment leaks account for nearly every
real-world violation, and each gets a rule:

``determinism/wall-clock``
    ``time.time``/``time.time_ns``/``datetime.now``/``utcnow``/
    ``today`` reads.  ``time.perf_counter``/``monotonic`` are *not*
    flagged: elapsed-time telemetry is explicitly excluded from
    identity (see :mod:`repro.store.serde`).
``determinism/rng``
    ``random.*``, ``os.urandom``, ``secrets.*``, ``uuid.uuid1/4`` —
    unseeded entropy has no place on a serde path.
``determinism/unsorted-walk``
    ``os.listdir``/``os.walk``/``os.scandir``/``Path.iterdir``/
    ``glob``/``rglob`` results consumed order-sensitively.  Filesystem
    enumeration order is filesystem-specific; the rule is satisfied by
    wrapping the walk in an order-insensitive consumer (``sorted``,
    ``min``/``max``, ``len``, ``set``, a membership test, ...) within
    the same statement.
``determinism/set-order``
    Iterating a set-shaped value, or passing one to ``join``/
    ``json.dumps``.  Set-shaped means a set display, a set
    comprehension, ``set()``/``frozenset()``, ``list()``/``tuple()`` of
    one, or a name (``self.`` attribute) that the same function (class)
    binds to one of those — the shape of the ``list(self.outstanding)``
    drains this rule caught in the sweep engine.  ``sorted(...)`` is
    the fix.
``determinism/hash-in-key``
    The builtin ``hash()`` — salted per-process by ``PYTHONHASHSEED``
    for ``str``/``bytes`` — in modules whose keys are persisted.  Use
    ``hashlib`` digests instead.

The rules are syntactic checks over the node list of the lint pass's
single shared ``ast.walk``; no flow analysis.  They run only on modules
that feed fingerprints, checkpoints, manifests or serde (the lint
orchestrator owns the scope list, plus ``tests/`` for hygiene);
flagging wall-clock reads in, say, the benchmark harness would be
noise.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.findings import ERROR, Finding

#: Dotted call names that read the wall clock.
_WALL_CLOCK_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
)

#: Terminal names that draw entropy when the receiver chain includes
#: the ``random`` module.
_RNG_TERMINALS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "randbytes", "getrandbits", "rand",
        "randn", "normal", "permutation",
    }
)

#: Exact dotted entropy sources outside the ``random`` module.
_ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Filesystem-enumeration calls whose order is filesystem-specific.
_FS_WALKS = frozenset(
    {"listdir", "iterdir", "glob", "rglob", "scandir", "walk"}
)

#: Consumers that make enumeration order irrelevant.
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)

#: Builtins that build an unordered container, and builtins that keep
#: their argument's (lack of) order.
_SET_BUILTINS = frozenset({"set", "frozenset"})
_ORDER_KEEPING = frozenset({"list", "tuple"})

#: The nodes that own a set-bound name.
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

_Parents = Dict[ast.AST, ast.AST]


def call_name(node: ast.Call) -> Optional[str]:
    """The call's terminal name: ``f(...)`` -> ``f``, ``a.b.c(...)`` ->
    ``c``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def dotted_call_name(node: ast.Call) -> Optional[str]:
    """The dotted form when statically nameable: ``time.time``,
    ``self.rng.random`` -> ``self.rng.random``."""
    parts: List[str] = []
    current: ast.expr = node.func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _finding(
    rule: str, message: str, filename: str, line: int
) -> Finding:
    return Finding(
        "determinism",
        ERROR,
        message,
        location=f"{filename}:{line}",
        rule=f"determinism/{rule}",
    )


def _is_rng(dotted: str, parts: List[str]) -> bool:
    if dotted in _ENTROPY_CALLS:
        return True
    if parts[0] == "random" and len(parts) > 1:
        return True
    return "random" in parts[:-1] and parts[-1] in _RNG_TERMINALS


def _sorts_keys(node: ast.Call) -> bool:
    for keyword in node.keywords:
        if (
            keyword.arg == "sort_keys"
            and isinstance(keyword.value, ast.Constant)
            and bool(keyword.value.value)
        ):
            return True
    return False


def _order_insensitive(node: ast.Call, parents: _Parents) -> bool:
    """Whether an enclosing expression (same statement) consumes the
    walk order-insensitively."""
    current: ast.AST = node
    while True:
        parent = parents.get(current)
        if parent is None or isinstance(parent, ast.stmt):
            # ``for x in sorted(...)`` puts the sanitizer inside the
            # expression, so reaching the statement means no sanitizer
            # was found — except a ``with`` over scandir, which is a
            # resource acquisition, not an iteration.
            return isinstance(parent, (ast.With, ast.AsyncWith))
        if (
            isinstance(parent, ast.Call)
            and call_name(parent) in _ORDER_INSENSITIVE_CONSUMERS
        ):
            return True
        if isinstance(parent, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops
        ):
            return True
        current = parent


def _owner(
    node: ast.AST, parents: _Parents, kind: type = ast.AST
) -> Optional[ast.AST]:
    """The nearest enclosing scope node (of ``kind``) of ``node``."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, _SCOPES) and isinstance(current, kind):
            return current
        current = parents.get(current)
    return None


class _SetShapes:
    """Which names and ``self.`` attributes each scope binds to a set."""

    def __init__(self, nodes: Sequence[ast.AST], parents: _Parents) -> None:
        self.parents = parents
        self.bound: Set[Tuple[int, str]] = set()
        for node in nodes:
            if isinstance(node, ast.Assign):
                targets: Sequence[ast.expr] = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if node.value is None or not self.shaped(node.value, track=False):
                continue
            for target in targets:
                slot = self._slot(target)
                if slot is not None:
                    self.bound.add(slot)

    def _slot(self, node: ast.expr) -> Optional[Tuple[int, str]]:
        """``(id(scope), name)`` for a name or ``self.<attr>`` node."""
        if isinstance(node, ast.Name):
            scope = _owner(node, self.parents)
            return (id(scope), node.id) if scope is not None else None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            cls = _owner(node, self.parents, ast.ClassDef)
            return (id(cls), "self." + node.attr) if cls is not None else None
        return None

    def shaped(self, node: ast.expr, *, track: bool = True) -> bool:
        """Whether ``node`` is a set-shaped value (see module docs)."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                return False
            if node.func.id in _SET_BUILTINS:
                return True
            return (
                node.func.id in _ORDER_KEEPING
                and len(node.args) == 1
                and self.shaped(node.args[0], track=track)
            )
        return track and bool(self.bound) and self._slot(node) in self.bound


def walk_with_parents(tree: ast.AST) -> Tuple[List[ast.AST], _Parents]:
    """:func:`ast.walk`'s breadth-first node list plus a child -> parent
    map, built in the same single traversal."""
    nodes: List[ast.AST] = [tree]
    parents: _Parents = {}
    for node in nodes:
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            nodes.append(child)
    return nodes, parents


def determinism_findings(
    nodes: Sequence[ast.AST], parents: _Parents, filename: str
) -> List[Finding]:
    """All ``determinism/*`` findings over one module's
    :func:`walk_with_parents`."""
    shapes = _SetShapes(nodes, parents)
    found: Dict[Tuple[str, int], Finding] = {}

    def emit(rule: str, message: str, line: int) -> None:
        found.setdefault((rule, line), _finding(rule, message, filename, line))

    for node in nodes:
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            if shapes.shaped(node.iter):
                emit(
                    "set-order",
                    "iteration over an unordered set reaches serialized "
                    "output in this module; iterate sorted(...) instead",
                    node.iter.lineno,
                )
            continue
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_call_name(node)
        parts = dotted.split(".") if dotted else []
        name = call_name(node)
        if len(parts) >= 2 and (parts[-2], parts[-1]) in _WALL_CLOCK_SUFFIXES:
            emit(
                "wall-clock",
                f"{dotted}() reads the wall clock on a fingerprint/serde "
                "path; derive timestamps outside identity-bearing data "
                "(time.perf_counter is fine for telemetry)",
                node.lineno,
            )
        if dotted is not None and _is_rng(dotted, parts):
            emit(
                "rng",
                f"{dotted}() draws unseeded entropy on a fingerprint/serde "
                "path; persisted bytes must be deterministic",
                node.lineno,
            )
        if name in _FS_WALKS and not _order_insensitive(node, parents):
            emit(
                "unsorted-walk",
                f"{name}() enumeration order is filesystem-specific; wrap "
                "the walk in sorted() (or another order-insensitive "
                "consumer) before it reaches persisted or replayed state",
                node.lineno,
            )
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            emit(
                "hash-in-key",
                "builtin hash() is salted per-process by PYTHONHASHSEED; "
                "use a hashlib digest for any key that outlives the "
                "process",
                node.lineno,
            )
        if name == "join" or (
            name in ("dumps", "dump") and not _sorts_keys(node)
        ):
            args = [*node.args, *(kw.value for kw in node.keywords)]
            if any(shapes.shaped(arg) for arg in args):
                emit(
                    "set-order",
                    "join() over an unordered set produces "
                    "nondeterministic output; sort it first"
                    if name == "join"
                    else f"{name}() serializes an unordered set-derived "
                    "value; sort it first",
                    node.lineno,
                )
    # The walk is breadth-first; report in source order.
    return [found[k] for k in sorted(found, key=lambda k: k[1])]

