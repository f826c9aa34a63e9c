"""In-memory spans and counters for the traced benchmark run.

A :class:`Tracer` records one span per call into a layer: its name, start,
end, parent span and thread, plus counts taken at the same boundary
(multiply-adds replayed, cells per call).  :func:`instrument` installs
wrappers around the public functions of each layer, patching each name
where its callers look it up (``repro.sim.sweep.run_experiment``, not only
``repro.sim.runner.run_experiment``).  It always collects the
:class:`~repro.sim.results.ExperimentResult` of every in-process cell, so
the output check sees every cell whether or not timing is on.

Self time of a span is its duration minus the durations of its direct
children on the same thread; :func:`layer_metrics` turns spans, results
and run manifests into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from workloads import WORKERS

#: ``trace_source`` values of cells that replayed a materialized trace.
_MATERIALIZED = ("compiled", "memory", "disk")

#: Percentiles tried for the tail latency, highest first.
_TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Spans around the entry point itself: a figure function or a whole CLI
#: executor call.  They enclose everything else, so their self time is
#: whatever no layer below them accounts for, and it is not attributed.
_ENTRY_POINTS = frozenset({"figures", "parallel", "fabric"})


class Span:
    """One timed call into a layer."""

    __slots__ = ("id", "parent", "thread", "name", "start", "end", "counts")

    def __init__(
        self, sid: int, parent: Optional[int], thread: int, name: str, start: float
    ) -> None:
        self.id = sid
        self.parent = parent
        self.thread = thread
        self.name = name
        self.start = start
        self.end = start
        self.counts: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "thread": self.thread,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Span recorder; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, parent: Optional[int], thread: int, name: str, start: float) -> Span:
        with self._lock:
            return Span(next(self._ids), parent, thread, name, start)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        record = self._new(
            stack[-1].id if stack else None,
            threading.get_ident(),
            name,
            time.perf_counter(),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add_child(self, parent: Span, name: str, duration: float) -> None:
        """Record a finished child span timed by the program itself."""
        child = self._new(parent.id, parent.thread, name, parent.end - duration)
        child.end = parent.end
        with self._lock:
            self.spans.append(child)

    def write(self, path: str) -> None:
        ordered = sorted(self.spans, key=lambda s: s.start)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([s.to_dict() for s in ordered], handle)

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus its direct children's durations."""
        child_total: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_total[span.parent] = child_total.get(span.parent, 0.0) + span.duration
        return {s.id: s.duration - child_total.get(s.id, 0.0) for s in self.spans}


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
Counter = Callable[[Span, tuple, Any], None]


def _wrap(tracer: Tracer, name: str, fn: Callable, count: Optional[Counter] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if count is not None:
                count(span, args, result)
            return result

    return wrapper


def _runner_wrapper(
    tracer: Optional[Tracer], fn: Callable, results: List[Any]
) -> Callable:
    """``run_experiment`` wrapper: collect every result; time it if traced.

    A step-engine cell gets a child span of the schedule's own measured
    time, so the interpreter shows as the ``hierarchy.step`` layer.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer is None:
            result = fn(*args, **kwargs)
            results.append(result)
            return result
        with tracer.span("runner") as span:
            result = fn(*args, **kwargs)
        results.append(result)
        if result.engine == "step":
            tracer.add_child(span, "hierarchy.step", result.elapsed_s)
        span.counts["fmas"] = result.comp_total
        span.counts["ideal"] = int(result.setting == "ideal")
        return result

    return wrapper


def _count_compile(span: Span, args: tuple, trace: Any) -> None:
    span.counts["fmas"] = len(trace)


def _count_ideal(span: Span, args: tuple, result: Any) -> None:
    span.counts["fmas"] = args[0].comp_total


def _count_bulk(span: Span, args: tuple, result: Any) -> None:
    span.counts["fmas"] = len(args[0]) * len(args[1])
    span.counts["cells"] = len(args[1])


def _count_stream(span: Span, args: tuple, result: Any) -> None:
    span.counts["fmas"] = sum(result[1]) * len(args[1])
    span.counts["cells"] = len(args[1])


@contextlib.contextmanager
def instrument(tracer: Optional[Tracer], results: List[Any]) -> Iterator[None]:
    """Patch each layer's public functions for the duration of the block.

    With ``tracer=None`` only the ``run_experiment`` result collector is
    installed: it appends to ``results`` and takes no timings.  Cells
    that executors run in worker processes are not collected here; they
    are read back from their run directories.
    """
    import repro.cache.replay as replay
    import repro.cache.tracestore as tracestore
    import repro.experiments.figures as figures
    import repro.fabric.coordinator as coordinator
    import repro.fabric.local as fabric_local
    import repro.sim.parallel as parallel
    import repro.sim.runner as runner
    import repro.sim.sweep as sweep
    from repro.store.checkpoint import CheckpointWriter

    patches: List[Tuple[Any, str, Callable]] = [
        (module, "run_experiment", _runner_wrapper(tracer, module.run_experiment, results))
        for module in (runner, sweep)
    ]
    if tracer is not None:
        patches += [
            (figures, "figure9", _wrap(tracer, "figures", figures.figure9)),
            (figures, "figure12", _wrap(tracer, "figures", figures.figure12)),
            (replay, "compile_trace", _wrap(tracer, "replay.compile", replay.compile_trace, _count_compile)),
            (replay, "replay_ideal", _wrap(tracer, "replay.ideal", replay.replay_ideal, _count_ideal)),
            (replay, "replay_bulk", _wrap(tracer, "replay.bulk", replay.replay_bulk, _count_bulk)),
            (
                replay,
                "replay_bulk_streaming",
                _wrap(tracer, "replay.stream", replay.replay_bulk_streaming, _count_stream),
            ),
            (tracestore, "load", _wrap(tracer, "tracestore.load", tracestore.load)),
            (tracestore, "store", _wrap(tracer, "tracestore.store", tracestore.store)),
            (
                CheckpointWriter,
                "append",
                _wrap(tracer, "store.checkpoint.append", CheckpointWriter.append),
            ),
            (fabric_local, "spawn_worker", _wrap(tracer, "fabric.spawn", fabric_local.spawn_worker)),
        ]
        patches += [
            (module, fn_name, _wrap(tracer, "store.serde", getattr(module, fn_name)))
            for module in (parallel, coordinator)
            for fn_name in ("result_to_dict", "result_from_dict")
        ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    try:
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, -(-int(pct * len(ordered)) // 100))
    return ordered[rank - 1]


def tail(samples: List[float]) -> Tuple[float, float]:
    """``(percentile, value)`` for the highest candidate percentile with
    at least ten samples beyond it (the median when there are too few)."""
    n = len(samples)
    pct = next(
        (p for p in _TAIL_CANDIDATES if n * (100 - p) >= 1000), _TAIL_CANDIDATES[-1]
    )
    return pct, percentile(samples, pct)


def attributed_s(tracer: Tracer) -> float:
    """Main-thread self time of the layers below the entry point."""
    self_s = tracer.self_times()
    main = threading.get_ident()
    return sum(
        self_s[s.id]
        for s in tracer.spans
        if s.thread == main and s.name not in _ENTRY_POINTS
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _executor_cells(
    prefix: str, runs: List[Dict[str, Any]], out: Dict[str, float]
) -> List[Dict[str, Any]]:
    """Throughput and dispatch split of one executor from its manifests.

    ``runs`` holds ``{"wall_s": …, "manifest": {…}}`` per CLI call; the
    worker-side cell time comes from the manifest's cell records, not
    from parent-side spans.
    """
    cells = [c for run in runs for c in run["manifest"].get("cells", [])]
    ok = sum(1 for c in cells if c.get("status") == "ok")
    wall = sum(run["wall_s"] for run in runs)
    busy = sum(float(c.get("wall_s", 0.0)) for c in cells)
    out[f"{prefix}.cells_per_s"] = _ratio(ok, wall)
    out[f"{prefix}.dispatch_ms_per_cell"] = _ratio((wall * WORKERS - busy) * 1e3, len(cells))
    out[f"{prefix}.utilization"] = _ratio(busy, wall * WORKERS)
    return cells


def layer_metrics(
    tracer: Tracer,
    results: List[Any],
    wall_s: float,
    pool_runs: List[Dict[str, Any]],
    fabric_runs: List[Dict[str, Any]],
) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition."""
    self_s = tracer.self_times()
    by_name: Dict[str, List[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name: str) -> List[Span]:
        return by_name.get(name, [])

    def total_self(name: str) -> float:
        return sum(self_s[s.id] for s in spans(name))

    def total_count(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in spans(name))

    out: Dict[str, float] = {}
    compile_calls = len(spans("replay.compile"))
    out["replay.compile.calls"] = compile_calls
    out["replay.compile.fmas"] = total_count("replay.compile", "fmas")
    out["replay.compile.self_s"] = total_self("replay.compile")
    out["replay.compile.trace_reuse"] = _ratio(
        sum(1 for r in results if r.trace_source in _MATERIALIZED), compile_calls
    )
    for layer in ("replay.ideal", "replay.bulk", "replay.stream"):
        out[f"{layer}.self_s"] = total_self(layer)
        out[f"{layer}.us_per_fma"] = _ratio(total_self(layer) * 1e6, total_count(layer, "fmas"))
    out["replay.ideal.calls"] = len(spans("replay.ideal"))
    out["replay.bulk.calls"] = len(spans("replay.bulk"))
    out["replay.bulk.cells_per_call"] = _ratio(
        total_count("replay.bulk", "cells"), len(spans("replay.bulk"))
    )

    out["hierarchy.step.cells"] = sum(1 for r in results if r.engine == "step")
    out["hierarchy.step.self_s"] = total_self("hierarchy.step")
    out["hierarchy.step.fallback_cells"] = sum(1 for r in results if r.engine_fallback)
    out["tracestore.load_s"] = total_self("tracestore.load")
    out["tracestore.store_s"] = total_self("tracestore.store")

    pool_cells = _executor_cells("parallel", pool_runs, out)
    fabric_cells = _executor_cells("fabric", fabric_runs, out)
    out["parallel.retries"] = sum(max(0, int(c.get("attempts", 1)) - 1) for c in pool_cells)
    fabric_stats = [run["manifest"].get("fabric") or {} for run in fabric_runs]
    out["fabric.leases_granted"] = sum(s.get("leases_granted", 0) for s in fabric_stats)
    out["fabric.expired_leases"] = sum(s.get("expired_leases", 0) for s in fabric_stats)
    out["fabric.retried"] = sum(s.get("retried_failures", 0) for s in fabric_stats)
    out["fabric.spawn_s"] = total_self("fabric.spawn")

    # Cell latency: parent-side spans for in-process cells, the run
    # manifests' worker-side wall time for executor cells (all LRU).
    executor_cells = pool_cells + fabric_cells
    if executor_cells:
        cell_s = [float(c.get("wall_s", 0.0)) for c in executor_cells]
        sources = [c.get("trace_source", "") for c in executor_cells]
        lru_s, lru_fmas = sum(cell_s), sum(int(c["x"]) ** 3 for c in executor_cells)
        ideal_s, ideal_fmas = 0.0, 0
    else:
        runner_spans = spans("runner")
        cell_s = [s.duration for s in runner_spans]
        sources = [r.trace_source for r in results]
        ideal = [s for s in runner_spans if s.counts.get("ideal")]
        lru = [s for s in runner_spans if not s.counts.get("ideal")]
        lru_s, lru_fmas = sum(s.duration for s in lru), sum(s.counts["fmas"] for s in lru)
        ideal_s, ideal_fmas = sum(s.duration for s in ideal), sum(s.counts["fmas"] for s in ideal)
    hits = sum(1 for src in sources if src in ("memory", "disk"))
    out["trace_memo.hit_ratio"] = _ratio(hits, sum(1 for src in sources if src in _MATERIALIZED))
    pct, tail_s = tail(cell_s)
    out["runner.cells"] = len(cell_s)
    out["runner.cell_p50_ms"] = percentile(cell_s, 50.0) * 1e3
    out["runner.cell_tail_ms"] = tail_s * 1e3
    out["runner.cell_tail_pct"] = pct
    out["runner.self_s"] = total_self("runner")
    out["runner.lru_us_per_fma"] = _ratio(lru_s * 1e6, lru_fmas)
    out["runner.ideal_us_per_fma"] = _ratio(ideal_s * 1e6, ideal_fmas)
    out["figures.self_s"] = total_self("figures")

    out["store.checkpoint.appends"] = len(spans("store.checkpoint.append"))
    out["store.checkpoint.append_s"] = total_self("store.checkpoint.append")
    out["store.serde_s"] = total_self("store.serde")

    attributed = attributed_s(tracer)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - attributed
    out["trace.attributed_frac"] = _ratio(attributed, wall_s)
    return out
