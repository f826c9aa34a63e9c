"""JSON (de)serialization of experiment results for the checkpoint log.

A checkpointed cell must reload *bit-identical*: the resumed
:class:`~repro.sim.results.ExperimentResult` carries exactly the
simulated state — cache statistics, per-core compute counts, resolved
algorithm parameters, the machine, the closed-form prediction — that a
fresh run would produce.  Everything here is plain ints, floats and
strings, and finite doubles round-trip exactly through JSON, so
equality of the reloaded result with the original is exact, not
approximate.

Engine telemetry (``elapsed_s``, ``attempts``, ``worker``, ``engine``,
``engine_fallback``, ``trace_source``) is carried along for
observability but is *not* part of the identity a resume must
reproduce — two uninterrupted runs already disagree on it (and
replay/step produce bit-identical counts).  Payloads written by older
versions may also carry ``kernel``; loading ignores it.

Imports of the result/formula types are deferred into the functions:
:mod:`repro.sim.telemetry` writes through :mod:`repro.store.atomic`,
so this module must not import :mod:`repro.sim.results` at import time
(it would close an import cycle through the package ``__init__``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cache.stats import CacheStats, HierarchyStats
from repro.model.machine import MulticoreMachine

#: Result payload schema inside checkpoint records; bump on
#: incompatible layout changes.
RESULT_SCHEMA = 1


def machine_to_dict(machine: MulticoreMachine) -> Dict[str, Any]:
    """Serializable machine description (every identity-bearing field)."""
    return {
        "p": machine.p,
        "cs": machine.cs,
        "cd": machine.cd,
        "sigma_s": machine.sigma_s,
        "sigma_d": machine.sigma_d,
        "q": machine.q,
        "name": machine.name,
    }


def machine_from_dict(payload: Dict[str, Any]) -> MulticoreMachine:
    return MulticoreMachine(
        p=payload["p"],
        cs=payload["cs"],
        cd=payload["cd"],
        sigma_s=payload["sigma_s"],
        sigma_d=payload["sigma_d"],
        q=payload["q"],
        name=payload.get("name", ""),
    )


def _cache_stats_to_dict(stats: CacheStats) -> Dict[str, Any]:
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "writebacks": stats.writebacks,
        "misses_by_matrix": list(stats.misses_by_matrix),
    }


def _cache_stats_from_dict(payload: Dict[str, Any]) -> CacheStats:
    return CacheStats(
        hits=payload["hits"],
        misses=payload["misses"],
        writebacks=payload["writebacks"],
        misses_by_matrix=list(payload["misses_by_matrix"]),
    )


def stats_to_dict(stats: HierarchyStats) -> Dict[str, Any]:
    return {
        "shared": _cache_stats_to_dict(stats.shared),
        "distributed": [_cache_stats_to_dict(c) for c in stats.distributed],
    }


def stats_from_dict(payload: Dict[str, Any]) -> HierarchyStats:
    return HierarchyStats(
        shared=_cache_stats_from_dict(payload["shared"]),
        distributed=[_cache_stats_from_dict(c) for c in payload["distributed"]],
    )


def result_to_dict(result: Any) -> Dict[str, Any]:
    """Serialize an :class:`~repro.sim.results.ExperimentResult`."""
    payload: Dict[str, Any] = {
        "schema": RESULT_SCHEMA,
        "algorithm": result.algorithm,
        "setting": result.setting,
        "machine": machine_to_dict(result.machine),
        "m": result.m,
        "n": result.n,
        "z": result.z,
        "parameters": dict(result.parameters),
        "stats": stats_to_dict(result.stats),
        "comp": list(result.comp),
        "elapsed_s": result.elapsed_s,
        "attempts": result.attempts,
        "engine": result.engine,
        "engine_fallback": result.engine_fallback,
        "trace_source": result.trace_source,
    }
    if result.predicted is not None:
        payload["predicted"] = {"ms": result.predicted.ms, "md": result.predicted.md}
    if result.worker is not None:
        payload["worker"] = result.worker
    return payload


def result_from_dict(payload: Dict[str, Any]) -> Any:
    """Rebuild an :class:`~repro.sim.results.ExperimentResult`.

    Raises
    ------
    KeyError, TypeError, ValueError
        When the payload does not describe a valid result — callers
        (the checkpoint loader) treat that as a corrupt record.
    """
    from repro.analysis.formulas import PredictedCounts
    from repro.sim.results import ExperimentResult

    if payload.get("schema") != RESULT_SCHEMA:
        raise ValueError(
            f"unsupported result schema {payload.get('schema')!r}; "
            f"expected {RESULT_SCHEMA}"
        )
    predicted: Optional[PredictedCounts] = None
    if "predicted" in payload:
        predicted = PredictedCounts(
            ms=payload["predicted"]["ms"], md=payload["predicted"]["md"]
        )
    comp: List[int] = list(payload["comp"])
    return ExperimentResult(
        algorithm=payload["algorithm"],
        setting=payload["setting"],
        machine=machine_from_dict(payload["machine"]),
        m=payload["m"],
        n=payload["n"],
        z=payload["z"],
        parameters=dict(payload["parameters"]),
        stats=stats_from_dict(payload["stats"]),
        comp=comp,
        predicted=predicted,
        elapsed_s=payload.get("elapsed_s", 0.0),
        attempts=payload.get("attempts", 1),
        worker=payload.get("worker"),
        engine=payload.get("engine", ""),
        engine_fallback=payload.get("engine_fallback", False),
        trace_source=payload.get("trace_source", ""),
    )
