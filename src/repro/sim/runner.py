"""One-call experiment execution.

:func:`run_experiment` wires a machine, an algorithm and a setting into
a hierarchy + context pair, runs the schedule and packages the outcome.
This is the function everything else (experiments, benches, CLI,
examples) goes through.

It also memoizes unchecked cell results in-process, on either engine.
A cell's counters depend on its schedule
(:class:`~repro.algorithms.base.ScheduleKey`) and on the simulated
hierarchy: nothing else for unchecked IDEAL cells, whose explicit
directives never consult a capacity, and the policy, inclusion and
simulated ``CS``/``CD`` for LRU-family cells.  So the memo is keyed on
the engine requested and the engine that ran, plus ``(ScheduleKey,
"ideal")`` or ``(ScheduleKey, policy, inclusive, cs, cd)``: a Fig. 12
ratio sweep evaluates each of its few schedules once, and Figs. 7–11
evaluate the cells they share once.  The requested engine in the key
keeps a replay call's result, even one that fell back to step, from
answering a step call and vice versa, so comparing the two engines
compares two simulations; the engine that ran keeps a hit's ``engine``
true to where its counters came from.  :func:`clear_memos` drops the
memo; no other in-process memo exists, since replay compiles its traces
afresh (or loads them from the on-disk tier) on every memo miss.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Any, List, Optional, Tuple, Type, Union

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.registry import get_algorithm
from repro.analysis.formulas import FORMULAS, predict
from repro.cache import replay as replay_engine
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.cache.stats import HierarchyStats
from repro.exceptions import ConfigurationError, ScheduleError
from repro.model.machine import MulticoreMachine
from repro.sim.contexts import IdealContext, LRUContext
from repro.sim.results import ExperimentResult
from repro.sim.settings import Setting, get_setting

#: Valid values of ``run_experiment``'s ``engine`` parameter.
ENGINES = ("replay", "step")

#: Most cell results the memo keeps (least recently used go first).  An
#: entry is a few hundred bytes: counters and per-core multiply-adds.
_RESULT_MEMO_CAP = 4096

_RESULTS: "OrderedDict[Tuple[Any, ...], Tuple[HierarchyStats, List[int]]]" = (
    OrderedDict()
)


def clear_memos() -> None:
    """Drop the in-process result memo, the only memo there is.

    A cold start needs it; forked sweep workers inherit whatever the
    parent holds.
    """
    _RESULTS.clear()


def run_experiment(
    algorithm: Union[str, Type[MatmulAlgorithm]],
    machine: MulticoreMachine,
    m: int,
    n: int,
    z: int,
    setting: Union[str, Setting] = "ideal",
    *,
    check: bool = False,
    policy: str = "lru",
    inclusive: bool = False,
    verify_comp: bool = True,
    engine: str = "step",
    **alg_params: Any,
) -> ExperimentResult:
    """Run one algorithm on one machine under one setting.

    Parameters
    ----------
    algorithm:
        Registered name or :class:`MatmulAlgorithm` subclass.
    machine:
        The physical machine (full cache sizes, real bandwidths).
    m, n, z:
        Matrix dimensions in blocks (``A: m×z``, ``B: z×n``).
    setting:
        Simulation setting key or object (``ideal``, ``lru``,
        ``lru-2x``, ``lru-50``).
    check:
        In IDEAL mode, enable capacity/inclusion/presence verification
        (slower; invaluable in tests).
    policy, inclusive:
        LRU-mode hierarchy options (replacement policy; shared-eviction
        back-invalidation).
    verify_comp:
        Assert that the schedule emitted exactly ``m·n·z`` elementary
        multiply-adds (cheap sanity net; disable only in throughput
        measurements).
    engine:
        ``"step"`` (default) interprets the schedule
        reference-by-reference and is the oracle.  It fast-forwards
        the loops a schedule declares once the hierarchy state repeats
        up to the loop's key shift, exactly (LRU, FIFO and unchecked
        IDEAL; see :mod:`repro.sim.contexts`), so its cost is not
        linear in the cell's touches, and its memory does not grow
        with them.  ``"replay"`` compiles the schedule's access trace
        (or loads it from the on-disk tier, see
        :mod:`repro.cache.replay`) and replays its IDEAL directives in
        one vectorized pass, with counters bit-identical to step;
        Fig. 12's ratio sweep still asks for it, and no sweep executor
        does.  One rule, :func:`repro.cache.replay.replays`, decides
        whether a replay request replays: the cell must be an
        unchecked IDEAL cell whose ``m·n·z`` multiply-adds are within
        :data:`repro.cache.replay.STREAM_FMAS`; any other cell, every
        LRU-family cell included, runs on step with bit-identical
        counters.  The result records which engine ran
        (``engine``) and whether replay was requested but step ran
        (``engine_fallback``).  With ``check=False`` the
        cell's counters may come from the result memo
        (``trace_source="memo"``), but only from an entry a call with
        the same ``engine`` filled, whichever engine ran it (see the
        module docstring); checked runs never read or fill it.
    alg_params:
        Forwarded to the algorithm constructor (parameter overrides).
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; valid engines: {list(ENGINES)}"
        )
    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm)
    if isinstance(setting, str):
        setting = get_setting(setting)

    declared = setting.declared(machine)
    alg = algorithm(declared, m, n, z, **alg_params)

    if setting.is_ideal and not algorithm.supports_ideal:
        raise ConfigurationError(
            f"{alg.name} is a compute-only schedule without explicit "
            "IDEAL directives; run it under an LRU-family setting (or "
            "through MultiLevelContext)"
        )

    simulated = setting.simulated(machine)
    replayed = engine == "replay" and replay_engine.replays(
        setting.mode, policy, inclusive, check, m * n * z
    )
    ran = "replay" if replayed else "step"
    memo_key: Optional[Tuple[Any, ...]] = None
    if not check:
        schedule = alg.schedule_key()
        memo_key = (
            (engine, ran, schedule, "ideal")
            if setting.is_ideal
            else (engine, ran, schedule, policy, inclusive, simulated.cs, simulated.cd)
        )
    start = time.perf_counter()
    hit: Optional[Tuple[HierarchyStats, List[int]]] = None
    if memo_key is not None:
        hit = _RESULTS.get(memo_key)
        if hit is not None:
            _RESULTS.move_to_end(memo_key)
    if hit is not None:
        stats, comp = hit[0].copy(), list(hit[1])
        elapsed = time.perf_counter() - start
        trace_source = "memo"
    elif replayed:
        trace = replay_engine.compiled_trace_for(alg)
        stats = replay_engine.replay_ideal(trace)
        elapsed = time.perf_counter() - start
        comp = list(trace.comp)
        trace_source = trace.origin
    else:
        if setting.is_ideal:
            hierarchy: Union[IdealHierarchy, LRUHierarchy] = IdealHierarchy(
                machine.p, simulated.cs, simulated.cd, check=check
            )
            ctx: Union[IdealContext, LRUContext] = IdealContext(hierarchy)
        else:
            hierarchy = LRUHierarchy(
                machine.p, simulated.cs, simulated.cd, policy=policy, inclusive=inclusive
            )
            ctx = LRUContext(hierarchy)
        start = time.perf_counter()
        alg.run(ctx)
        elapsed = time.perf_counter() - start
        stats = hierarchy.snapshot()
        comp = list(ctx.comp)
        trace_source = ""

    if verify_comp and sum(comp) != m * n * z:
        raise ScheduleError(
            f"{alg.name} emitted {sum(comp)} multiply-adds, "
            f"expected m*n*z = {m * n * z}"
        )
    if memo_key is not None and hit is None:
        _RESULTS[memo_key] = (stats.copy(), list(comp))
        if len(_RESULTS) > _RESULT_MEMO_CAP:
            _RESULTS.popitem(last=False)

    predicted = predict(alg) if alg.name in FORMULAS else None
    return ExperimentResult(
        algorithm=alg.name,
        setting=setting.key,
        machine=machine,
        m=m,
        n=n,
        z=z,
        parameters=alg.parameters(),
        stats=stats,
        comp=comp,
        predicted=predicted,
        elapsed_s=elapsed,
        worker=os.getpid(),
        engine=ran,
        engine_fallback=engine != ran,
        trace_source=trace_source,
    )
