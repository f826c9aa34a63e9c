"""One-call experiment execution.

:func:`run_experiment` wires a machine, an algorithm and a setting into
a hierarchy + context pair, runs the schedule and packages the outcome.
This is the function everything else (experiments, benches, CLI,
examples) goes through.
"""

from __future__ import annotations

import os
import time
from typing import Any, Type, Union

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.registry import get_algorithm
from repro.analysis.formulas import FORMULAS, predict
from repro.cache import replay as replay_engine
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.exceptions import ConfigurationError, ScheduleError
from repro.model.machine import MulticoreMachine
from repro.sim.contexts import IdealContext, LRUContext
from repro.sim.results import ExperimentResult
from repro.sim.settings import Setting, get_setting

#: Valid values of ``run_experiment``'s ``engine`` parameter.
ENGINES = ("replay", "step")


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
    engine: str = "replay",
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
        ``"replay"`` (default) compiles the schedule's access trace
        once (memoized across settings and repeated runs, see
        :mod:`repro.cache.replay`) and replays it in bulk; counters are
        bit-identical to ``"step"``, which interprets the schedule
        reference-by-reference and remains the oracle.  One rule,
        :func:`repro.cache.replay.replays`, decides: replay runs when
        its kernels cover ``(mode, policy, inclusive, check)`` and the
        cell's ``m·n·z`` multiply-adds are within ``REPRO_STREAM_FMAS``;
        any other cell runs on the step engine, whose memory does not
        grow with the trace.  The result records which engine ran
        (``engine``, ``kernel``) and whether replay was requested but
        step ran (``engine_fallback``).
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
    if engine == "replay" and replay_engine.replays(
        setting.mode, policy, inclusive, check, m * n * z
    ):
        start = time.perf_counter()
        trace = replay_engine.compiled_trace_for(alg, directives=setting.is_ideal)
        if setting.is_ideal:
            stats = replay_engine.replay_ideal(trace)
            kernel = "ideal"
        else:
            stats = replay_engine.replay_bulk(
                trace, [(policy, simulated.cs, simulated.cd)]
            )[0]
            kernel = f"bulk-{policy}"
        elapsed = time.perf_counter() - start
        comp = list(trace.comp)
        ran, trace_source = "replay", trace.origin
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
        ran = kernel = "step"
        trace_source = ""

    if verify_comp and sum(comp) != m * n * z:
        raise ScheduleError(
            f"{alg.name} emitted {sum(comp)} multiply-adds, "
            f"expected m*n*z = {m * n * z}"
        )

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
        kernel=kernel,
        trace_source=trace_source,
    )
