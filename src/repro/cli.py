"""Command-line interface: ``python -m repro`` / ``repro-mmm``.

Subcommands
-----------
``list``
    Show registered algorithms, machine presets and simulation settings.
``params``
    Derived tile parameters (λ, µ, α, β) for a machine.
``run``
    One experiment: algorithm × machine × dimensions × setting.
``sweep``
    Square-order sweep for one or more algorithms; ``--run-dir`` makes
    the run durable (checkpointed, resumable with ``--resume``).
``runs``
    Inspect durable run directories: ``list``, ``show``, ``verify``.
``fabric``
    Lease-based distributed sweep fabric: ``serve`` runs the durable
    cell-queue coordinator (``--local N`` also forks N workers);
    ``worker`` joins a serving coordinator.
``figure``
    Regenerate a paper figure (``fig4`` … ``fig12``) as ASCII tables
    and optionally CSV files.
``verify``
    Numerically prove an algorithm's schedule computes ``A·B``.
``check``
    Static schedule analysis (capacity/presence/coverage/races) across
    the algorithm × machine matrix, plus the repo lint pass.
``tables``
    The §4.1 cache-configuration and parameter tables.
``bench``
    Record the benchmark suite as ``BENCH_<date>.json`` and optionally
    compare against a committed baseline (exit 1 on regression).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional

from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.exceptions import ReproError
from repro.experiments.figures import FIGURES, get_figure
from repro.experiments.io import (
    figure_to_csv,
    render_figure,
    render_rows,
)
from repro.experiments.tables import cache_configuration_table, parameter_table
from repro.model.machine import PRESETS, MulticoreMachine, preset
from repro.model.params import lambda_param, mu_param
from repro.analysis.tradeoff_opt import optimal_parameters
from repro.numerics.executor import verify_schedule
from repro.sim.results import SweepResult
from repro.sim.runner import run_experiment
from repro.sim.settings import SETTINGS
from repro.sim.sweep import order_sweep


def _machine_from_args(args: argparse.Namespace) -> MulticoreMachine:
    if args.preset:
        machine = preset(args.preset)
    else:
        machine = MulticoreMachine(
            p=args.cores, cs=args.cs, cd=args.cd, q=args.q
        )
    if args.sigma_s != 1.0 or args.sigma_d != 1.0:
        machine = MulticoreMachine(
            p=machine.p,
            cs=machine.cs,
            cd=machine.cd,
            sigma_s=args.sigma_s,
            sigma_d=args.sigma_d,
            q=machine.q,
            name=machine.name,
        )
    return machine


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("machine")
    group.add_argument("--preset", choices=sorted(PRESETS), default=None)
    group.add_argument("--cores", "-p", type=int, default=4)
    group.add_argument("--cs", type=int, default=977, help="shared capacity (blocks)")
    group.add_argument("--cd", type=int, default=21, help="distributed capacity")
    group.add_argument("--q", type=int, default=32, help="block side")
    group.add_argument("--sigma-s", type=float, default=1.0)
    group.add_argument("--sigma-d", type=float, default=1.0)


def _positive_int(text: str) -> int:
    """argparse type for a matrix order: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_list(args: argparse.Namespace) -> int:
    print("algorithms (paper):")
    for name in algorithm_names():
        print(f"  {name:18s} {get_algorithm(name).label}")
    print("algorithms (extensions):")
    for name in algorithm_names(include_extras=True):
        if name not in algorithm_names():
            print(f"  {name:18s} {get_algorithm(name).label}")
    print("presets:")
    for key, machine in PRESETS.items():
        print(f"  {key:18s} {machine.name}")
    print("settings:", ", ".join(sorted(SETTINGS)))
    print("figures:", ", ".join(FIGURES))
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    machine = _machine_from_args(args)
    print(f"machine: p={machine.p} CS={machine.cs} CD={machine.cd}")
    print(f"lambda (Shared Opt.):      {lambda_param(machine.cs)}")
    print(f"mu (Distributed Opt.):     {mu_param(machine.cd)}")
    if machine.is_square_grid:
        params = optimal_parameters(machine)
        print(
            f"tradeoff: alpha={params.alpha} beta={params.beta} "
            f"mu={params.mu} (alpha_num={params.alpha_num:.2f})"
        )
    else:
        print("tradeoff: n/a (core count is not a perfect square)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    machine = _machine_from_args(args)
    result = run_experiment(
        args.algorithm,
        machine,
        args.m,
        args.n if args.n else args.m,
        args.z if args.z else args.m,
        args.setting,
        check=args.check,
        inclusive=args.inclusive,
        policy=args.policy,
    )
    print(render_rows([result.to_row()]))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    machine = _machine_from_args(args)
    entries = [(alg, args.setting) for alg in args.algorithms]
    use_engine = (
        args.workers is not None
        or args.manifest is not None
        or args.run_dir is not None
    )
    if use_engine:
        from repro.sim.parallel import parallel_order_sweep

        sweep = parallel_order_sweep(
            entries,
            machine,
            args.orders,
            policy=args.policy,
            workers=args.workers,
            cell_timeout=args.cell_timeout,
            retries=args.retries,
            manifest_path=args.manifest,
            run_dir=args.run_dir,
            resume=args.resume,
        )
    else:
        if args.resume:
            print("error: --resume requires --run-dir", file=sys.stderr)
            return 2
        sweep = order_sweep(
            entries,
            machine,
            args.orders,
            policy=args.policy,
        )
    return _report_sweep(args, sweep)


def _report_sweep(args: argparse.Namespace, sweep: SweepResult) -> int:
    """Print a finished pool or fabric sweep: rows, failures, telemetry."""
    rows: List[Dict[str, Any]] = []
    for label, results in sweep.series.items():
        for result in results:
            if result is not None:
                rows.append(result.to_row())
    print(render_rows(rows))
    for record in sweep.failures:
        print(
            f"{record.status}: {record.label} @ {sweep.variable}={record.x} "
            f"after {record.attempts} attempt(s): "
            f"{record.error_type}: {record.error}",
            file=sys.stderr,
        )
    manifest = sweep.manifest
    if manifest is not None:
        counts = manifest.counts()
        stats = manifest.fabric
        summary = (
            f"{'sweep' if stats is None else 'fabric'}: {counts['ok']} ok, "
            f"{counts['failed']} failed, {counts['skipped']} skipped"
        )
        if manifest.resumed_cells:
            summary += f" ({manifest.resumed_cells} resumed from checkpoint)"
        if stats is None:
            summary += (
                f"; {manifest.workers} worker(s), "
                f"utilization {manifest.utilization():.0%}"
            )
        else:
            summary += (
                f"; {stats.leases_granted} lease(s), "
                f"{stats.expired_leases} expired, "
                f"{stats.retried_failures} retried, "
                f"{stats.duplicate_results} duplicate(s); "
                f"{stats.workers_seen} worker(s) seen, {stats.workers_lost} lost"
            )
        print(f"{summary}; {manifest.elapsed_s:.2f}s", file=sys.stderr)
        if getattr(args, "manifest", None):
            print(f"manifest: {args.manifest}", file=sys.stderr)
        if args.run_dir:
            print(f"run dir: {args.run_dir}", file=sys.stderr)
    if sweep.interrupted is not None:
        import signal as _signal

        print(f"sweep interrupted by {sweep.interrupted}", file=sys.stderr)
        signum = getattr(_signal, sweep.interrupted, None)
        return 128 + int(signum) if signum is not None else 1
    return 0 if sweep.complete else 1


def _cmd_fabric_serve(args: argparse.Namespace) -> int:
    from repro.fabric import fabric_order_sweep, run_local_fabric

    machine = _machine_from_args(args)
    entries = [(alg, args.setting) for alg in args.algorithms]
    if args.local is not None:
        if args.local < 1:
            print("error: --local needs at least one worker", file=sys.stderr)
            return 2
        sweep = run_local_fabric(
            entries,
            machine,
            args.orders,
            run_dir=args.run_dir,
            workers=args.local,
            resume=args.resume,
            policy=args.policy,
            lease_s=args.lease,
            retries=args.retries,
            backoff=args.backoff,
            fault_plan_path=args.fault_plan,
            max_respawns=args.max_respawns,
            host=args.host,
            port=args.port,
        )
        return _report_sweep(args, sweep)
    coordinator = fabric_order_sweep(
        entries,
        machine,
        args.orders,
        run_dir=args.run_dir,
        resume=args.resume,
        policy=args.policy,
        lease_s=args.lease,
        retries=args.retries,
        backoff=args.backoff,
        host=args.host,
        port=args.port,
    )
    host, port = coordinator.start()
    print(f"fabric coordinator serving on {host}:{port}", file=sys.stderr)
    print(
        f"join with: repro-mmm fabric worker --connect {host}:{port}",
        file=sys.stderr,
    )
    try:
        while not coordinator.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        coordinator.interrupt("SIGINT")
    sweep = coordinator.finish()
    return _report_sweep(args, sweep)


def _cmd_fabric_worker(args: argparse.Namespace) -> int:
    from repro.fabric import FabricWorker
    from repro.sim.faults import load_fault_plan

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(
            f"error: --connect wants HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    fault_plan = load_fault_plan(args.fault_plan) if args.fault_plan else None
    worker = FabricWorker(
        (host, int(port_text)),
        worker_id=args.worker_id,
        fault_plan=fault_plan,
        scratch=args.scratch,
        connect_grace_s=args.connect_grace,
    )
    return worker.run()


#: Order-sweep figures whose cells can fan out over a process pool.
_PARALLEL_FIGS = frozenset(
    {"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
)


def _cmd_figure(args: argparse.Namespace) -> int:
    import os

    tier = args.trace_tier or os.environ.get("REPRO_TRACE_TIER")
    if tier:
        from repro.cache.replay import configure_trace_tier

        configure_trace_tier(tier)
    kwargs: Dict[str, Any] = {}
    if args.fig_id == "fig12":
        if args.orders and len(args.orders) > 1:
            given = " ".join(map(str, args.orders))
            print(
                f"error: fig12 is drawn at one order, got --orders {given}",
                file=sys.stderr,
            )
            return 2
        if args.orders:
            kwargs["order"] = args.orders[0]
    elif args.orders:
        kwargs["orders"] = args.orders
    if args.workers > 1:
        if args.fig_id not in _PARALLEL_FIGS:
            print(
                f"error: --workers applies to {', '.join(sorted(_PARALLEL_FIGS))}",
                file=sys.stderr,
            )
            return 2
        kwargs["workers"] = args.workers
    figure = get_figure(args.fig_id, **kwargs)
    print(render_figure(figure))
    if args.csv:
        paths = figure_to_csv(figure, args.csv)
        print("wrote:", ", ".join(str(p) for p in paths))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    machine = _machine_from_args(args)
    cls = get_algorithm(args.algorithm)
    alg = cls(machine, args.m, args.n if args.n else args.m, args.z if args.z else args.m)
    verify_schedule(alg, q=args.block, seed=args.seed)
    print(
        f"{alg.name}: schedule for m={alg.m}, n={alg.n}, z={alg.z} computes "
        "A*B exactly (numeric verification passed)"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.policies import miss_curve_rows, replacement_gap

    machine = _machine_from_args(args)
    size = args.m
    print(f"replacement gap for {args.algorithm} at order {size}:")
    print(render_rows(replacement_gap(args.algorithm, machine, size, size, size)))
    if args.curve:
        print("LRU/OPT miss curve of the full trace:")
        print(render_rows(miss_curve_rows(args.algorithm, machine, size, size, size)))
    return 0


def _cmd_lu(args: argparse.Namespace) -> int:
    from repro.lu.numeric import verify_lu_schedule
    from repro.lu.runner import run_lu
    from repro.lu.schedules import LU_SCHEDULES

    machine = _machine_from_args(args)
    rows: List[Dict[str, Any]] = []
    for name, cls in LU_SCHEDULES.items():
        if args.verify:
            verify_lu_schedule(cls(machine, min(args.n, 6)), q=4)
        result = run_lu(name, machine, args.n, args.setting)
        rows.append(
            {
                "schedule": name,
                "n": args.n,
                "MS": result.ms,
                "MD": result.md,
                "Tdata": result.tdata,
                "updates": sum(result.ops.update),
                "trsms": sum(result.ops.trsm),
            }
        )
    print(render_rows(rows))
    if args.verify:
        print("numeric verification passed for both schedules")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.check.findings import CHECKER_VERSION, ERROR
    from repro.check.lint import run_lint
    from repro.check.runner import check_all
    from repro.check.rules import REGISTRY
    from repro.check.sarif import write_sarif

    if args.list_rules:
        rules = [REGISTRY[rule_id] for rule_id in sorted(REGISTRY)]
        if args.json:
            print(
                json.dumps(
                    {"schema": 2, "rules": [r.to_dict() for r in rules]},
                    indent=2,
                )
            )
        else:
            id_width = max(len(r.id) for r in rules)
            level_width = max(len(r.severity) for r in rules)
            header = f"{'RULE'.ljust(id_width)}  {'LEVEL'.ljust(level_width)}  HELP"
            print(header)
            print("-" * len(header))
            for rule in rules:
                print(
                    f"{rule.id.ljust(id_width)}  "
                    f"{rule.severity.ljust(level_width)}  {rule.help}"
                )
            print(f"{len(rules)} rule(s) registered")
        return 0

    algorithms = args.algorithm or None
    machines = None
    if args.machine:
        machines = {key: preset(key) for key in args.machine}

    scan_pool = None
    scan_future = None
    if args.lint:
        # The source scan (lint + determinism rules + suppression
        # hygiene) is static source analysis, so it rides with --lint;
        # the schedule-cell analyzers below run regardless.  Both are
        # GIL-bound pure Python, so given a second core the (serial)
        # scan runs in one worker process concurrently with the matrix.
        if (os.cpu_count() or 1) > 1:
            from concurrent.futures import ProcessPoolExecutor

            scan_pool = ProcessPoolExecutor(max_workers=1)
            try:
                scan_future = scan_pool.submit(run_lint)
            except Exception:
                scan_pool.shutdown(wait=False)
                raise

    lint_findings: List[Any] = []
    try:
        reports = check_all(algorithms, machines, orders=args.orders)
        if scan_future is not None:
            lint_findings = scan_future.result()
        elif args.lint:
            lint_findings = run_lint()
    finally:
        if scan_pool is not None:
            scan_pool.shutdown()

    findings = [f for r in reports for f in r.findings] + lint_findings
    errors = sum(1 for f in findings if f.severity == ERROR)
    warnings = len(findings) - errors

    if args.sarif:
        write_sarif(Path(args.sarif), findings)

    analyzed = [r for r in reports if not r.skipped]
    skipped = [r for r in reports if r.skipped]

    if args.json:
        print(
            json.dumps(
                {
                    "schema": 6,
                    "checker_version": CHECKER_VERSION,
                    "reports": [r.to_dict() for r in reports],
                    "lint": [f.to_dict() for f in lint_findings],
                    "errors": errors,
                    "warnings": warnings,
                    "cells": {"analyzed": len(analyzed), "skipped": len(skipped)},
                    "elapsed_s": round(sum(r.elapsed_s for r in reports), 6),
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        clean = sum(1 for r in analyzed if r.ok)
        summary = (
            f"check: {len(analyzed)} schedule cells analyzed, {clean} clean; "
            f"{errors} error(s), {warnings} warning(s)"
        )
        if skipped:
            summary += f"; {len(skipped)} infeasible cell(s) skipped"
        if args.lint:
            summary += (
                "; source scan (lint/determinism): "
                f"{len(lint_findings)} finding(s)"
            )
        print(summary)
    if not analyzed:
        # A run that proves nothing must not pass.
        raise ReproError("no schedule cell was analyzed")
    return 1 if errors else 0


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.store import list_runs

    runs = list_runs(Path(args.root))
    if not runs:
        print(f"no run directories under {args.root}")
        return 0
    rows: List[Dict[str, Any]] = []
    for path, meta in runs:
        created = meta.get("created_at", "?")
        if isinstance(created, (int, float)):
            from datetime import datetime, timezone

            created = datetime.fromtimestamp(created, tz=timezone.utc).strftime(
                "%Y-%m-%d %H:%M:%S"
            )
        row: Dict[str, Any] = {
            "run": str(path),
            "status": meta.get("status", "?"),
            "created": created,
            "resumes": meta.get("resumes", 0),
        }
        counts = meta.get("cell_counts")
        if isinstance(counts, dict):
            row["ok"] = counts.get("ok", 0)
            row["failed"] = counts.get("failed", 0)
            row["skipped"] = counts.get("skipped", 0)
        rows.append(row)
    print(render_rows(rows))
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.store import RunStore

    store = RunStore(Path(args.run_dir))
    meta = store.load_meta()
    if meta is None:
        print(f"error: {args.run_dir} is not a run directory", file=sys.stderr)
        return 2
    for key in sorted(meta):
        if key in ("schema", "kind"):
            continue
        print(f"{key}: {meta[key]}")
    loaded = store.load_checkpoint()
    counts: Dict[str, int] = {}
    for record in loaded.ok_records().values():
        status = str(record.get("status", "?"))
        counts[status] = counts.get(status, 0) + 1
    checkpoint = ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
    print(f"checkpoint: {checkpoint or 'empty'} ({loaded.total_lines} record(s))")
    if loaded.quarantined:
        print(f"quarantined: {len(loaded.quarantined)} corrupt record(s)")
    for warning in loaded.warnings:
        print(f"warning: {warning}")
    print(f"manifest: {'present' if store.manifest_path.exists() else 'missing'}")
    return 0


def _cmd_runs_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.store import RunStore

    store = RunStore(Path(args.run_dir))
    if not store.run_path.exists() and not store.checkpoint_path.exists():
        print(f"error: {args.run_dir} is not a run directory", file=sys.stderr)
        return 2
    audit = store.audit()
    for error in audit.errors:
        print(f"error: {error}")
    for warning in audit.warnings:
        print(f"warning: {warning}")
    if audit.journal is not None and audit.journal.records:
        from repro.fabric.journal import journal_status, load_journal

        line = journal_status(load_journal(store.journal_path))
        if line is not None:
            print(line)
    counts = audit.counts()
    summary = ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
    if not audit.ok:
        verdict = "CORRUPT"
    elif audit.in_progress:
        # A live (or abandoned mid-write) run: a torn checkpoint tail
        # here is the writer mid-append, not corruption.
        verdict = "in progress"
    else:
        verdict = "ok"
    print(f"{args.run_dir}: {verdict} ({summary or 'no checkpoint records'})")
    return 0 if audit.ok else 1


def _cmd_traces_stats(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.cache.tracestore import tier_info

    root = Path(args.root)
    info = tier_info(root)
    if args.json:
        print(json.dumps({"schema": 2, "root": str(root), **info}))
        return 0
    if not root.is_dir():
        print(f"no trace tier at {root}")
        return 0
    mib = info["bytes"] / (1024 * 1024)
    print(f"trace tier: {root}")
    print(f"  entries: {info['entries']} ({info['directive_entries']} with directives)")
    print(f"  fmas:    {info['fmas']}")
    print(f"  size:    {mib:.1f} MiB")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    print("Cache configurations (paper 4.1):")
    print(render_rows(cache_configuration_table()))
    print("Derived algorithm parameters:")
    print(render_rows(parameter_table()))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.bench import record as bench_record

    if args.from_json:
        report = json.loads(Path(args.from_json).read_text())
        record = bench_record.record_from_benchmark_json(
            report, scale=args.scale
        )
    else:
        record = bench_record.run_quick_suite(
            scale=args.scale, bench_dir=args.bench_dir, select=args.select
        )

    out = Path(args.out) if args.out else bench_record.default_record_path()
    bench_record.write_record(record, out)
    n = len(record["benchmarks"])
    print(f"recorded {n} benchmarks -> {out}")

    if args.write_baseline:
        bench_record.write_record(record, args.write_baseline)
        print(f"baseline refreshed -> {args.write_baseline}")

    if not args.baseline:
        return 0
    baseline = bench_record.load_record(args.baseline)
    regressions, added, removed = bench_record.compare_records(
        record, baseline, threshold=args.threshold
    )
    for name in added:
        print(f"new benchmark (no baseline): {name}")
    for name in removed:
        print(f"benchmark gone from suite: {name}")
    if regressions:
        print(
            f"{len(regressions)} regression(s) beyond "
            f"{args.threshold:.0%} vs {args.baseline}:"
        )
        for regression in regressions:
            print(f"  {regression.describe()}")
        return 1
    compared = len(set(record["benchmarks"]) & set(baseline["benchmarks"]))
    print(
        f"no regressions: {compared} benchmarks within "
        f"{args.threshold:.0%} of {args.baseline}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mmm",
        description="Matrix product on multicore architectures (ICPP 2009) "
        "— reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list algorithms/presets/settings")
    p_list.set_defaults(func=_cmd_list)

    p_params = sub.add_parser("params", help="derived tile parameters")
    _add_machine_args(p_params)
    p_params.set_defaults(func=_cmd_params)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_machine_args(p_run)
    p_run.add_argument("algorithm", choices=algorithm_names(include_extras=True))
    p_run.add_argument("-m", type=int, required=True, help="order (blocks)")
    p_run.add_argument("-n", type=int, default=0)
    p_run.add_argument("-z", type=int, default=0)
    p_run.add_argument("--setting", choices=sorted(SETTINGS), default="lru-50")
    p_run.add_argument("--check", action="store_true", help="verify IDEAL mode")
    p_run.add_argument("--inclusive", action="store_true")
    p_run.add_argument("--policy", choices=("lru", "fifo"), default="lru")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="square-order sweep")
    _add_machine_args(p_sweep)
    p_sweep.add_argument("algorithms", nargs="+", choices=algorithm_names(include_extras=True))
    p_sweep.add_argument(
        "--orders", type=int, nargs="+", default=[16, 32, 48, 64]
    )
    p_sweep.add_argument("--setting", choices=sorted(SETTINGS), default="lru-50")
    p_sweep.add_argument("--policy", choices=("lru", "fifo"), default="lru")
    engine = p_sweep.add_argument_group("parallel engine")
    engine.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run cells on a process pool with this many workers "
        "(default: serial in-process sweep)",
    )
    engine.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell deadline; an overdue cell is retried, then "
        "recorded as failed (default: no timeout)",
    )
    engine.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per failed cell (default: 2)",
    )
    engine.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the JSON run manifest here (implies the parallel engine)",
    )
    durability = p_sweep.add_argument_group("durability")
    durability.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="checkpoint every completed cell into this run directory "
        "(implies the parallel engine); SIGINT/SIGTERM drain in-flight "
        "work and flush the checkpoint before exiting",
    )
    durability.add_argument(
        "--resume",
        action="store_true",
        help="resume from --run-dir's checkpoint: completed cells are "
        "restored, only failed/skipped/missing cells re-run",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("fig_id", choices=list(FIGURES))
    p_fig.add_argument("--orders", type=int, nargs="+", default=None)
    p_fig.add_argument("--csv", default=None, help="directory for CSV output")
    p_fig.add_argument(
        "--trace-tier",
        metavar="DIR",
        default=None,
        help="on-disk compiled-trace tier for fig12, the one figure whose "
        "cells replay compiled traces (default: $REPRO_TRACE_TIER)",
    )
    p_fig.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fan sweep cells over N processes (order-sweep figures)",
    )
    p_fig.set_defaults(func=_cmd_figure)

    p_verify = sub.add_parser("verify", help="numeric schedule verification")
    _add_machine_args(p_verify)
    p_verify.add_argument("algorithm", choices=algorithm_names(include_extras=True))
    p_verify.add_argument("-m", type=int, default=12)
    p_verify.add_argument("-n", type=int, default=0)
    p_verify.add_argument("-z", type=int, default=0)
    p_verify.add_argument("--block", type=int, default=4, help="numeric q")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_check = sub.add_parser(
        "check", help="static schedule analysis (capacity/presence/coverage/races)"
    )
    p_check.add_argument(
        "--algorithm",
        action="append",
        choices=algorithm_names(include_extras=True),
        default=None,
        help="restrict to one algorithm (repeatable; default: all)",
    )
    p_check.add_argument(
        "--machine",
        action="append",
        choices=sorted(PRESETS),
        default=None,
        help="restrict to one machine preset (repeatable; default: all)",
    )
    p_check.add_argument(
        "--orders",
        type=_positive_int,
        nargs="+",
        default=None,
        help="matrix orders to analyze (default: derived from tile sides)",
    )
    p_check.add_argument(
        "--lint",
        action="store_true",
        help="also run the source scan (lint + determinism rules)",
    )
    p_check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry (id, severity, help) and exit; "
        "with --json, machine-readable",
    )
    p_check.add_argument(
        "--json", action="store_true", help="machine-readable output (schema 6)"
    )
    p_check.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        help="export findings as SARIF 2.1.0 (GitHub code scanning)",
    )
    p_check.set_defaults(func=_cmd_check)

    p_runs = sub.add_parser("runs", help="inspect durable run directories")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    p_runs_list = runs_sub.add_parser("list", help="list run directories")
    p_runs_list.add_argument(
        "root", nargs="?", default=".", help="directory to scan (default: .)"
    )
    p_runs_list.set_defaults(func=_cmd_runs_list)
    p_runs_show = runs_sub.add_parser("show", help="show one run's metadata")
    p_runs_show.add_argument("run_dir")
    p_runs_show.set_defaults(func=_cmd_runs_show)
    p_runs_verify = runs_sub.add_parser(
        "verify", help="audit a run directory for corruption"
    )
    p_runs_verify.add_argument("run_dir")
    p_runs_verify.set_defaults(func=_cmd_runs_verify)

    p_traces = sub.add_parser(
        "traces", help="inspect the on-disk compiled-trace tier"
    )
    traces_sub = p_traces.add_subparsers(dest="traces_command", required=True)
    p_traces_stats = traces_sub.add_parser(
        "stats", help="tier entries, FMAs and size on disk"
    )
    p_traces_stats.add_argument("root", help="trace tier directory")
    p_traces_stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_traces_stats.set_defaults(func=_cmd_traces_stats)

    p_fabric = sub.add_parser(
        "fabric", help="lease-based distributed sweep fabric"
    )
    fabric_sub = p_fabric.add_subparsers(dest="fabric_command", required=True)

    p_serve = fabric_sub.add_parser(
        "serve", help="run the coordinator (durable cell queue) for a sweep"
    )
    _add_machine_args(p_serve)
    p_serve.add_argument(
        "algorithms", nargs="+", choices=algorithm_names(include_extras=True)
    )
    p_serve.add_argument(
        "--orders", type=int, nargs="+", default=[16, 32, 48, 64]
    )
    p_serve.add_argument("--setting", choices=sorted(SETTINGS), default="lru-50")
    p_serve.add_argument("--policy", choices=("lru", "fifo"), default="lru")
    p_serve.add_argument(
        "--run-dir",
        required=True,
        metavar="DIR",
        help="run directory holding the checkpoint log and coordinator "
        "journal (the durable queue)",
    )
    p_serve.add_argument(
        "--resume",
        action="store_true",
        help="restart against an existing run directory: terminal cells "
        "are restored, in-flight leases from a dead coordinator are "
        "expired and requeued",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to serve on (default: OS-assigned)",
    )
    p_serve.add_argument(
        "--lease",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="lease window; a worker silent this long loses its cell "
        "(default: 15)",
    )
    p_serve.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per lost/failed cell (default: 2)",
    )
    p_serve.add_argument(
        "--backoff",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="base retry backoff, doubled per attempt with deterministic "
        "jitter (default: 0.1)",
    )
    p_serve.add_argument(
        "--local",
        type=int,
        default=None,
        metavar="N",
        help="also fork N local workers and run the sweep to completion "
        "(laptop mode)",
    )
    p_serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="JSON fault plan injected into --local workers (testing)",
    )
    p_serve.add_argument(
        "--max-respawns",
        type=int,
        default=None,
        help="respawn budget for crashed --local workers (default: 3N)",
    )
    p_serve.set_defaults(func=_cmd_fabric_serve)

    p_worker = fabric_sub.add_parser(
        "worker", help="join a serving coordinator and execute leased cells"
    )
    p_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address printed by `fabric serve`",
    )
    p_worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: w<pid>)",
    )
    p_worker.add_argument(
        "--scratch",
        default=None,
        metavar="DIR",
        help="directory for salvage logs when the coordinator vanishes "
        "mid-result",
    )
    p_worker.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="JSON fault plan for injected failures (testing)",
    )
    p_worker.add_argument(
        "--connect-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long to absorb connection failures before the first "
        "successful exchange (default: 10)",
    )
    p_worker.set_defaults(func=_cmd_fabric_worker)

    p_tables = sub.add_parser("tables", help="cache configuration tables")
    p_tables.set_defaults(func=_cmd_tables)

    p_bench = sub.add_parser(
        "bench", help="record benchmark suite results (BENCH_<date>.json)"
    )
    p_bench.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="benchmark scale (REPRO_BENCH_SCALE)",
    )
    p_bench.add_argument(
        "--bench-dir",
        default="benchmarks",
        help="benchmark suite directory (default: benchmarks)",
    )
    p_bench.add_argument(
        "--select",
        "-k",
        default=None,
        metavar="EXPR",
        help="pytest -k expression to subset the suite",
    )
    p_bench.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="record output path (default: ./BENCH_<date>.json)",
    )
    p_bench.add_argument(
        "--from-json",
        default=None,
        metavar="PATH",
        help="convert an existing pytest-benchmark JSON report "
        "instead of running the suite",
    )
    p_bench.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="compare medians against this record; exit 1 on regression",
    )
    p_bench.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional median slowdown tolerated (default: 0.25)",
    )
    p_bench.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="also write the fresh record as the new baseline",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_analyze = sub.add_parser(
        "analyze", help="LRU vs OPT vs compulsory misses for one schedule"
    )
    _add_machine_args(p_analyze)
    p_analyze.add_argument("algorithm", choices=algorithm_names(include_extras=True))
    p_analyze.add_argument("-m", type=int, default=16, help="square order (blocks)")
    p_analyze.add_argument(
        "--curve", action="store_true", help="also print the LRU/OPT miss curve"
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_lu = sub.add_parser("lu", help="blocked LU extension (paper future work)")
    _add_machine_args(p_lu)
    p_lu.add_argument("-n", type=int, default=24, help="matrix order (blocks)")
    p_lu.add_argument(
        "--setting", choices=("lru", "lru-50", "lru-2x"), default="lru-50"
    )
    p_lu.add_argument(
        "--verify", action="store_true", help="also verify L*U = A numerically"
    )
    p_lu.set_defaults(func=_cmd_lu)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``repro-mmm check --json | head -1``).
        # Point stdout at devnull so the interpreter's exit-time flush
        # cannot raise again (the recipe in Python's ``signal`` docs),
        # and exit the way a SIGPIPE-killed process would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
