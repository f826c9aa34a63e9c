"""Laptop-local fabric: coordinator in-process, workers as subprocesses.

``repro-mmm fabric serve --local N`` needs the whole
coordinator/worker dance on one machine with one command — both as the
developer on-ramp and as the harness the chaos tests (worker SIGKILLs,
coordinator kill-and-restart) drive in CI.  :func:`run_local_fabric`:

* starts the coordinator's server threads in-process,
* forks ``N`` workers via ``sys.executable -m repro fabric worker``
  (each with its own scratch directory under the run dir, so salvage
  logs land next to the data they belong to),
* babysits them: a worker that dies abnormally — an injected ``die``
  fault, an OOM kill, a bug — is respawned while the sweep is
  unfinished and the respawn budget lasts,
* and, if every worker is gone with no budget left, aborts the
  remaining cells instead of serving a queue nobody will ever drain.

Worker stdout/stderr are inherited, so fault-injection noise shows up
in the parent's output where CI logs can capture it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.model.machine import MulticoreMachine
from repro.sim.results import SweepResult
from repro.sim.sweep import Entry
from repro.fabric.coordinator import Coordinator, fabric_order_sweep

#: How often the babysitter loop reaps/respawns workers.
_POLL_S = 0.2


def _worker_command(
    host: str,
    port: int,
    worker_id: str,
    scratch: Path,
    fault_plan_path: Optional[Union[str, Path]],
    connect_grace_s: float,
) -> List[str]:
    command = [
        sys.executable,
        "-m",
        "repro",
        "fabric",
        "worker",
        "--connect",
        f"{host}:{port}",
        "--worker-id",
        worker_id,
        "--scratch",
        str(scratch),
        "--connect-grace",
        str(connect_grace_s),
    ]
    if fault_plan_path is not None:
        command += ["--fault-plan", str(fault_plan_path)]
    return command


def _worker_env() -> Dict[str, str]:
    """Subprocess environment able to ``import repro`` like the parent."""
    env = dict(os.environ)
    package_parent = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_parent if not existing
        else package_parent + os.pathsep + existing
    )
    return env


def spawn_worker(
    host: str,
    port: int,
    *,
    worker_id: str,
    scratch: Union[str, Path],
    fault_plan_path: Optional[Union[str, Path]] = None,
    connect_grace_s: float = 10.0,
) -> "subprocess.Popen[bytes]":
    """Fork one fabric worker subprocess against ``host:port``."""
    return subprocess.Popen(
        _worker_command(
            host, port, worker_id, Path(scratch), fault_plan_path, connect_grace_s
        ),
        env=_worker_env(),
    )


def run_local_fabric(
    entries: Iterable[Entry],
    machine: MulticoreMachine,
    orders: Sequence[int],
    *,
    run_dir: Union[str, Path],
    workers: int = 2,
    resume: bool = False,
    check: bool = False,
    inclusive: bool = False,
    policy: str = "lru",
    engine: str = "replay",
    lease_s: float = 5.0,
    retries: int = 2,
    backoff: float = 0.1,
    fault_plan_path: Optional[Union[str, Path]] = None,
    max_respawns: Optional[int] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> SweepResult:
    """One-command local fabric sweep; returns the assembled result.

    Semantically equivalent to
    :func:`~repro.sim.parallel.parallel_order_sweep` over the same
    entries — successful cells are bit-identical to a serial run — but
    executed by leased subprocess workers that may crash, stall or be
    SIGKILLed without losing the sweep.
    """
    coordinator = fabric_order_sweep(
        entries,
        machine,
        orders,
        run_dir=run_dir,
        resume=resume,
        check=check,
        inclusive=inclusive,
        policy=policy,
        engine=engine,
        lease_s=lease_s,
        retries=retries,
        backoff=backoff,
        host=host,
        port=port,
    )
    bound_host, bound_port = coordinator.start()
    budget = max_respawns if max_respawns is not None else workers * 3
    scratch_root = Path(run_dir) / "salvage"
    procs: Dict[str, "subprocess.Popen[bytes]"] = {}
    spawned = 0
    try:
        for _ in range(max(workers, 1)):
            spawned += 1
            worker_id = f"w{spawned}"
            procs[worker_id] = spawn_worker(
                bound_host,
                bound_port,
                worker_id=worker_id,
                scratch=scratch_root / worker_id,
                fault_plan_path=fault_plan_path,
            )
        while not coordinator.wait(timeout=_POLL_S):
            for worker_id in sorted(procs):
                proc = procs[worker_id]
                code = proc.poll()
                if code is None or code == 0:
                    continue
                # Abnormal death (die fault, OOM, bug): replace it
                # while the budget lasts; the lease layer already
                # requeued — or soon will requeue — its cell.
                del procs[worker_id]
                if budget > 0:
                    budget -= 1
                    spawned += 1
                    replacement = f"w{spawned}"
                    procs[replacement] = spawn_worker(
                        bound_host,
                        bound_port,
                        worker_id=replacement,
                        scratch=scratch_root / replacement,
                        fault_plan_path=fault_plan_path,
                    )
            if not any(p.poll() is None for p in procs.values()):
                coordinator.abort(
                    "every local worker exited and the respawn budget "
                    "is exhausted"
                )
                break
    finally:
        deadline = time.monotonic() + 5.0
        for proc in procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in procs.values():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    return coordinator.finish()
