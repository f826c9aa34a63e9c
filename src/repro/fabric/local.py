"""Laptop-local fabric: coordinator in-process, workers forked from it.

``repro-mmm fabric serve --local N`` needs the whole
coordinator/worker dance on one machine with one command — both as the
developer on-ramp and as the harness the chaos tests (worker SIGKILLs,
coordinator kill-and-restart) drive in CI.  :func:`run_local_fabric`:

* starts the coordinator's server threads in-process,
* forks ``N`` workers from the coordinator's own process, which has
  already imported ``repro`` (each with its own scratch directory under
  the run dir, so salvage logs land next to the data they belong to),
* babysits them: a worker that dies abnormally — an injected ``die``
  fault, an OOM kill, a bug — is respawned while the sweep is
  unfinished and the respawn budget lasts,
* and, if every worker is gone with no budget left, aborts the
  remaining cells instead of serving a queue nobody will ever drain.

A Ctrl-C stops the workers and ends the run ``interrupted``, as it
ends a store-backed pool sweep: ``--resume`` serves the rest.

A forked worker resets SIGTERM and SIGINT, holds no coordinator
listening socket (:mod:`repro.fabric.coordinator` closes those in every
forked child), runs :meth:`FabricWorker.run` and leaves only through
``os._exit``: it never flushes or closes the checkpoint and journal
files, nor runs the exit handlers, it inherited.  Its stdout/stderr are
the parent's, so fault-injection noise shows up in the parent's output
where CI logs can capture it.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from typing import Dict, Iterable, NoReturn, Optional, Sequence, Union

from repro.model.machine import MulticoreMachine
from repro.sim.faults import load_fault_plan
from repro.sim.results import SweepResult
from repro.sim.sweep import Entry
from repro.fabric.coordinator import fabric_order_sweep
from repro.fabric.worker import FabricWorker

#: How often the babysitter loop reaps/respawns workers.
_POLL_S = 0.2


class ForkedWorker:
    """Handle on one forked worker: the ``subprocess.Popen`` calls the
    babysitter uses (``poll``, ``wait``, ``terminate``, ``kill``), with
    the same return codes (negative for a fatal signal)."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        """Reap the worker if it has exited; its return code or ``None``."""
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until the worker exits; raises
        :class:`subprocess.TimeoutExpired` after ``timeout`` seconds."""
        if timeout is None:
            if self.returncode is None:
                _, status = os.waitpid(self.pid, 0)
                self.returncode = os.waitstatus_to_exitcode(status)
            return self.returncode
        deadline = time.monotonic() + timeout
        delay = 0.001
        while True:
            code = self.poll()
            if code is not None:
                return code
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(f"fabric worker {self.pid}", timeout)
            time.sleep(min(delay, remaining))
            delay = min(delay * 2, 0.05)

    def send_signal(self, signum: int) -> None:
        # Never signal a reaped pid: the kernel may have reused it.
        if self.poll() is None:
            os.kill(self.pid, signum)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


def _run_child(
    host: str,
    port: int,
    worker_id: str,
    scratch: Path,
    fault_plan_path: Optional[Union[str, Path]],
    connect_grace_s: float,
) -> NoReturn:
    """The forked worker's whole life: serve, then ``os._exit``."""
    code = 1
    try:
        # SIGTERM kills the worker again (the parent may trap it), and
        # a terminal Ctrl-C reaches only the coordinator, whose
        # babysitter then terminates the workers — as for the pool's.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        fault_plan = (
            load_fault_plan(fault_plan_path) if fault_plan_path is not None else None
        )
        code = FabricWorker(
            (host, port),
            worker_id=worker_id,
            fault_plan=fault_plan,
            scratch=scratch,
            connect_grace_s=connect_grace_s,
        ).run()
    except BaseException:  # noqa: BLE001 — report, then exit 1 like a crashed process
        with contextlib.suppress(BaseException):
            traceback.print_exc()
    # Nothing may unwind past this frame: the stack above it is the
    # parent's babysitter, which would terminate the other workers.
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(BaseException):
            stream.flush()
    os._exit(code)


def spawn_worker(
    host: str,
    port: int,
    *,
    worker_id: str,
    scratch: Union[str, Path],
    fault_plan_path: Optional[Union[str, Path]] = None,
    connect_grace_s: float = 10.0,
) -> ForkedWorker:
    """Fork one fabric worker against ``host:port`` from this process."""
    # Flush first, so the child's final flush cannot write the parent's
    # pending output a second time.
    sys.stdout.flush()
    sys.stderr.flush()
    with warnings.catch_warnings():
        # Python 3.12+ warns on forking while the coordinator's server
        # threads run.  The child touches nothing those threads own
        # (state lock, journal, checkpoint, connections) and leaves
        # through os._exit.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        _run_child(host, port, worker_id, Path(scratch), fault_plan_path, connect_grace_s)
    return ForkedWorker(pid)


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
    engine: str = "step",
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
    executed by leased worker processes that may crash, stall or be
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
    procs: Dict[str, ForkedWorker] = {}
    spawned = 0
    interrupted = False
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
    except KeyboardInterrupt:
        # Ctrl-C: stop the workers, then close the run as interrupted.
        interrupted = True
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
    if interrupted:
        coordinator.interrupt("SIGINT")
    return coordinator.finish()
