"""The fabric worker: lease → heartbeat → compute → submit.

A worker is **stateless**: every lease grant carries the complete cell
specification (algorithm, setting, kwargs, serialized machine,
dimensions), so a worker can join, die and be replaced at any point
without configuration handshakes.  Its loop is deliberately boring:

1. ask for a lease (``lease``);
2. on ``grant``: start a heartbeat thread renewing the lease every
   third of the lease window, run the cell, stop heartbeating and
   submit the result, asking for the next cell with it (``next``);
   when the ``accepted`` reply carries that cell's ``grant``, run it
   at once, else go back to 1;
3. on ``wait``: sleep the hinted delay and ask again;
4. on ``drained``: exit 0 — the sweep is complete.

**Graceful degradation on coordinator loss** is the contract the exit
codes encode: once a cell is in flight, a dead coordinator does not
waste the work.  The worker finishes the computation, retries the
submission briefly, then *salvages* the finished result to a local
checkpoint-format log (``scratch``) and exits with
:data:`EXIT_COORDINATOR_LOST` (75, the sysexits ``EX_TEMPFAIL``) so a
supervisor can tell "queue drained" from "coordinator gone".  The
salvage log uses the exact checkpoint payload shape, so its records
can be audited — or appended into a run's checkpoint log — with the
standard tools.

Heartbeat failures are soft (one dropped connection must not abandon a
computation the lease may still cover); only a failed *submission*
declares the coordinator lost.  An injected ``stall`` fault
(:func:`repro.sim.faults.stalls`) suppresses the heartbeat thread
entirely, which is exactly how the lease-expiry path is exercised
end-to-end in tests.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.exceptions import ProtocolError
from repro.sim.faults import FaultPlan, fire, stalls
from repro.sim.retrypolicy import is_retryable
from repro.sim.runner import run_experiment
from repro.store.checkpoint import CheckpointWriter
from repro.store.serde import machine_from_dict, result_to_dict
from repro.fabric.protocol import request

#: The coordinator reported the queue drained: normal completion.
EXIT_DRAINED = 0

#: The coordinator became unreachable: in-flight work was salvaged to
#: the local scratch log and the worker bowed out (sysexits EX_TEMPFAIL).
EXIT_COORDINATOR_LOST = 75

#: Submission attempts before declaring the coordinator lost.
_SUBMIT_TRIES = 3


class FabricWorker:
    """One worker process's client loop against a coordinator."""

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        worker_id: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        scratch: Optional[Union[str, Path]] = None,
        connect_grace_s: float = 10.0,
        request_timeout_s: float = 10.0,
    ) -> None:
        self.address = address
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.fault_plan = fault_plan
        self.scratch = Path(scratch) if scratch is not None else None
        self.connect_grace_s = connect_grace_s
        self.request_timeout_s = request_timeout_s
        #: Whether any exchange with the coordinator ever succeeded —
        #: before that, connection failures are startup races (the
        #: coordinator may still be binding its socket), not loss.
        self._ever_connected = False

    # -- plumbing -------------------------------------------------------
    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        reply = request(self.address, payload, timeout=self.request_timeout_s)
        self._ever_connected = True
        return reply

    def _lease_request(self) -> Optional[Dict[str, Any]]:
        """Ask for a lease, absorbing startup races; ``None`` = lost."""
        deadline = time.monotonic() + self.connect_grace_s
        while True:
            try:
                return self._request({"type": "lease", "worker": self.worker_id})
            except (OSError, ProtocolError):
                if self._ever_connected or time.monotonic() >= deadline:
                    return None
                time.sleep(0.2)

    def _heartbeat_loop(self, fp: str, stop: threading.Event, lease_s: float) -> None:
        period = max(lease_s / 3.0, 0.05)
        while not stop.wait(period):
            try:
                self._request(
                    {"type": "heartbeat", "worker": self.worker_id, "fp": fp}
                )
            except (OSError, ProtocolError):
                # Soft failure: the next beat may get through, and the
                # lease window usually covers a dropped beat or two.
                continue

    # -- cell execution -------------------------------------------------
    def _execute(self, grant: Dict[str, Any]) -> Dict[str, Any]:
        """Run one granted cell; returns the ``result`` message to submit."""
        cell = grant["cell"]
        fp = grant["fp"]
        attempt = int(grant["attempt"])
        label = cell["label"]
        index = int(cell["index"])
        spec = self.fault_plan.get((label, index)) if self.fault_plan else None
        suppress_heartbeats = spec is not None and stalls(spec, attempt)
        stop = threading.Event()
        beat: Optional[threading.Thread] = None
        if not suppress_heartbeats:
            beat = threading.Thread(
                target=self._heartbeat_loop,
                args=(fp, stop, float(grant.get("lease_s", 15.0))),
                name=f"heartbeat-{self.worker_id}",
                daemon=True,
            )
            beat.start()
        message: Dict[str, Any] = {
            "type": "result",
            "worker": self.worker_id,
            "fp": fp,
            "attempt": attempt,
            "pid": os.getpid(),
            "cell": {"label": label, "index": index, "x": cell["x"]},
        }
        start = time.perf_counter()
        try:
            if spec is not None:
                fire(spec, attempt)
            machine = machine_from_dict(cell["machine"])
            result = run_experiment(
                cell["algorithm"],
                machine,
                int(cell["m"]),
                int(cell["n"]),
                int(cell["z"]),
                cell["setting"],
                **dict(cell["kwargs"]),
            )
            result.attempts = attempt
            message["ok"] = True
            message["result"] = result_to_dict(result)
        except Exception as exc:  # noqa: BLE001 — cell isolation is the point
            message["ok"] = False
            message["error_type"] = type(exc).__name__
            message["error"] = str(exc)
            message["retryable"] = is_retryable(exc)
        finally:
            stop.set()
            if beat is not None:
                beat.join(timeout=2.0)
        message["wall_s"] = round(time.perf_counter() - start, 6)
        return message

    def _submit(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Deliver one result; ``None`` when the coordinator is gone."""
        for attempt in range(_SUBMIT_TRIES):
            try:
                return self._request(message)
            except (OSError, ProtocolError):
                if attempt + 1 < _SUBMIT_TRIES:
                    time.sleep(0.2 * (attempt + 1))
        return None

    def _salvage(self, message: Dict[str, Any]) -> Optional[Path]:
        """Flush an undeliverable result to the local scratch log."""
        if self.scratch is None:
            return None
        path = self.scratch / f"salvage-{self.worker_id}.jsonl"
        payload: Dict[str, Any] = {
            "fp": message["fp"],
            "label": message["cell"]["label"],
            "index": message["cell"]["index"],
            "x": message["cell"]["x"],
            "status": "ok" if message.get("ok") else "failed",
            "attempts": message["attempt"],
            "wall_s": message.get("wall_s", 0.0),
        }
        if message.get("ok"):
            payload["result"] = message["result"]
        else:
            payload["error_type"] = message.get("error_type")
            payload["error"] = message.get("error")
        with CheckpointWriter(path) as writer:
            writer.append(payload)
        return path

    # -- main loop ------------------------------------------------------
    def run(self) -> int:
        """Serve until the queue drains (0) or the coordinator is lost (75)."""
        reply = self._lease_request()
        while True:
            if reply is None:
                return EXIT_COORDINATOR_LOST
            kind = reply.get("type")
            if kind == "drained":
                return EXIT_DRAINED
            if kind == "wait":
                time.sleep(float(reply.get("delay_s", 0.5)))
                reply = self._lease_request()
                continue
            if kind != "grant":
                # A coordinator speaking another dialect is as gone as
                # a dead one; nothing is in flight, nothing to salvage.
                return EXIT_COORDINATOR_LOST
            message = self._execute(reply)
            accepted = self._submit({**message, "next": True})
            if accepted is None:
                self._salvage(message)
                return EXIT_COORDINATOR_LOST
            # The reply to the final result says the queue is empty:
            # exit drained now instead of racing the coordinator's
            # shutdown with one more lease request (which would look
            # like a lost coordinator).
            if accepted.get("remaining") == 0:
                return EXIT_DRAINED
            # A coordinator that grants no next cell (none is servable,
            # the result failed, or it predates ``next``) gets a lease
            # request instead.
            grant = accepted.get("grant")
            reply = grant if isinstance(grant, dict) else self._lease_request()
