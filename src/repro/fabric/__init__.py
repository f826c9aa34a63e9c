"""Lease-based coordinator/worker sweep fabric.

``repro.fabric`` promotes the fault tolerance of the in-process pool
engine (:mod:`repro.sim.parallel`) across process — and eventually
machine — boundaries:

* :mod:`repro.fabric.protocol` — line-delimited, checksummed JSON
  messages over stdlib TCP sockets (one short-lived connection per
  request, so a dropped link can never wedge a peer);
* :mod:`repro.fabric.leases` — monotonic-deadline leases: a worker
  owns a cell only while its heartbeats keep the lease alive;
* :mod:`repro.fabric.journal` — the coordinator's append-only,
  checksummed event journal (grants, expiries, retries, terminals)
  reusing the checkpoint-log primitives;
* :mod:`repro.fabric.coordinator` — the durable cell queue: serves
  leases, re-queues expired ones within the retry budget, checkpoints
  every finalized cell, and survives SIGKILL + restart with no lost or
  duplicated cells;
* :mod:`repro.fabric.worker` — lease → heartbeat → compute → submit,
  with the next cell's grant riding on the reply to the submission;
  on coordinator loss it finishes the in-flight cell, salvages the
  result to a local checkpoint and exits with a distinct code;
* :mod:`repro.fabric.local` — laptop mode: the coordinator's threads
  plus N workers forked from its process (with respawn), as driven by
  ``repro-mmm fabric serve --local N``.

See ``docs/FABRIC.md`` for the protocol reference, the lease state
machine and the failure-mode table.
"""

from repro.fabric.coordinator import Coordinator, fabric_order_sweep
from repro.fabric.journal import FabricJournal, load_journal
from repro.fabric.leases import Lease, LeaseTable
from repro.fabric.local import run_local_fabric
from repro.fabric.worker import (
    EXIT_COORDINATOR_LOST,
    EXIT_DRAINED,
    FabricWorker,
)

__all__ = [
    "Coordinator",
    "EXIT_COORDINATOR_LOST",
    "EXIT_DRAINED",
    "FabricJournal",
    "FabricWorker",
    "Lease",
    "LeaseTable",
    "fabric_order_sweep",
    "load_journal",
    "run_local_fabric",
]
