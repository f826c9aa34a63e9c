"""Static analysis of algorithm schedules.

The paper's algorithms are *schedules* — fixed sequences of explicit
cache movements and elementary block multiply-adds — and their
optimality claims rest on invariants that can be proved over the
*recorded* schedule without simulating a cache or touching a number:

* **capacity** — the explicit working set never exceeds ``CS`` / ``CD``
  and the derived tile parameters satisfy the paper's §3 constraints
  (``1 + λ + λ² ≤ CS``, ``1 + µ + µ² ≤ CD``, ``α² + 2αβ ≤ CS``);
* **presence** — no compute reads a block that was never loaded or was
  already evicted; no dead loads, redundant loads or spurious
  evictions; inclusivity is never violated (one residency walk proves
  the working sets and presence and counts ``MS``/``MD``);
* **coverage** — every ``C[i, j]`` accumulates exactly ``z``
  contributions, each ``(i, j, k)`` exactly once (the static analogue of
  :func:`repro.numerics.executor.verify_schedule`);
* **races** — a happens-before pass over the per-core event streams
  flags write/write and read/write conflicts on the same block by
  different cores with no intervening synchronization;
* **cost** — counted distinct-block load traffic must equal the
  paper's closed-form ``MS``/``MD`` (exactly, on divisible orders);
* **tightbounds** — counted misses must clear the strongest known
  lower bound (the maximum of the §2.3 Loomis–Whitney bound, SLLvdG
  tight, memory-independent and compulsory);
* **lint / determinism** — one serial AST pass over the sources
  enforcing repo idioms (directives wrapped in ``if ctx.explicit``,
  atomic artifact writes) and keeping the
  fingerprint/serde modules free of wall-clock, RNG, filesystem-order
  and set-order nondeterminism (``determinism/*``).

Fingerprint purity is not an analyzer: it is the
:class:`repro.store.checkpoint.CellKey` type, which has no field an
engine knob could travel in.

Every rule lives in the :mod:`repro.check.rules` registry (id,
severity, help text, tier) and runs on every check.  The one way to
accept a source-scan finding is an inline ``# repro: noqa[rule-id]``
comment, guarded by a ``meta/unused-suppression`` self-check; a
schedule finding has no waiver and must be fixed.

Every finding carries a stable ``rule`` id and a content fingerprint;
:mod:`repro.check.sarif` exports SARIF 2.1.0 for GitHub code scanning.

Entry points: :func:`repro.check.runner.analyze_schedule` for one
algorithm instance, :func:`repro.check.runner.check_all` for the full
algorithm × machine matrix, and ``repro-mmm check`` on the command
line.
"""

from __future__ import annotations

from repro.check.capacity import check_parameters
from repro.check.cost import CountedCosts, check_cost
from repro.check.coverage import check_coverage
from repro.check.events import AnalysisContext
from repro.check.findings import CHECKER_VERSION, Finding
from repro.check.lint import run_lint, scan_source
from repro.check.presence import check_residency
from repro.check.races import check_races
from repro.check.rules import REGISTRY, Rule
from repro.check.runner import ScheduleReport, analyze_schedule, check_all
from repro.check.sarif import to_sarif, write_sarif
from repro.check.tightbounds import check_tight_bounds

__all__ = [
    "AnalysisContext",
    "CHECKER_VERSION",
    "CountedCosts",
    "Finding",
    "REGISTRY",
    "Rule",
    "ScheduleReport",
    "analyze_schedule",
    "check_all",
    "check_cost",
    "check_coverage",
    "check_parameters",
    "check_races",
    "check_residency",
    "check_tight_bounds",
    "run_lint",
    "scan_source",
    "to_sarif",
    "write_sarif",
]
