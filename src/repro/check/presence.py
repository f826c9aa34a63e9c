"""The residency walk: capacity, presence and ``MS``/``MD`` in one pass.

:func:`check_residency` builds the exact resident sets of the shared
cache and of every core's cache once per schedule — a load adds a
block that is not resident, an eviction removes it — and reads three
proofs off them:

* capacity — the ideal cache model makes replacement the
  *algorithm's* job, so a load that pushes a set past ``CS`` (or
  ``CD``) is a schedule bug, not a miss: the condition
  :class:`~repro.cache.hierarchy.IdealHierarchy` raises on dynamically;
* presence — the "user responsibility" clause of the paper's IDEAL
  mode: *"it is the user responsibility to guarantee that a given data
  is present in every cache below the target cache"* (below);
* traffic — a load of a block not resident at its level is one ``MS``
  (shared) or one ``MD`` for the core, integer for integer what
  ``IdealHierarchy`` counts; :mod:`repro.check.cost` and
  :mod:`repro.check.tightbounds` prove the counts.

Presence errors:

* a compute whose operand is absent from the issuing core's cache;
* a distributed load of a block absent from the shared cache, or a
  shared eviction while some core still holds the block (inclusivity);
* evicting a block that is not resident (double/spurious eviction);

and warnings (they cost bandwidth but not correctness):

* redundant loads — the block is already resident at that level;
* dead loads — loaded, then evicted (or left behind at end of
  schedule) without a single use: a shared-level load is used by a
  distributed load or a dirty write-back of the same block; a
  distributed-level load is used by a compute on that core;
* blocks still resident when the schedule ends (leaked pins).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.cache.block import key_name
from repro.check.cost import CountedCosts
from repro.check.events import COMPUTE, EVICT_D, EVICT_S, LOAD_D, LOAD_S, Event
from repro.check.findings import ERROR, WARNING, Finding, FindingLimiter


def check_residency(
    events: Sequence[Event],
    cs: int,
    cd: int,
    p: int,
    *,
    algorithm: str = "",
    machine: str = "",
) -> Tuple[List[Finding], int, List[int], CountedCosts]:
    """Walk the log once; prove capacity and presence, count traffic.

    Returns ``(findings, peak_shared, peak_dist, counted)``: capacity
    findings first and presence findings second, each under its own
    :class:`~repro.check.findings.FindingLimiter`; the peak resident
    block counts of the shared cache and of every core's cache; and
    the distinct-block load traffic.
    """
    capacity = FindingLimiter("capacity")
    presence = FindingLimiter("presence")

    def overflow(message: str, index: int) -> None:
        capacity.add(
            Finding(
                "capacity",
                ERROR,
                message,
                algorithm=algorithm,
                machine=machine,
                event=index,
                rule="capacity/ws-overflow",
            )
        )

    def add(severity: str, message: str, index: int, rule: str) -> None:
        presence.add(
            Finding(
                "presence",
                severity,
                message,
                algorithm=algorithm,
                machine=machine,
                event=index,
                rule=rule,
            )
        )

    # Resident maps: key -> True once the copy has been used.
    shared: Dict[int, bool] = {}
    dist: List[Dict[int, bool]] = [{} for _ in range(p)]
    dirty: List[Set[int]] = [set() for _ in range(p)]
    # How many cores hold each key, so the per-eviction inclusivity
    # test is O(1); the O(p) scan only runs to *report* a violation.
    held: Dict[int, int] = {}
    peak_shared = 0
    peak_dist = [0] * p
    ms = 0
    md = [0] * p

    for index, ev in enumerate(events):
        op = ev[0]
        if op == LOAD_S:
            key = ev[2]
            if key in shared:
                add(
                    WARNING,
                    f"redundant shared load of {key_name(key)}",
                    index,
                    "presence/redundant-load",
                )
            else:
                if len(shared) >= cs:
                    overflow(
                        f"shared cache overflow loading {key_name(key)}: "
                        f"{len(shared)}/{cs} blocks resident",
                        index,
                    )
                shared[key] = False
                ms += 1
                if len(shared) > peak_shared:
                    peak_shared = len(shared)
        elif op == LOAD_D:
            core, key = ev[1], ev[2]
            if key not in shared:
                add(
                    ERROR,
                    f"core {core} loads {key_name(key)} absent from the shared cache",
                    index,
                    "presence/load-absent",
                )
            else:
                shared[key] = True
            dset = dist[core]
            if key in dset:
                add(
                    WARNING,
                    f"redundant distributed load of {key_name(key)} on core {core}",
                    index,
                    "presence/redundant-load",
                )
            else:
                if len(dset) >= cd:
                    overflow(
                        f"distributed cache of core {core} overflow loading "
                        f"{key_name(key)}: {len(dset)}/{cd} blocks resident",
                        index,
                    )
                dset[key] = False
                held[key] = held.get(key, 0) + 1
                md[core] += 1
                if len(dset) > peak_dist[core]:
                    peak_dist[core] = len(dset)
        elif op == EVICT_S:
            key = ev[2]
            if held.get(key):
                holders = [c for c in range(p) if key in dist[c]]
                add(
                    ERROR,
                    f"evicting {key_name(key)} from the shared cache while "
                    f"core(s) {holders} still hold it",
                    index,
                    "presence/inclusion",
                )
            used = shared.pop(key, None)
            if used is None:
                add(
                    ERROR,
                    f"spurious shared eviction of {key_name(key)} (not resident)",
                    index,
                    "presence/spurious-evict",
                )
            elif not used:
                add(
                    WARNING,
                    f"dead shared load of {key_name(key)}",
                    index,
                    "presence/dead-load",
                )
        elif op == EVICT_D:
            core, key = ev[1], ev[2]
            used = dist[core].pop(key, None)
            if used is not None:
                held[key] -= 1
            if used is None:
                add(
                    ERROR,
                    f"spurious distributed eviction of {key_name(key)} "
                    f"on core {core} (not resident)",
                    index,
                    "presence/spurious-evict",
                )
            elif not used:
                add(
                    WARNING,
                    f"dead distributed load of {key_name(key)} on core {core}",
                    index,
                    "presence/dead-load",
                )
            if key in dirty[core]:
                # Write-back into the shared copy counts as a use of it.
                dirty[core].discard(key)
                if key in shared:
                    shared[key] = True
        elif op == COMPUTE:
            core = ev[1]
            ckey, akey, bkey = ev[2], ev[3], ev[4]
            dset = dist[core]
            for key in (akey, bkey, ckey):
                if key in dset:
                    dset[key] = True
                else:
                    add(
                        ERROR,
                        f"compute on core {core} touches {key_name(key)} which "
                        "is not resident in its distributed cache",
                        index,
                        "presence/absent-operand",
                    )
            dirty[core].add(ckey)

    end = len(events)
    for core in range(p):
        for key in dist[core]:
            add(
                WARNING,
                f"{key_name(key)} still resident in core {core}'s cache "
                "when the schedule ends",
                end,
                "presence/leaked-resident",
            )
    for key in shared:
        add(
            WARNING,
            f"{key_name(key)} still resident in the shared cache "
            "when the schedule ends",
            end,
            "presence/leaked-resident",
        )
    findings = capacity.results() + presence.results()
    return findings, peak_shared, peak_dist, CountedCosts(ms=ms, md=tuple(md))
