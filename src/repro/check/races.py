"""Race detection: happens-before over the per-core event streams.

The recorded log is one global sequence, but only *per-core* order is
real: the schedule's emission order interleaves ``p`` streams that
execute concurrently on hardware.  The synchronization structure is the
one the paper's pseudocode implies — shared-cache directives
(``load_shared`` / ``evict_shared``) are issued by the orchestrating
master between parallel sections, so they are fork/join barriers:

* events of the same core are ordered by program order;
* every shared-level directive happens-after all earlier events and
  happens-before all later ones (a global barrier);
* distributed-level events of *different* cores between two consecutive
  barriers are concurrent.

Within one barrier-delimited epoch the detector classifies accesses to
each logical block:

* ``compute`` reads its ``A`` and ``B`` operands and *writes* its ``C``
  operand (marking the core's copy dirty);
* ``load_dist`` reads the block (copies it from the shared level);
* ``evict_dist`` of a dirty block *writes* it (the write-back races
  with any concurrent access to the same block);  clean evictions touch
  no data.

Two concurrent accesses to the same block by different cores where at
least one is a write — write/write or read/write — are flagged.  The
2-D cyclic ownership of ``C`` that `distributed-opt`, `tradeoff`,
`cannon` and `outer-product` rely on makes their schedules race-free;
a schedule that assigns one ``C`` block to two cores in the same epoch
is caught immediately.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.cache.block import key_name
from repro.check.events import COMPUTE, EVICT_D, EVICT_S, LOAD_D, LOAD_S, Event
from repro.check.findings import ERROR, Finding, FindingLimiter

#: Per-key access record within one epoch: (epoch, reader cores as a
#: bitmask, writer cores as a bitmask).  Bitmasks make the hot-path
#: conflict test one ``&`` and one compare; the detector runs over
#: every event of every cell, so this loop is fully inlined below —
#: a ``record()`` helper costs a function call per data access, which
#: profiled as the single largest line item of ``check_all``.
_Record = Tuple[int, int, int]


def check_races(
    events: Sequence[Event],
    p: int,
    *,
    algorithm: str = "",
    machine: str = "",
) -> List[Finding]:
    """Flag unsynchronized conflicting accesses between cores."""
    out = FindingLimiter("race")
    epoch = 0
    access: Dict[int, _Record] = {}
    dirty: List[Set[int]] = [set() for _ in range(p)]
    # Report each conflicting (key, core pair, kind) once, not per event.
    reported: Set[Tuple[int, int, int, str]] = set()

    def report_writer_conflict(
        key: int, core: int, foreign_writers: int, write: bool, index: int
    ) -> None:
        """A foreign core already wrote ``key`` this epoch (rare path)."""
        other = (foreign_writers & -foreign_writers).bit_length() - 1
        kind = "write/write" if write else "read/write"
        tag = (key, min(core, other), max(core, other), kind)
        if tag not in reported:
            reported.add(tag)
            out.add(
                Finding(
                    "race",
                    ERROR,
                    f"{kind} race on {key_name(key)}: cores {other} and "
                    f"{core} access it in the same epoch with no "
                    "intervening synchronization",
                    algorithm=algorithm,
                    machine=machine,
                    event=index,
                    rule=(
                        "race/write-write" if write else "race/read-write"
                    ),
                )
            )

    def report_reader_conflict(
        key: int, core: int, foreign_readers: int, index: int
    ) -> None:
        """``core`` writes ``key`` a foreign core read this epoch."""
        other = (foreign_readers & -foreign_readers).bit_length() - 1
        tag = (key, min(core, other), max(core, other), "read/write")
        if tag not in reported:
            reported.add(tag)
            out.add(
                Finding(
                    "race",
                    ERROR,
                    f"read/write race on {key_name(key)}: core {other} "
                    f"reads while core {core} writes in the same epoch "
                    "with no intervening synchronization",
                    algorithm=algorithm,
                    machine=machine,
                    event=index,
                    rule="race/read-write",
                )
            )

    for index, ev in enumerate(events):
        op = ev[0]
        if op == COMPUTE:
            core = ev[1]
            ckey, akey, bkey = ev[2], ev[3], ev[4]
            bit = 1 << core
            not_bit = ~bit
            for key in (akey, bkey):  # operand reads
                rec = access.get(key)
                if rec is None or rec[0] != epoch:
                    access[key] = (epoch, bit, 0)
                else:
                    wmask = rec[2]
                    if wmask & not_bit:
                        report_writer_conflict(
                            key, core, wmask & not_bit, False, index
                        )
                    access[key] = (epoch, rec[1] | bit, wmask)
            rec = access.get(ckey)  # accumulator write
            if rec is None or rec[0] != epoch:
                access[ckey] = (epoch, 0, bit)
            else:
                rmask, wmask = rec[1], rec[2]
                if wmask & not_bit:
                    report_writer_conflict(
                        ckey, core, wmask & not_bit, True, index
                    )
                elif rmask & not_bit:
                    report_reader_conflict(ckey, core, rmask & not_bit, index)
                access[ckey] = (epoch, rmask, wmask | bit)
            dirty[core].add(ckey)
        elif op == LOAD_D:
            core, key = ev[1], ev[2]
            bit = 1 << core
            rec = access.get(key)
            if rec is None or rec[0] != epoch:
                access[key] = (epoch, bit, 0)
            else:
                wmask = rec[2]
                if wmask & ~bit:
                    report_writer_conflict(key, core, wmask & ~bit, False, index)
                access[key] = (epoch, rec[1] | bit, wmask)
        elif op == EVICT_D:
            core, key = ev[1], ev[2]
            if key in dirty[core]:
                # The write-back of a dirty block is a data write.
                dirty[core].discard(key)
                bit = 1 << core
                rec = access.get(key)
                if rec is None or rec[0] != epoch:
                    access[key] = (epoch, 0, bit)
                else:
                    rmask, wmask = rec[1], rec[2]
                    if wmask & ~bit:
                        report_writer_conflict(
                            key, core, wmask & ~bit, True, index
                        )
                    elif rmask & ~bit:
                        report_reader_conflict(key, core, rmask & ~bit, index)
                    access[key] = (epoch, rmask, wmask | bit)
        elif op == LOAD_S or op == EVICT_S:
            # Master-issued barrier: later events happen-after everything.
            epoch += 1
    return out.results()
