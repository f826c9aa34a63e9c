"""Coverage checking: every update emitted, exactly once, well-formed.

The static analogue of :func:`repro.numerics.executor.verify_schedule`:
instead of executing the block arithmetic and comparing against numpy,
the checker walks the recorded compute events and proves the
*index-space* property that implies numerical correctness for every
input: the multiset of emitted updates is exactly
``{(i, j, k) : 0 ≤ i < m, 0 ≤ j < n, 0 ≤ k < z}`` — each ``C[i, j]``
accumulates its ``z`` contributions exactly once — and every emitted
triple is coordinate-consistent (``C[i,j] += A[i,k] · B[k,j]``) with
operands drawn from the right matrices.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.cache.block import MAT_A, MAT_B, MAT_C, decode_key, key_name
from repro.check.events import COMPUTE, Event
from repro.check.findings import ERROR, FINDING_LIMIT, Finding, FindingLimiter


def check_coverage(
    events: Sequence[Event],
    m: int,
    n: int,
    z: int,
    *,
    algorithm: str = "",
    machine: str = "",
) -> List[Finding]:
    """Prove the compute stream covers ``m × n × z`` exactly once each."""
    out = FindingLimiter("coverage")

    def add(message: str, rule: str, index: int | None = None) -> None:
        out.add(
            Finding(
                "coverage",
                ERROR,
                message,
                algorithm=algorithm,
                machine=machine,
                event=index,
                rule=rule,
            )
        )

    seen: Set[Tuple[int, int, int]] = set()
    duplicates = 0
    for index, ev in enumerate(events):
        if ev[0] != COMPUTE:
            continue
        ckey, akey, bkey = ev[2], ev[3], ev[4]
        mat_a, i_a, k_a = decode_key(akey)
        mat_b, k_b, j_b = decode_key(bkey)
        mat_c, i_c, j_c = decode_key(ckey)
        if (mat_a, mat_b, mat_c) != (MAT_A, MAT_B, MAT_C):
            add(
                "compute expects operands from A, B and C, got "
                f"{key_name(akey)}, {key_name(bkey)}, {key_name(ckey)}",
                "coverage/wrong-matrix",
                index,
            )
            continue
        if i_a != i_c or k_a != k_b or j_b != j_c:
            add(
                f"inconsistent coordinates: C[{i_c},{j_c}] += "
                f"A[{i_a},{k_a}] · B[{k_b},{j_b}]",
                "coverage/inconsistent-update",
                index,
            )
            continue
        if not (i_c < m and j_c < n and k_a < z):
            add(
                f"update (i={i_c}, j={j_c}, k={k_a}) outside the "
                f"{m}×{n}×{z} iteration space",
                "coverage/out-of-space",
                index,
            )
            continue
        triple = (i_c, j_c, k_a)
        if triple in seen:
            duplicates += 1
            add(
                f"update (i={i_c}, j={j_c}, k={k_a}) emitted twice",
                "coverage/duplicate-update",
                index,
            )
        else:
            seen.add(triple)

    missing = m * n * z - len(seen)
    if missing:
        # Summarize per C cell rather than per triple: "C[i,j] got x/z".
        per_cell: dict[Tuple[int, int], int] = {}
        for i, j, _ in seen:
            per_cell[(i, j)] = per_cell.get((i, j), 0) + 1
        reported = 0
        for i in range(m):
            for j in range(n):
                got = per_cell.get((i, j), 0)
                if got != z:
                    add(
                        f"C[{i},{j}] accumulated {got}/{z} contributions",
                        "coverage/missing-update",
                    )
                    reported += 1
                    if reported >= FINDING_LIMIT:
                        break
            if reported >= FINDING_LIMIT:
                break
    return out.results()
