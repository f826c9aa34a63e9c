"""Reuse (LRU stack) distance analysis — one pass, all cache sizes.

Mattson's classic result: under LRU, a reference hits in a cache of
capacity ``Z`` iff its *stack distance* (number of distinct blocks
referenced since the previous reference to the same block) is ``< Z``.
Computing the stack-distance histogram of a trace therefore yields the
exact LRU miss count for *every* capacity simultaneously — the tool the
paper's "LRU(C) vs LRU(2C)" experiments implicitly rely on.

The implementation keeps the LRU stack as a list with a position index
and is ``O(N·D)`` in the worst case (``D`` = mean distance); for the
cache-friendly traces this project produces, distances are short and it
is effectively linear.  Property tests cross-validate it against direct
:class:`~repro.cache.lru.LRUCache` simulation.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence

import numpy as np

#: Histogram key for first references (infinite distance / cold misses).
COLD = -1

#: Saturated distance reported by :func:`bounded_stack_distances` for
#: reuses deeper than the requested bound (they miss in every capacity
#: ``<= bound``, which is all a bounded analysis distinguishes).
DEEP = -2


def stack_distances(keys: Iterable[int]) -> List[int]:
    """Per-reference LRU stack distances (``COLD`` for first touches)."""
    stack: List[int] = []  # MRU at the end
    position: Dict[int, int] = {}
    out: List[int] = []
    for key in keys:
        pos = position.get(key)
        if pos is None:
            out.append(COLD)
        else:
            # distance = number of distinct keys above `key` in the stack
            depth = len(stack) - 1 - pos
            out.append(depth)
            stack.pop(pos)
            for k in stack[pos:]:
                position[k] -= 1
        position[key] = len(stack)
        stack.append(key)
    return out


def distance_histogram(keys: Iterable[int]) -> Counter:
    """Histogram of stack distances (``COLD`` bin = compulsory misses)."""
    return Counter(stack_distances(keys))


def misses_for_capacity(histogram: Counter, capacity: int) -> int:
    """Exact LRU miss count for one capacity, from the histogram.

    A reference misses iff its distance is ``COLD`` or ``>= capacity``.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be positive, got {capacity}")
    return sum(
        count
        for distance, count in histogram.items()
        if distance == COLD or distance >= capacity
    )


def miss_curve(keys: Iterable[int], capacities: Iterable[int]) -> Dict[int, int]:
    """LRU miss counts for many capacities from a single trace pass."""
    histogram = distance_histogram(keys)
    return {z: misses_for_capacity(histogram, z) for z in capacities}


# ----------------------------------------------------------------------
# Bulk passes for the replay engine
# ----------------------------------------------------------------------
def bounded_stack_distances(keys: Iterable[int], bound: int) -> List[int]:
    """Stack distances saturated at ``bound`` (:data:`DEEP` beyond it).

    Keeps only the ``bound`` most recently used distinct blocks, so the
    pass is ``O(T·bound)`` worst case with a tiny constant (one C-level
    list scan per reference) — the fast exact path when only capacities
    ``<= bound`` matter, as in a distributed-cache capacity sweep.
    """
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    stack: List[int] = []  # MRU first
    out: List[int] = []
    for key in keys:
        if stack and stack[0] == key:
            out.append(0)
            continue
        if key in stack:
            depth = stack.index(key)
            out.append(depth)
            del stack[depth]
        else:
            # beyond the bound we cannot tell evicted from cold, and no
            # capacity <= bound cares
            out.append(DEEP)
        stack.insert(0, key)
        if len(stack) > bound:
            stack.pop()
    return out


def misses_from_depths(
    depths: "np.ndarray", capacities: Sequence[int]
) -> Dict[int, int]:
    """Vectorized miss counts from a per-reference stack-depth array.

    ``depths`` holds one stack distance per reference; negative entries
    (``COLD``/``DEEP`` sentinels) miss at *every* capacity, non-negative
    entries miss at capacity ``z`` iff ``depth >= z``.  One sort plus a
    binary search per capacity replaces the per-capacity histogram scan
    — this is the aggregation kernel behind :func:`miss_counts_multi`
    and the bulk replay's depth arrays.
    """
    if not capacities:
        return {}
    if min(capacities) < 1:
        raise ValueError(f"capacities must be positive, got {sorted(capacities)}")
    dep = np.asarray(depths, dtype=np.int64)
    n = int(dep.size)
    neg = int((dep < 0).sum())
    srt = np.sort(dep)
    out: Dict[int, int] = {}
    for z in capacities:
        # misses = all-negative + depths >= z
        out[z] = neg + n - int(np.searchsorted(srt, z, side="left"))
    return out


def miss_counts_multi(
    keys: Sequence[int], capacities: Sequence[int]
) -> Dict[int, int]:
    """Exact LRU miss counts for several capacities in one bounded pass.

    Equivalent to running one :class:`~repro.cache.lru.LRUCache`
    simulation per capacity, at the cost of a single pass bounded by
    ``max(capacities)`` plus one vectorized aggregation
    (:func:`misses_from_depths`).
    """
    if not capacities:
        return {}
    if min(capacities) < 1:
        raise ValueError(f"capacities must be positive, got {sorted(capacities)}")
    bound = max(capacities)
    depths = np.asarray(bounded_stack_distances(keys, bound), dtype=np.int64)
    return misses_from_depths(depths, capacities)
