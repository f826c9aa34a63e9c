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
from typing import Dict, Iterable, List

#: Histogram key for first references (infinite distance / cold misses).
COLD = -1


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

