"""Two-level cache simulator substrate.

This subpackage implements the paper's simulator (§4): block-granular
caches with pluggable replacement (:mod:`repro.cache.policy`,
:mod:`repro.cache.lru`), single-cache bookkeeping
(:mod:`repro.cache.cache`, :mod:`repro.cache.stats`), the shared +
distributed hierarchy in both LRU and IDEAL modes, with optional
middle levels in LRU mode (:mod:`repro.cache.hierarchy`), block
addressing (:mod:`repro.cache.block`) and access-trace utilities
(:mod:`repro.cache.trace`).
"""

from repro.cache.block import (
    MAT_A,
    MAT_B,
    MAT_C,
    MATRIX_NAMES,
    block_key,
    decode_key,
    matrix_of,
)
from repro.cache.policy import ReplacementPolicy
from repro.cache.lru import LRUCache, FIFOCache
from repro.cache.cache import Cache
from repro.cache.stats import CacheStats, HierarchyStats
from repro.cache.hierarchy import LRUHierarchy, IdealHierarchy
from repro.cache.trace import AccessTrace, coalesce
from repro.cache.associative import SetAssociativeCache, TreePLRU
from repro.cache.stackdist import (
    distance_histogram,
    miss_curve,
    misses_for_capacity,
    stack_distances,
)

__all__ = [
    "MAT_A",
    "MAT_B",
    "MAT_C",
    "MATRIX_NAMES",
    "block_key",
    "decode_key",
    "matrix_of",
    "ReplacementPolicy",
    "LRUCache",
    "FIFOCache",
    "Cache",
    "CacheStats",
    "HierarchyStats",
    "LRUHierarchy",
    "IdealHierarchy",
    "AccessTrace",
    "coalesce",
    "SetAssociativeCache",
    "TreePLRU",
    "distance_histogram",
    "miss_curve",
    "misses_for_capacity",
    "stack_distances",
]
