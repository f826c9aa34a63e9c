"""Statistics collected by the cache simulator.

:class:`CacheStats` aggregates one cache's counters; the per-matrix
breakdown (misses attributable to ``A``, ``B`` or ``C`` blocks) is the
one the paper's analysis reasons about.  :class:`HierarchyStats`
combines the shared cache's stats with the ``p`` distributed caches' and
exposes the paper's headline quantities ``MS``, ``MD`` and
``Tdata = MS/σS + MD/σD``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cache.block import MATRIX_NAMES


@dataclass
class CacheStats:
    """Counters for a single cache.

    ``misses_by_matrix[t]`` breaks misses down by the matrix tag ``t``
    (0 = A, 1 = B, 2 = C).  ``writebacks`` counts dirty evictions.
    """

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    misses_by_matrix: List[int] = field(default_factory=lambda: [0, 0, 0])

    @property
    def accesses(self) -> int:
        """Total references seen by the cache."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of references that missed (0 if never accessed)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Serializable snapshot (for CSV/JSON reporting)."""
        d: Dict[str, object] = {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "miss_rate": self.miss_rate,
        }
        for tag, name in enumerate(MATRIX_NAMES):
            d[f"misses_{name}"] = self.misses_by_matrix[tag]
        return d

    def copy(self) -> "CacheStats":
        """An independent copy (the per-matrix list included)."""
        return CacheStats(
            self.hits, self.misses, self.writebacks, list(self.misses_by_matrix)
        )

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.misses_by_matrix = [0, 0, 0]


@dataclass
class HierarchyStats:
    """Combined statistics of the two-level hierarchy.

    Attributes
    ----------
    shared:
        Stats of the shared cache; ``shared.misses`` is the paper's
        ``MS``.
    distributed:
        Per-core stats; the paper's ``MD`` is the *maximum* of the
        per-core miss counts (accesses to different distributed caches
        are concurrent).
    """

    shared: CacheStats
    distributed: List[CacheStats]

    def copy(self) -> "HierarchyStats":
        """An independent copy: mutating it leaves this one untouched."""
        return HierarchyStats(
            self.shared.copy(), [d.copy() for d in self.distributed]
        )

    @property
    def ms(self) -> int:
        """Shared-cache misses ``MS``."""
        return self.shared.misses

    @property
    def md(self) -> int:
        """Distributed-cache misses ``MD = max_c M_D^(c)``."""
        return max((c.misses for c in self.distributed), default=0)

    @property
    def md_per_core(self) -> List[int]:
        """Miss count of each distributed cache, in core order."""
        return [c.misses for c in self.distributed]

    @property
    def md_total(self) -> int:
        """Sum of all distributed-cache misses (load-balance metric)."""
        return sum(c.misses for c in self.distributed)

    def tdata(self, sigma_s: float, sigma_d: float) -> float:
        """Data access time ``Tdata = MS/σS + MD/σD`` (paper §2.2)."""
        return self.ms / sigma_s + self.md / sigma_d

    def imbalance(self) -> float:
        """``max/mean`` ratio of per-core distributed misses (1.0 = balanced)."""
        per_core = self.md_per_core
        if not per_core or sum(per_core) == 0:
            return 1.0
        mean = sum(per_core) / len(per_core)
        return max(per_core) / mean

    def as_dict(self) -> Dict[str, object]:
        """Serializable snapshot of the headline quantities."""
        return {
            "MS": self.ms,
            "MD": self.md,
            "MD_total": self.md_total,
            "MD_per_core": self.md_per_core,
            "writebacks_shared": self.shared.writebacks,
            "imbalance": self.imbalance(),
        }
