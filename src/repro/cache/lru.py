"""Concrete replacement policies: LRU and FIFO.

Both are built on :class:`collections.OrderedDict`, whose
``move_to_end`` / ``popitem`` are C-implemented — the fastest portable
way to run an exact LRU in pure Python (per the HPC guide: keep the hot
loop inside C-implemented primitives).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from repro.cache.policy import ReplacementPolicy
from repro.exceptions import ConfigurationError


class _OrderedPolicy(ReplacementPolicy):
    """A policy over an ordered dict whose front is the next victim.

    The subclasses differ only in :meth:`access`: whether a hit moves
    the key to the back.
    """

    __slots__ = ("capacity", "_data")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[int, None] = OrderedDict()

    def __contains__(self, key: int) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def discard(self, key: int) -> bool:
        if key in self._data:
            del self._data[key]
            return True
        return False

    def clear(self) -> None:
        self._data.clear()


class LRUCache(_OrderedPolicy):
    """Exact Least-Recently-Used replacement.

    The ordered dict is kept in recency order: least recently used at
    the front, most recently used at the back.
    """

    __slots__ = ()

    def access(self, key: int) -> Tuple[bool, Optional[int]]:
        data = self._data
        if key in data:
            data.move_to_end(key)
            return True, None
        victim = None
        if len(data) >= self.capacity:
            victim = data.popitem(last=False)[0]
        data[key] = None
        return False, victim

    def mru_key(self) -> Optional[int]:
        """Most recently used key, or ``None`` if empty (test helper)."""
        return next(reversed(self._data), None)

    def lru_key(self) -> Optional[int]:
        """Least recently used key, or ``None`` if empty (test helper)."""
        return next(iter(self._data), None)


class FIFOCache(_OrderedPolicy):
    """First-In-First-Out replacement (ablation baseline).

    Identical to :class:`LRUCache` except that a hit does *not* refresh
    the key's position: eviction order is insertion order.
    """

    __slots__ = ()

    def access(self, key: int) -> Tuple[bool, Optional[int]]:
        data = self._data
        if key in data:
            return True, None
        victim = None
        if len(data) >= self.capacity:
            victim = data.popitem(last=False)[0]
        data[key] = None
        return False, victim


#: Registry mapping policy names (as accepted by the CLI and the
#: simulation settings) to constructors.
POLICIES = {
    "lru": LRUCache,
    "fifo": FIFOCache,
}


def make_policy(name: str, capacity: int) -> ReplacementPolicy:
    """Instantiate a policy from a spec string.

    Accepted specs: the registered names (``"lru"``, ``"fifo"``), plus
    ``"plru"`` (tree pseudo-LRU over the whole capacity),
    ``"assoc<W>"`` (W-way set-associative with per-set LRU) and
    ``"assoc<W>-plru"`` (W-way with per-set tree PLRU).
    """
    ctor = POLICIES.get(name)
    if ctor is not None:
        return ctor(capacity)
    # extended specs; imported lazily to avoid a module cycle
    from repro.cache.associative import SetAssociativeCache, TreePLRU

    if name == "plru":
        return TreePLRU(capacity)
    if name.startswith("assoc"):
        spec = name[len("assoc") :]
        plru = spec.endswith("-plru")
        if plru:
            spec = spec[: -len("-plru")]
        if spec.isdigit() and int(spec) >= 1:
            return SetAssociativeCache(capacity, int(spec), plru=plru)
    raise ConfigurationError(
        f"unknown replacement policy {name!r}; valid: "
        f"{sorted(POLICIES)} + ['plru', 'assoc<W>', 'assoc<W>-plru']"
    )
