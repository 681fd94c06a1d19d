"""Thread-safe LRU result cache for the inference engine.

Helmsman-style serving layers win most of their cost back on repeated
queries: the same ``(head, relation)`` pairs recur heavily in real traffic
(power-law entity popularity), so a small LRU over materialised top-k answers
absorbs a large fraction of requests before they reach the scoring kernel.

``functools.lru_cache`` is unsuitable here: it cannot be invalidated
per-instance when the known-triple set changes, offers no hit/miss
counters, and binds the cache to a function rather than an engine.  This is
a deliberately small ``OrderedDict``-based implementation instead.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple


class LRUCache:
    """A bounded least-recently-used mapping with hit/miss accounting.

    Parameters
    ----------
    capacity:
        Maximum number of entries kept; ``0`` disables caching entirely (every
        ``get`` misses, ``put`` is a no-op) so callers need no branching.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inflight_coalesced = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable) -> Tuple[bool, Optional[Any]]:
        """Return ``(found, value)``; a hit refreshes the entry's recency.

        The explicit ``found`` flag keeps ``None`` usable as a cached value.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return True, self._data[key]
            self.misses += 1
            return False, None

    def recheck(self, key: Hashable) -> Tuple[bool, Optional[Any]]:
        """Single-flight second look, taken after winning the compute lock.

        The engine's miss path is: ``get`` (miss) → acquire the scoring lock →
        compute → ``put``.  When several threads miss on the *same* key
        concurrently, the scoring lock already serialises them — but without
        a second look each loser would recompute an answer its predecessor
        just cached (the stampede).  Callers therefore ``recheck`` once the
        compute lock is held: a hit here means another flight landed first
        and this caller reuses its result instead of stampeding the engine.

        Counted separately from first-look hits (``inflight_coalesced`` in
        :meth:`stats`) so ``hit_rate`` keeps meaning "answered without
        touching the scoring path at all".
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.inflight_coalesced += 1
                return True, self._data[key]
            return False, None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the least recently used on overflow."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (known-triple set or engine close invalidation).

        Counters survive so long-running serving stats span clears; use
        :meth:`reset_stats` to also zero them.
        """
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (entries are kept)."""
        with self._lock:
            self.hits = self.misses = self.evictions = 0
            self.inflight_coalesced = 0

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none were made)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """JSON-friendly counters for the ``/v1/stats`` endpoint."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "inflight_coalesced": self.inflight_coalesced,
                "hit_rate": self.hits / total if total else 0.0,
            }
