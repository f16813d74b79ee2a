"""Bounded LRU caching for materialized matrices.

The meta-path query engine (:mod:`repro.engine`) materializes commuting
matrices and their symmetric decompositions once and reuses them across
queries.  Those products can be large, so the cache is bounded: entries
are evicted least-recently-used first once ``maxsize`` is exceeded.  The
cache also keeps hit/miss/eviction counters so callers (and benchmarks)
can verify that sharing actually happens.

Keys must be hashable; the engine uses the canonical step tuple of a
meta-path (see :meth:`repro.networks.schema.MetaPath.canonical_key`) so
that two spellings of the same path — or a shared prefix of two
different paths — land on the same entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass

__all__ = ["CacheInfo", "LRUCache"]


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of an :class:`LRUCache`'s counters."""

    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A dict-like mapping bounded to ``maxsize`` entries, LRU eviction.

    Both :meth:`get` and :meth:`put` refresh an entry's recency; counters
    track hits, misses, and evictions for observability.  Every method is
    individually atomic (an internal mutex guards the recency structure),
    so concurrent query threads can share one cache; *compound* protocols
    — the engine's incremental-maintenance pass rewriting many entries
    against one epoch — need the owner's read–write lock on top
    (:class:`repro.utils.locks.RWLock`), which the serving layer provides.
    """

    def __init__(self, maxsize: int = 64):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._data: OrderedDict = OrderedDict()
        self._mutex = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._mutex:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._mutex:
            return key in self._data

    def get(self, key: Hashable, default=None):
        """Value for *key* (refreshing its recency), or *default*."""
        with self._mutex:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def get_first(self, keys, default=None):
        """First present entry among *keys* as a ``(key, value)`` pair.

        One *compound* lookup for callers with several acceptable
        spellings of an entry — the engine's planner probes a product
        key and its inverse (reversed-path) key as one logical access.
        Exactly one hit is counted when any key is present (and only
        that entry's recency refreshes); one miss when none is.
        Returns ``(None, default)`` on a miss.
        """
        with self._mutex:
            for key in keys:
                if key in self._data:
                    self._data.move_to_end(key)
                    self.hits += 1
                    return key, self._data[key]
            self.misses += 1
            return None, default

    def put(self, key: Hashable, value) -> None:
        """Insert or refresh *key*, evicting the LRU entry when full."""
        with self._mutex:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                evicted, _ = self._data.popitem(last=False)
                self.evictions += 1

    def keys(self) -> list:
        """Current keys, least-recently-used first (a stable snapshot —
        safe to iterate while mutating the cache)."""
        with self._mutex:
            return list(self._data)

    def peek(self, key: Hashable, default=None):
        """Value for *key* without touching recency or hit/miss counters
        (maintenance reads, not cache traffic)."""
        with self._mutex:
            return self._data.get(key, default)

    def pop(self, key: Hashable, default=None):
        """Remove and return *key*'s value (*default* when absent).

        A targeted eviction: no counters change except the eviction count,
        and only when something was actually removed.
        """
        with self._mutex:
            if key not in self._data:
                return default
            self.evictions += 1
            return self._data.pop(key)

    def replace(self, key: Hashable, value) -> None:
        """Swap the value stored under an existing *key* in place.

        Unlike :meth:`put`, recency is preserved and no hit/miss counter
        moves — this is maintenance (the engine rewriting a materialized
        matrix after an incremental update), not cache traffic.
        """
        with self._mutex:
            if key not in self._data:
                raise KeyError(key)
            self._data[key] = value

    def resize(self, maxsize: int) -> None:
        """Change the entry bound, evicting LRU entries when shrinking."""
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        with self._mutex:
            self.maxsize = int(maxsize)
            while len(self._data) > self.maxsize:
                evicted, _ = self._data.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]):
        """Cached value for *key*, calling *compute* (and storing) on a miss.

        *compute* runs outside the internal mutex, so a slow
        materialization never blocks unrelated cache traffic; two threads
        missing the same key concurrently may both compute, and the later
        :meth:`put` wins (the values are equal by construction).
        """
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            value = compute()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry (counters are kept — they describe the lifetime)."""
        with self._mutex:
            self._data.clear()

    def info(self) -> CacheInfo:
        """Current :class:`CacheInfo` snapshot."""
        with self._mutex:
            return CacheInfo(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                currsize=len(self._data),
                maxsize=self.maxsize,
            )

    def __repr__(self) -> str:
        return (
            f"LRUCache(size={len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
