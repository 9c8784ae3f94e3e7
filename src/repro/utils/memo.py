"""One bounded, version-keyed memo for every long-lived cache.

The engine keeps derived state between requests (analyzed tokens,
collection statistics, retrievals, document vectors, prepared queries).
Each such cache is a :class:`Memo` with a capacity constant named at its
call site.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import Any, Callable, Hashable

from repro.utils.validation import require_positive

_ABSENT = object()


class Memo:
    """A bounded dict of computed values, optionally keyed on ``index.version``.

    A full memo drops its oldest half, in insertion order, before it
    stores. Given an ``index``, the memo empties whenever
    ``index.version`` moves, and a value whose computation straddled a
    move is returned but not stored. The memo holds the index, never the
    object that owns the memo, so dropping the owner frees it by
    reference counting.

    A hit is one ``index.version`` read and one lookup in :attr:`entries`,
    and takes no lock; stores, evictions and the miss counter take one.
    A lookup racing an eviction either finds its entry or recomputes it.
    ``hits`` is counted without the lock, so concurrent hits may
    undercount it. A copied or unpickled memo starts empty, with the
    same capacity and index.
    """

    def __init__(self, capacity: int, index: Any = None):
        require_positive(capacity, "capacity")
        self.capacity = capacity
        self.index = index
        self.entries: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._version = None if index is None else index.version
        self._lock = threading.Lock()

    def get(
        self,
        key: Hashable,
        compute: Callable[[Any], Any],
        fits: Callable[[Any], bool] | None = None,
    ) -> Any:
        """The value stored for ``key``, or ``compute(key)`` on a miss.

        A stored value that ``fits`` rejects counts as a miss: the value
        is computed and returned, and the stored one stays.
        """
        index = self.index
        version = None if index is None else index.version
        if version != self._version:
            self._follow(index)
        value = self.entries.get(key, _ABSENT)
        if value is not _ABSENT and (fits is None or fits(value)):
            self.hits += 1
            return value
        value = compute(key)
        with self._lock:
            self.misses += 1
            if self._version == version and (
                index is None or index.version == version
            ):
                self._store(key, value)
        return value

    def record(self, lookups: int, fresh: dict) -> None:
        """Count ``lookups`` made directly on :attr:`entries` and store
        the ``fresh`` values they missed (for a memo without an index,
        read in bulk by its owner)."""
        with self._lock:
            self.hits += lookups - len(fresh)
            self.misses += len(fresh)
            for key, value in fresh.items():
                self._store(key, value)

    def stats(self) -> dict:
        """Size and counters, in the shape ``GET /metrics`` reports."""
        with self._lock:
            return {
                "entries": len(self.entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __contains__(self, key: Hashable) -> bool:
        return key in self.entries

    def __reduce__(self):
        # A lock cannot be pickled, and the entries are cheap to recompute.
        return (Memo, (self.capacity, self.index))

    def _follow(self, index: Any) -> None:
        """Empty the memo if the index moved since it last did."""
        with self._lock:
            version = index.version
            if version != self._version:
                self.entries.clear()
                self._version = version

    def _store(self, key: Hashable, value: Any) -> None:
        # Caller holds the lock.
        entries = self.entries
        if key in entries:  # a concurrent miss stored it first, or it did not fit
            return
        if len(entries) >= self.capacity:
            stale = list(islice(entries, len(entries) - self.capacity // 2))
            for old in stale:
                del entries[old]
            self.evictions += len(stale)
        entries[key] = value
