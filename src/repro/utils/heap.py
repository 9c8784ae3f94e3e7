"""A bounded top-k accumulator built on :mod:`heapq`.

Used by the KNN code to keep the ``k`` best-scoring items of a stream
without materialising the full score list.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Generic, Iterable, Iterator, TypeVar

from repro.utils.validation import require_positive

T = TypeVar("T")


class TopK(Generic[T]):
    """Keep the ``k`` items with the largest scores.

    Ties are broken by insertion order (earlier insertions win), which makes
    retrieval results deterministic even when scores collide.
    """

    def __init__(self, k: int):
        require_positive(k, "k")
        self.k = k
        self._heap: list[tuple[float, int, T]] = []
        self._counter = itertools.count()

    def push(self, score: float, item: T) -> bool:
        """Offer ``item``; return True if it was kept."""
        # Later insertions get a *smaller* tiebreak so that on equal scores
        # the earliest insertion sorts as "larger" and survives eviction.
        entry = (score, -next(self._counter), item)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if entry[:2] > self._heap[0][:2]:
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def extend(self, scored_items: Iterable[tuple[float, T]]) -> None:
        for score, item in scored_items:
            self.push(score, item)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def threshold(self) -> float | None:
        """Smallest score currently retained, or None while under capacity."""
        if len(self._heap) < self.k:
            return None
        return self._heap[0][0]

    def items(self) -> list[tuple[float, T]]:
        """Return retained ``(score, item)`` pairs, best first."""
        ordered = sorted(self._heap, key=lambda entry: entry[:2], reverse=True)
        return [(score, item) for score, _, item in ordered]

    def __iter__(self) -> Iterator[tuple[float, T]]:
        return iter(self.items())
