"""Postings lists with positions.

Postings are keyed by *document id* (not a segment-local ordinal) because
the index supports deletion and re-addition without renumbering — an
operational simplification that keeps counterfactual workflows (substitute
a document, compare) easy to reason about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Posting:
    """One document's entry in a term's postings list.

    A value built on request (:meth:`PostingsList.get`, iteration): a
    postings list stores its entries in two maps, not as postings.
    """

    doc_id: str
    frequency: int
    positions: tuple[int, ...] = ()

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("posting frequency must be positive")
        if self.positions and len(self.positions) != self.frequency:
            raise ValueError("positions length must equal frequency")


@dataclass(slots=True)
class PostingsList:
    """All postings for a single term, with collection-level counters.

    Two maps keyed by doc id, both in insertion order, hold the entries:
    no object per posting, and the cyclic collector never tracks a map
    from str to int, nor a tuple of ints once a collection has seen it.
    The index writes the maps directly; :meth:`get` and iteration read
    only ``positions`` (a posting's frequency is its count of positions),
    so a reader without the index lock never pairs the frequency of one
    version of a document with the positions of another.
    """

    term: str
    #: doc id -> term frequency.
    frequencies: dict[str, int] = field(default_factory=dict)
    #: doc id -> positions, ordered like ``frequencies``.
    positions: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def add(self, posting: Posting) -> None:
        if posting.doc_id in self.frequencies:
            raise ValueError(
                f"duplicate posting for term {self.term!r}, doc {posting.doc_id!r}"
            )
        self.frequencies[posting.doc_id] = posting.frequency
        self.positions[posting.doc_id] = posting.positions

    def remove(self, doc_id: str) -> bool:
        """Remove a document's posting; return True if it existed."""
        if self.frequencies.pop(doc_id, None) is None:
            return False
        del self.positions[doc_id]
        return True

    def _posting(self, doc_id: str, positions: tuple[int, ...]) -> Posting:
        # Only a posting added without positions reads the other map.
        return Posting(
            doc_id, len(positions) or self.frequencies[doc_id], positions
        )

    def get(self, doc_id: str) -> Posting | None:
        positions = self.positions.get(doc_id)
        return None if positions is None else self._posting(doc_id, positions)

    @property
    def document_frequency(self) -> int:
        """Number of documents containing the term (df)."""
        return len(self.frequencies)

    @property
    def collection_frequency(self) -> int:
        """Total occurrences of the term across the collection (cf)."""
        return sum(self.frequencies.values())

    def __iter__(self) -> Iterator[Posting]:
        # A snapshot copied in one C-level call: a reader iterating
        # without the index lock never sees the map change size under it.
        return (
            self._posting(doc_id, positions)
            for doc_id, positions in self.positions.copy().items()
        )

    def __len__(self) -> int:
        return len(self.frequencies)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.frequencies
