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

    Slotted: an index holds one per (term, document) pair, and a posting
    without a ``__dict__`` takes 56 bytes instead of 96.
    """

    doc_id: str
    frequency: int
    positions: tuple[int, ...] = ()

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("posting frequency must be positive")
        if self.positions and len(self.positions) != self.frequency:
            raise ValueError("positions length must equal frequency")


@dataclass
class PostingsList:
    """All postings for a single term, with collection-level counters."""

    term: str
    _postings: dict[str, Posting] = field(default_factory=dict)

    def add(self, posting: Posting) -> None:
        if posting.doc_id in self._postings:
            raise ValueError(
                f"duplicate posting for term {self.term!r}, doc {posting.doc_id!r}"
            )
        self._postings[posting.doc_id] = posting

    def remove(self, doc_id: str) -> bool:
        """Remove a document's posting; return True if it existed."""
        return self._postings.pop(doc_id, None) is not None

    def get(self, doc_id: str) -> Posting | None:
        return self._postings.get(doc_id)

    @property
    def document_frequency(self) -> int:
        """Number of documents containing the term (df)."""
        return len(self._postings)

    @property
    def collection_frequency(self) -> int:
        """Total occurrences of the term across the collection (cf)."""
        return sum(posting.frequency for posting in self)

    def __iter__(self) -> Iterator[Posting]:
        # A snapshot taken in one C-level call: a reader iterating without
        # the index lock never sees the dict change size under it.
        return iter(tuple(self._postings.values()))

    def __len__(self) -> int:
        return len(self._postings)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._postings
