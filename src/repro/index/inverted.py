"""The in-memory positional inverted index.

Supports incremental addition and removal of documents, per-document term
vectors, and the collection statistics needed by lexical similarities and
by CREDENCE's TF-IDF term-importance scoring.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.errors import DocumentNotFoundError
from repro.index.document import Document
from repro.index.postings import Posting, PostingsList
from repro.index.stats import CollectionStats
from repro.obs.trace import span as obs_span
from repro.text.analyzer import Analyzer, default_analyzer


@dataclass(frozen=True)
class IndexSnapshot:
    """One atomic read snapshot of an :class:`InvertedIndex`.

    Produced by :meth:`InvertedIndex.export_snapshot` under the index
    lock, so every field describes the same instant: the persistence
    layer serialises from this instead of making separate locked reads
    that a concurrent mutation could tear apart. All containers are
    copies — the snapshot stays valid while the index keeps mutating.

    Orderings carry the index's observable iteration semantics and must
    be preserved by any format that round-trips through a snapshot:
    ``documents`` is global insertion order, ``postings`` iterates terms
    in first-appearance order with each term's postings in document
    insertion order, and each term-frequency ``Counter`` iterates in
    first-occurrence order within the document.
    """

    documents: tuple[Document, ...]
    doc_lengths: dict[str, int]
    term_freqs: dict[str, Counter]
    postings: dict[str, tuple[Posting, ...]]
    total_terms: int
    version: int


def analyze_batch(
    analyzer: Analyzer, documents: list[Document], span
) -> list[list[str]]:
    """Every document's analyzed terms, in order, for bulk ingest.

    Sets ``new_tokens`` on the ingest ``span``: the analyzer-memo misses
    while the batch analyzed, i.e. the surface tokens normalized and
    stemmed rather than looked up.
    """
    misses = analyzer.memo.misses
    analyzed = [analyzer.analyze(document.body) for document in documents]
    span.set(new_tokens=analyzer.memo.misses - misses)
    return analyzed


class InvertedIndex:
    """A positional inverted index over :class:`Document` bodies.

    The index owns an :class:`Analyzer`; every component that needs to
    agree with the index on tokenisation (rankers, explainers) should use
    :attr:`analyzer` rather than constructing its own.
    """

    def __init__(self, analyzer: Analyzer | None = None):
        self.analyzer = analyzer or default_analyzer()
        self._documents: dict[str, Document] = {}
        self._postings: dict[str, PostingsList] = {}
        self._doc_lengths: dict[str, int] = {}
        self._doc_term_freqs: dict[str, Counter[str]] = {}
        #: doc_id -> insertion ordinal, ordered like ``_documents``.
        self._ordinals: dict[str, int] = {}
        self._next_ordinal = 0
        self._total_terms = 0
        self._version = 0
        self._stats_cache: CollectionStats | None = None
        #: ``(p,)`` for every position ``p`` a document has reached so
        #: far, so it is as long as the longest document added (56 B per
        #: position). Most postings hold one position; sharing their
        #: tuples spares ingest one allocation per posting.
        self._single_positions: list[tuple[int]] = []
        # Guards mutations, the memoized stats, and the multi-step read
        # accessors: the service layer reads from worker threads while
        # an admin path may add/remove documents. Locked reads can never
        # observe a torn mid-mutation state; a document removed while an
        # explanation is in flight surfaces as DocumentNotFoundError
        # (captured as that item's error), never as an inconsistent
        # lookup. Reentrant because stats() is called from locked
        # sections of consumers holding their own locks.
        self._lock = threading.RLock()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_documents(
        cls, documents: Iterable[Document], analyzer: Analyzer | None = None
    ) -> "InvertedIndex":
        index = cls(analyzer)
        index.add_documents(documents)
        return index

    def add(self, document: Document) -> None:
        """Index ``document``; raises ``ValueError`` on duplicate ids."""
        self.add_documents((document,))

    def add_analyzed(self, document: Document, terms: list[str]) -> Counter[str]:
        """Index ``document`` from an already-analyzed term sequence.

        ``terms`` must be exactly ``self.analyzer.analyze(document.body)``;
        callers that analyze up front (bulk ingestion, the sharded
        backend) use this to avoid re-analyzing inside the index.

        One pass over ``terms`` collects each term's positions in
        first-occurrence order; the term frequencies, the document's
        term-frequency ``Counter`` and the postings are all read from
        them. Returns that ``Counter`` (the index's live state: treat it
        as read-only), so a caller keeping its own statistics need not
        count the terms again.
        """
        doc_id = document.doc_id
        counts: Counter[str] = Counter()
        with self._lock:
            if doc_id in self._documents:
                raise ValueError(f"duplicate document id: {doc_id!r}")
            singles = self._single_positions
            if len(singles) < len(terms):
                singles.extend((p,) for p in range(len(singles), len(terms)))
            # A term seen once holds its shared 1-tuple; a second
            # occurrence turns that into a list.
            positions: dict[str, tuple[int] | list[int]] = {}
            for position, term in enumerate(terms):
                seen = positions.get(term)
                if seen is None:
                    positions[term] = singles[position]
                elif type(seen) is tuple:
                    positions[term] = [seen[0], position]
                else:
                    seen.append(position)
            self._documents[doc_id] = document
            self._ordinals[doc_id] = self._next_ordinal
            self._next_ordinal += 1
            self._doc_lengths[doc_id] = len(terms)
            self._doc_term_freqs[doc_id] = counts
            self._total_terms += len(terms)
            self._stats_cache = None
            index = self._postings
            for term, seen in positions.items():
                frequency = counts[term] = len(seen)
                postings = index.get(term)
                if postings is None:
                    postings = index[term] = PostingsList(term)
                postings.frequencies[doc_id] = frequency
                postings.positions[doc_id] = (
                    seen if frequency == 1 else tuple(seen)
                )
            # Last, so a reader that sees the new version sees the
            # whole document: a version-keyed memo filled mid-add holds
            # the old version and empties on this move.
            self._version += 1
        return counts

    def remove(self, doc_id: str) -> Document:
        """Remove and return a document; raises if absent."""
        with self._lock:
            document = self._documents.pop(doc_id, None)
            if document is None:
                raise DocumentNotFoundError(doc_id)
            del self._ordinals[doc_id]
            self._total_terms -= self._doc_lengths.pop(doc_id)
            self._stats_cache = None
            term_freqs = self._doc_term_freqs.pop(doc_id)
            for term in term_freqs:
                postings = self._postings[term]
                postings.remove(doc_id)
                if len(postings) == 0:
                    del self._postings[term]
            self._version += 1  # last, as in add_analyzed
            return document

    def replace(self, document: Document) -> Document:
        """Atomically swap a document body; returns the previous version.

        The new body is analyzed before the lock is taken, so a body
        that fails analysis leaves the old document in place.
        """
        terms = self.analyzer.analyze(document.body)
        with self._lock:
            previous = self.remove(document.doc_id)
            self.add_analyzed(document, terms)
            return previous

    def add_documents(self, documents: Iterable[Document]) -> int:
        """Bulk-add ``documents``; returns the number added.

        The same path as
        :meth:`~repro.index.sharding.ShardedIndex.add_documents`: every
        body is analyzed through ``self.analyzer`` before the lock is
        taken; under the lock, duplicate ids (against the index or within
        the batch) raise ``ValueError`` and the batch is placed in input
        order. All-or-nothing: a failure in analysis or the duplicate
        check leaves the index untouched. Traced as one ``index/ingest``
        span carrying ``documents`` and ``new_tokens``.
        """
        documents = list(documents)
        with obs_span("index/ingest", documents=len(documents)) as span:
            analyzed = analyze_batch(self.analyzer, documents, span)
            with self._lock:
                seen: set[str] = set()
                for document in documents:
                    if document.doc_id in self._documents or document.doc_id in seen:
                        raise ValueError(
                            f"duplicate document id: {document.doc_id!r}"
                        )
                    seen.add(document.doc_id)
                for document, terms in zip(documents, analyzed):
                    self.add_analyzed(document, terms)
        return len(documents)

    # -- lookups -------------------------------------------------------------

    def document(self, doc_id: str) -> Document:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise DocumentNotFoundError(doc_id) from None

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        with self._lock:  # snapshot: safe to iterate during mutation
            return iter(list(self._documents.values()))

    @property
    def doc_ids(self) -> list[str]:
        with self._lock:
            return list(self._documents)

    @property
    def shards(self) -> tuple[InvertedIndex]:
        """The segments a searcher fans out over: a bare index is one."""
        return (self,)

    @property
    def ordinals(self) -> Mapping[str, int]:
        """Read-only live map from doc id to insertion ordinal.

        Iterates like :attr:`doc_ids`, and ordinals increase along it:
        every add (a re-add and :meth:`replace` included) takes the next
        value of a counter that never goes back, and :meth:`remove`
        drops the entry. Ranked retrieval breaks score ties on it
        without copying ``doc_ids``.
        """
        return MappingProxyType(self._ordinals)

    def postings(self, term: str) -> PostingsList | None:
        """Postings for an *analyzed* term, or None if unindexed."""
        return self._postings.get(term)

    def terms(self) -> Iterator[str]:
        with self._lock:  # snapshot: safe to iterate during mutation
            return iter(list(self._postings))

    # -- statistics ----------------------------------------------------------

    def document_frequency(self, term: str) -> int:
        postings = self._postings.get(term)
        return postings.document_frequency if postings else 0

    def collection_frequency(self, term: str) -> int:
        postings = self._postings.get(term)
        return postings.collection_frequency if postings else 0

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Occurrences of analyzed ``term`` in document ``doc_id``."""
        with self._lock:
            if doc_id not in self._documents:
                raise DocumentNotFoundError(doc_id)
            return self._doc_term_freqs[doc_id].get(term, 0)

    def document_length(self, doc_id: str) -> int:
        try:
            return self._doc_lengths[doc_id]
        except KeyError:
            raise DocumentNotFoundError(doc_id) from None

    def term_vector(self, doc_id: str) -> Counter[str]:
        """The document's analyzed term-frequency vector (a copy)."""
        with self._lock:
            if doc_id not in self._documents:
                raise DocumentNotFoundError(doc_id)
            return Counter(self._doc_term_freqs[doc_id])

    def term_frequencies(self, doc_id: str) -> Counter[str]:
        """The document's term-frequency vector *without copying*.

        The returned mapping is the index's live internal state: callers
        must treat it as read-only. Scoring sessions use it to score
        indexed documents without re-analyzing their bodies.
        """
        with self._lock:
            if doc_id not in self._documents:
                raise DocumentNotFoundError(doc_id)
            return self._doc_term_freqs[doc_id]

    def export_snapshot(self) -> IndexSnapshot:
        """One atomic copy of the full index state for persistence.

        The v3 packed-segment writer serialises from this snapshot; see
        :class:`IndexSnapshot` for the ordering guarantees it carries.
        """
        with self._lock:
            return IndexSnapshot(
                documents=tuple(self._documents.values()),
                doc_lengths=dict(self._doc_lengths),
                term_freqs={
                    doc_id: Counter(counts)
                    for doc_id, counts in self._doc_term_freqs.items()
                },
                postings={
                    term: tuple(plist)
                    for term, plist in self._postings.items()
                },
                total_terms=self._total_terms,
                version=self._version,
            )

    @property
    def version(self) -> int:
        """Mutation counter: bumped on every add/remove.

        Components that memoize per-collection state (field statistics,
        term statistics, prepared queries) key their caches on this value
        so a corpus mutation invalidates them automatically.
        """
        return self._version

    def stats(self) -> CollectionStats:
        with self._lock:
            if self._stats_cache is None:
                self._stats_cache = CollectionStats(
                    document_count=len(self._documents),
                    total_terms=self._total_terms,
                    unique_terms=len(self._postings),
                )
            return self._stats_cache

    @property
    def average_document_length(self) -> float:
        return self.stats().average_document_length
