"""The corpus index: N inverted-index segments behind a router.

A :class:`ShardedIndex` routes every document to one of N
:class:`~repro.index.inverted.InvertedIndex` shards (segments) through
a :class:`ShardRouter` and exposes the *exact* read/write surface of a
single index, so rankers, scoring sessions, the search kernel, and the
explainers work against it unchanged. It is the one live index shape:
the engine and ``repro index`` always build one, and a plain corpus is
one shard. Its read surface is :class:`SegmentedReader`'s, which the
packed view of a saved corpus shares. Correctness hinges on two merged
views:

* :class:`MergedStats` maintains corpus-level statistics (document
  frequency, collection frequency, total terms, document count)
  incrementally on every add/remove. They are integer sums, so BM25 /
  TF-IDF / LM scores computed against a sharded corpus are
  **byte-identical** to the single-shard index.
* Global insertion order is tracked across shards (``doc_ids``,
  ``__iter__``, and ``terms()`` replay it, and ``ordinals`` numbers
  it), so every order-dependent tie-break — ranked retrieval,
  ``Ranking.from_scores``, Doc2Vec training order — is preserved
  exactly.

Ingestion has one path, :meth:`ShardedIndex.add_documents`: analyze
every body through the shared analyzer (whose memo analyzes each
distinct surface form once) outside the corpus lock, then, under the
lock, reject duplicate ids and route and place the batch in input
order. Nothing is routed or mutated until every document has analyzed,
so a failing batch leaves the index, router cursor included, as it was.
"""

from __future__ import annotations

import threading
import zlib
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import ConfigurationError, DocumentNotFoundError
from repro.index.document import Document
from repro.index.inverted import IndexSnapshot, InvertedIndex, analyze_batch
from repro.index.postings import Posting, PostingsList
from repro.index.stats import CollectionStats
from repro.obs.trace import span as obs_span
from repro.text.analyzer import Analyzer, default_analyzer
from repro.utils.validation import require_positive

#: Router names accepted by :func:`build_router` and the v3 manifest.
ROUTER_CHOICES = ("hash", "round-robin")


class ShardRouter(ABC):
    """Assigns each document id to a shard at ingestion time.

    Routing happens exactly once per document (the assignment is recorded
    by the :class:`ShardedIndex`), so a stateful router like round-robin
    stays consistent under later lookups, removals, and replacement.
    """

    def __init__(self, shard_count: int):
        require_positive(shard_count, "shard_count")
        self.shard_count = shard_count

    @property
    @abstractmethod
    def name(self) -> str:
        """Stable router name used by persistence (see ROUTER_CHOICES)."""

    @abstractmethod
    def route(self, doc_id: str) -> int:
        """The shard (``0 .. shard_count-1``) that should hold ``doc_id``."""


class HashRouter(ShardRouter):
    """Deterministic content-addressed routing: ``crc32(doc_id) % N``.

    CRC32 rather than Python's ``hash()`` because the latter is salted
    per process — placements must be reproducible across runs and match
    what a persisted index recorded.
    """

    @property
    def name(self) -> str:
        return "hash"

    def route(self, doc_id: str) -> int:
        return zlib.crc32(doc_id.encode("utf-8")) % self.shard_count


class RoundRobinRouter(ShardRouter):
    """Cycles through the shards, balancing counts exactly.

    Stateful: the n-th routed document lands on shard ``n % N``. The
    :class:`ShardedIndex` records each assignment, and a saved index
    stores those placements, so a reload never re-routes.
    """

    def __init__(self, shard_count: int):
        super().__init__(shard_count)
        self._next = 0

    @property
    def name(self) -> str:
        return "round-robin"

    @property
    def cursor(self) -> int:
        """The shard the next routed document will land on.

        Persisted by the v3 manifest and restored on load, so a
        reloaded index continues the cycle exactly where the saved one
        left off — a derived value (e.g. surviving-document count) would
        drift after removals.
        """
        return self._next

    @cursor.setter
    def cursor(self, value: int) -> None:
        if not 0 <= value < self.shard_count:
            raise ConfigurationError(
                f"cursor must be in [0, {self.shard_count}), got {value}"
            )
        self._next = value

    def route(self, doc_id: str) -> int:
        shard = self._next
        self._next = (self._next + 1) % self.shard_count
        return shard


def build_router(name: str, shard_count: int) -> ShardRouter:
    """Construct a router by persistable name (see :data:`ROUTER_CHOICES`)."""
    if name == "hash":
        return HashRouter(shard_count)
    if name == "round-robin":
        return RoundRobinRouter(shard_count)
    raise ConfigurationError(
        f"router must be one of {ROUTER_CHOICES}, got {name!r}"
    )


class MergedStats:
    """Corpus-level statistics maintained across shards, incrementally.

    Document frequency and collection frequency are integer sums over
    shards, updated on every add/remove, so reads are O(1) — no fan-out.
    The term dict mirrors a single index's postings-dict ordering
    exactly: a term is inserted when its global df first becomes
    positive, deleted when it returns to zero, and re-appended on
    re-introduction, which keeps ``terms()`` byte-compatible with
    :meth:`InvertedIndex.terms`.
    """

    def __init__(
        self,
        terms: Iterable[tuple[str, int, int]] = (),
        document_count: int = 0,
        total_terms: int = 0,
    ):
        """Empty, or restored from stored ``(term, df, cf)`` rows."""
        #: term -> [document_frequency, collection_frequency]
        self._terms = {term: [df, cf] for term, df, cf in terms}
        self.document_count = document_count
        self.total_terms = total_terms

    def add_document(self, counts: Mapping[str, int], length: int) -> None:
        """Account for one added document given its term-frequency vector.

        ``counts`` iterates in first-occurrence order (as
        :meth:`InvertedIndex.add_analyzed
        <repro.index.inverted.InvertedIndex.add_analyzed>` returns it),
        so a new term joins the merged order where a single index's
        postings dict would place it.
        """
        merged = self._terms
        for term, frequency in counts.items():
            entry = merged.get(term)
            if entry is None:
                merged[term] = [1, frequency]
            else:
                entry[0] += 1
                entry[1] += frequency
        self.document_count += 1
        self.total_terms += length

    def remove_document(self, counts: Mapping[str, int], length: int) -> None:
        """Account for one removed document given its term-frequency vector."""
        merged = self._terms
        for term, frequency in counts.items():
            entry = merged[term]
            entry[0] -= 1
            entry[1] -= frequency
            if entry[0] == 0:
                del merged[term]
        self.document_count -= 1
        self.total_terms -= length

    def document_frequency(self, term: str) -> int:
        entry = self._terms.get(term)
        return entry[0] if entry else 0

    def collection_frequency(self, term: str) -> int:
        entry = self._terms.get(term)
        return entry[1] if entry else 0

    @property
    def unique_terms(self) -> int:
        return len(self._terms)

    def terms(self) -> list[str]:
        return list(self._terms)

    def stats(self) -> CollectionStats:
        return CollectionStats(
            document_count=self.document_count,
            total_terms=self.total_terms,
            unique_terms=len(self._terms),
        )


@dataclass(frozen=True)
class ShardedSnapshot:
    """One atomic read snapshot of a :class:`ShardedIndex`.

    Captured under the sharded index's lock by
    :meth:`ShardedIndex.export_snapshot`: per-shard
    :class:`~repro.index.inverted.IndexSnapshot`\\ s, the global
    placement order, and the merged term statistics in their merged
    insertion order (what :meth:`ShardedIndex.terms` replays), all from
    the same instant.
    """

    shard_snapshots: tuple[IndexSnapshot, ...]
    placements: tuple[tuple[str, int], ...]
    merged_terms: tuple[tuple[str, int, int], ...]
    router: str
    cursor: int | None
    version: int
    document_count: int
    total_terms: int


class MergedPostings:
    """Read-only merged view of one term's postings across shards.

    Duck-types the read surface of
    :class:`~repro.index.postings.PostingsList` (iteration, ``get``,
    df/cf, membership). Iteration yields shard 0's postings first, then
    shard 1's, and so on — callers that need global corpus order
    (phrase/boolean search) already re-sort by ``ordinals``, and scoring
    accumulates per document, so the inter-shard order is never
    observable in results.
    """

    def __init__(self, term: str, parts: Sequence[PostingsList]):
        self.term = term
        self._parts = tuple(parts)

    def get(self, doc_id: str) -> Posting | None:
        for part in self._parts:
            posting = part.get(doc_id)
            if posting is not None:
                return posting
        return None

    @property
    def document_frequency(self) -> int:
        return sum(len(part) for part in self._parts)

    @property
    def collection_frequency(self) -> int:
        return sum(part.collection_frequency for part in self._parts)

    def __iter__(self) -> Iterator[Posting]:
        for part in self._parts:
            yield from part

    def __len__(self) -> int:
        return self.document_frequency

    def __contains__(self, doc_id: str) -> bool:
        return any(doc_id in part for part in self._parts)


class SegmentedReader:
    """The corpus read surface, written once over segments behind a router.

    A per-document read finds the owning segment with one lookup in the
    placement maps and delegates to it; df, cf, ``stats()`` and
    ``terms()`` come from the :class:`MergedStats`; ``doc_ids``,
    iteration and ``ordinals`` replay global insertion order. Results are
    byte-identical to one :class:`InvertedIndex` over the same documents
    (``tests/index/test_sharded_equivalence.py``). :class:`ShardedIndex`
    adds mutation over live segments,
    :class:`~repro.index.persist.packed.PackedShardedIndex` attach state
    over packed ones. A reentrant lock guards the maps and statistics
    for multi-step reads; each segment carries its own lock.
    """

    #: doc id -> shard position, in global insertion order.
    _assignments: dict[str, int]
    #: doc id -> global insertion ordinal, ordered like ``_assignments``.
    _ordinals: dict[str, int]

    def __init__(
        self,
        shards: Sequence,
        analyzer: Analyzer,
        router: ShardRouter,
        merged: MergedStats,
    ):
        if router.shard_count != len(shards):
            raise ConfigurationError(
                f"router expects {router.shard_count} shards, index has "
                f"{len(shards)}"
            )
        self.shards = tuple(shards)
        self.analyzer = analyzer
        self.router = router
        self._merged = merged
        self._lock = threading.RLock()

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_of(self, doc_id: str) -> int:
        """The shard currently holding ``doc_id``; raises if absent."""
        shard = self._assignments.get(doc_id)
        if shard is None:
            raise DocumentNotFoundError(doc_id)
        return shard

    def shard_sizes(self) -> list[int]:
        """Documents per shard, by shard position."""
        return [len(shard) for shard in self.shards]

    # -- lookups --------------------------------------------------------------

    def document(self, doc_id: str) -> Document:
        return self.shards[self.shard_of(doc_id)].document(doc_id)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._assignments

    def __len__(self) -> int:
        return self._merged.document_count

    def __iter__(self) -> Iterator[Document]:
        with self._lock:  # snapshot in global insertion order
            return iter(
                [
                    self.shards[shard].document(doc_id)
                    for doc_id, shard in self._assignments.items()
                ]
            )

    @property
    def doc_ids(self) -> list[str]:
        with self._lock:
            return list(self._assignments)

    @property
    def ordinals(self) -> Mapping[str, int]:
        """Read-only live map from doc id to global insertion ordinal.

        The corpus-wide counterpart of
        :attr:`InvertedIndex.ordinals <repro.index.inverted.InvertedIndex.ordinals>`:
        iterates like :attr:`doc_ids`, a re-added or replaced document
        takes the next value of the corpus counter, and a removed one
        drops out.
        """
        return MappingProxyType(self._ordinals)

    def postings(self, term: str) -> MergedPostings | None:
        """Merged postings view for an analyzed term, or None if unindexed."""
        parts = [
            postings
            for postings in (shard.postings(term) for shard in self.shards)
            if postings is not None
        ]
        if not parts:
            return None
        return MergedPostings(term, parts)

    def terms(self) -> Iterator[str]:
        with self._lock:  # snapshot, ordered like a single index's postings
            return iter(self._merged.terms())

    # -- statistics -----------------------------------------------------------

    def document_frequency(self, term: str) -> int:
        with self._lock:
            return self._merged.document_frequency(term)

    def collection_frequency(self, term: str) -> int:
        with self._lock:
            return self._merged.collection_frequency(term)

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Occurrences of analyzed ``term`` in document ``doc_id``."""
        return self.shards[self.shard_of(doc_id)].term_frequency(term, doc_id)

    def document_length(self, doc_id: str) -> int:
        return self.shards[self.shard_of(doc_id)].document_length(doc_id)

    def term_vector(self, doc_id: str) -> Counter[str]:
        """The document's analyzed term-frequency vector (a copy)."""
        return self.shards[self.shard_of(doc_id)].term_vector(doc_id)

    def term_frequencies(self, doc_id: str) -> Counter[str]:
        """The document's live term-frequency vector (treat as read-only)."""
        return self.shards[self.shard_of(doc_id)].term_frequencies(doc_id)

    def stats(self) -> CollectionStats:
        with self._lock:
            return self._merged.stats()

    @property
    def average_document_length(self) -> float:
        return self.stats().average_document_length


class ShardedIndex(SegmentedReader):
    """N live inverted-index shards behind the single-index surface.

    Drop-in for :class:`~repro.index.inverted.InvertedIndex` everywhere
    a corpus is read or mutated: rankers, sessions, searchers, storage,
    and the engine accept either. The read surface is
    :class:`SegmentedReader`'s; this class adds routing, mutation and
    the mutation counter, and keeps the placement maps and merged
    statistics current under the reader's lock.
    """

    def __init__(
        self,
        shard_count: int = 2,
        analyzer: Analyzer | None = None,
        router: ShardRouter | None = None,
    ):
        require_positive(shard_count, "shard_count")
        analyzer = analyzer or default_analyzer()
        super().__init__(
            [InvertedIndex(analyzer) for _ in range(shard_count)],
            analyzer,
            router or HashRouter(shard_count),
            MergedStats(),
        )
        self._assignments = {}
        self._ordinals = {}
        self._next_ordinal = 0
        self._version = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_documents(
        cls,
        documents: Iterable[Document],
        shard_count: int = 2,
        analyzer: Analyzer | None = None,
        router: ShardRouter | None = None,
    ) -> "ShardedIndex":
        index = cls(shard_count, analyzer, router)
        index.add_documents(documents)
        return index

    @classmethod
    def from_analyzed_placements(
        cls,
        placements: Iterable[tuple[Document, list[str], int]],
        shard_count: int,
        analyzer: Analyzer | None = None,
        router: ShardRouter | None = None,
        cursor: int | None = None,
    ) -> "ShardedIndex":
        """Rebuild an index from (document, analyzed terms, shard) triples.

        The hydration hook for the packed v3 persistence layer: segments
        already store every document's exact term sequence, so hydration
        rebuilds postings without re-running the analyzer —
        ``terms`` must be exactly ``analyzer.analyze(document.body)``
        for each document, in global insertion order. ``cursor``
        restores a round-robin router's cycle position.
        """
        index = cls(shard_count, analyzer, router)
        count = 0
        with index._lock:
            for document, terms, shard in placements:
                if not 0 <= shard < shard_count:
                    raise ConfigurationError(
                        f"placement shard {shard} out of range for "
                        f"{shard_count} shards"
                    )
                if document.doc_id in index._assignments:
                    raise ValueError(
                        f"duplicate document id: {document.doc_id!r}"
                    )
                index._add_routed(document, terms, shard)
                count += 1
            index._version += count
            if isinstance(index.router, RoundRobinRouter):
                index.router.cursor = (
                    cursor if cursor is not None else count % shard_count
                )
        return index

    # Traced and counted per class (perfbench, the search guards).
    doc_ids = SegmentedReader.doc_ids
    postings = SegmentedReader.postings

    # -- mutation -------------------------------------------------------------

    def add(self, document: Document) -> None:
        """Route and index ``document``; raises ``ValueError`` on duplicates."""
        self.add_documents((document,))

    def _add_routed(self, document: Document, terms: list[str], shard: int) -> None:
        """Place an analyzed document on an explicit shard (lock held)."""
        counts = self.shards[shard].add_analyzed(document, terms)
        self._assignments[document.doc_id] = shard
        self._ordinals[document.doc_id] = self._next_ordinal
        self._next_ordinal += 1
        self._merged.add_document(counts, len(terms))

    def remove(self, doc_id: str) -> Document:
        """Remove and return a document; raises if absent."""
        with self._lock:
            shard = self.shards[self.shard_of(doc_id)]
            counts = dict(shard.term_frequencies(doc_id))
            length = shard.document_length(doc_id)
            document = shard.remove(doc_id)
            del self._assignments[doc_id]
            del self._ordinals[doc_id]
            self._merged.remove_document(counts, length)
            self._version += 1
            return document

    def replace(self, document: Document) -> Document:
        """Swap a document body in place; returns the previous version.

        The document keeps its current shard (routing happens once, at
        first ingestion), so a stateful router's placements stay stable.
        The new body is analyzed before the lock is taken, so a body
        that fails analysis leaves the old document in place.
        """
        terms = self.analyzer.analyze(document.body)
        with self._lock:
            shard = self.shard_of(document.doc_id)
            previous = self.remove(document.doc_id)
            self._add_routed(document, terms, shard)
            self._version += 1
            return previous

    def add_documents(self, documents: Iterable[Document]) -> int:
        """Bulk-ingest ``documents``; returns the number added.

        Every body is analyzed through ``self.analyzer`` before the
        corpus lock is taken. Under the lock, duplicate ids (against the
        index or within the batch) raise ``ValueError``, then the batch
        is routed and placed in input order, so the result is
        byte-identical to adding the documents one at a time.
        All-or-nothing: a failure in analysis or the duplicate check
        leaves the index and the router cursor untouched. Traced as one
        ``index/ingest`` span carrying ``documents`` and ``new_tokens``.
        """
        documents = list(documents)
        with obs_span("index/ingest", documents=len(documents)) as span:
            analyzed = analyze_batch(self.analyzer, documents, span)
            with self._lock:
                seen: set[str] = set()
                for document in documents:
                    if document.doc_id in self._assignments or document.doc_id in seen:
                        raise ValueError(
                            f"duplicate document id: {document.doc_id!r}"
                        )
                    seen.add(document.doc_id)
                for document, terms in zip(documents, analyzed):
                    self._add_routed(
                        document, terms, self.router.route(document.doc_id)
                    )
                self._version += len(documents)
        return len(documents)

    @property
    def version(self) -> int:
        """Mutation counter; caches keyed on it invalidate on any change."""
        return self._version

    def export_snapshot(self) -> ShardedSnapshot:
        """One atomic copy of the full sharded state for persistence.

        What the v3 writer serialises: per-shard snapshots, the global
        placement order, merged term statistics (in merged insertion
        order), and the router state, captured under one lock
        acquisition so no field can disagree with another — a save
        racing corpus mutation still commits one coherent generation.
        """
        with self._lock:
            return ShardedSnapshot(
                shard_snapshots=tuple(
                    shard.export_snapshot() for shard in self.shards
                ),
                placements=tuple(self._assignments.items()),
                merged_terms=tuple(
                    (term, entry[0], entry[1])
                    for term, entry in self._merged._terms.items()
                ),
                router=self.router.name,
                cursor=(
                    self.router.cursor
                    if isinstance(self.router, RoundRobinRouter)
                    else None
                ),
                version=self._version,
                document_count=self._merged.document_count,
                total_terms=self._merged.total_terms,
            )
