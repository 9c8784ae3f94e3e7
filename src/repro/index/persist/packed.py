"""Read-only index views attached over mmap-packed v3 segments.

:class:`PackedShardedIndex` is a
:class:`~repro.index.sharding.SegmentedReader` — the read surface a
:class:`~repro.index.sharding.ShardedIndex` has, written once — whose
segments are on disk, one :class:`PackedIndex` per segment (the packed
counterpart of one :class:`~repro.index.inverted.InvertedIndex`
shard). Rankers, scoring sessions, the search kernel, and all six
explainers run against it unchanged:

* Attach is O(1) in segment size: open the manifest, read one
  generation row, ``mmap`` the segment files, parse fixed-size headers.
  No JSON parse, no re-analysis, no posting rebuild. The placement maps
  (doc id → shard, doc id → global ordinal) are built on first use.
* Lookups decode lazily (a postings list on first use of its term, a
  document record on first access to its block) and memoize, so a warm
  reader converges on in-memory speed for its working set while cold
  data stays on disk, shared with every other attached process through
  the page cache.
* ``version`` is the generation's *content fingerprint* rather than the
  in-memory mutation counter, so version-keyed caches
  (:class:`~repro.service.store.ResultStore` keys, collection views,
  Doc2Vec models) remain valid across process restarts and agree
  between replicas attached to the same commit.

Mutations raise :class:`~repro.errors.ReadOnlyIndexError`; call
:meth:`PackedShardedIndex.hydrate` (or
``load_index(path, mode="memory")``) for a mutable
:class:`~repro.index.sharding.ShardedIndex`, rebuilt from the stored
term sequences without re-running the analyzer.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from pathlib import Path

from repro.errors import (
    DocumentNotFoundError,
    IndexFormatError,
    ReadOnlyIndexError,
)
from repro.index.document import Document
from repro.index.postings import Posting, PostingsList
from repro.index.sharding import (
    MergedStats,
    RoundRobinRouter,
    SegmentedReader,
    ShardedIndex,
    build_router,
)
from repro.obs.trace import span as obs_span
from repro.text.analyzer import Analyzer
from repro.index.persist.manifest import GenerationRecord, Manifest
from repro.index.persist.segment import Segment


class _ReadOnlyMutations:
    """Mutation surface shared by every packed view: always refuses."""

    def add(self, document) -> None:
        raise ReadOnlyIndexError("add a document")

    def add_analyzed(self, document, terms) -> None:
        raise ReadOnlyIndexError("add a document")

    def add_documents(self, documents) -> int:
        raise ReadOnlyIndexError("add documents")

    def remove(self, doc_id: str):
        raise ReadOnlyIndexError("remove a document")

    def replace(self, document):
        raise ReadOnlyIndexError("replace a document")


class PackedIndex(_ReadOnlyMutations):
    """Read-only view over one packed segment: one shard of a
    :class:`PackedShardedIndex`.

    Serves the per-document reads the sharded view routes to a shard
    and the per-shard reads the searcher fans out over; corpus-level
    statistics, term order and global insertion order live on the
    sharded view.
    """

    def __init__(self, segment: Segment):
        self._segment = segment
        self._documents: dict[int, Document] = {}
        self._vectors: dict[int, Counter[str]] = {}
        self._postings: dict[str, PostingsList | None] = {}

    @property
    def segment(self) -> Segment:
        return self._segment

    def close(self) -> None:
        self._segment.close()

    # -- lookups -------------------------------------------------------------

    def _ordinal(self, doc_id: str) -> int:
        ordinal = self._segment.doc_ordinal(doc_id)
        if ordinal is None:
            raise DocumentNotFoundError(doc_id)
        return ordinal

    def _document_at(self, ordinal: int) -> Document:
        document = self._documents.get(ordinal)
        if document is None:
            title, body, metadata, _ = self._segment.record(ordinal)
            document = Document(
                self._segment.doc_id(ordinal), body, title, metadata
            )
            self._documents[ordinal] = document
        return document

    def document(self, doc_id: str) -> Document:
        return self._document_at(self._ordinal(doc_id))

    def __contains__(self, doc_id: str) -> bool:
        return self._segment.doc_ordinal(doc_id) is not None

    def __len__(self) -> int:
        return self._segment.doc_count

    @property
    def doc_ids(self) -> list[str]:
        return [
            self._segment.doc_id(ordinal)
            for ordinal in range(self._segment.doc_count)
        ]

    def postings(self, term: str) -> PostingsList | None:
        """Postings for an analyzed term, decoded once and memoized."""
        try:
            return self._postings[term]
        except KeyError:
            pass
        ordinal = self._segment.term_ordinal(term)
        if ordinal is None:
            plist = None
        else:
            plist = PostingsList(term)
            for doc_ordinal, frequency, positions in (
                self._segment.postings_entries(ordinal)
            ):
                plist.add(
                    Posting(
                        self._segment.doc_id(doc_ordinal),
                        frequency,
                        positions,
                    )
                )
        self._postings[term] = plist
        return plist

    # -- statistics ----------------------------------------------------------

    def term_frequency(self, term: str, doc_id: str) -> int:
        return self.term_frequencies(doc_id).get(term, 0)

    def document_length(self, doc_id: str) -> int:
        return self._segment.doc_length(self._ordinal(doc_id))

    def term_vector(self, doc_id: str) -> Counter[str]:
        return Counter(self.term_frequencies(doc_id))

    def term_frequencies(self, doc_id: str) -> Counter[str]:
        """The stored term-frequency vector (memoized; treat as read-only).

        Iteration order is first-occurrence order within the document —
        the segment stores the vector exactly as the in-memory index's
        ``Counter`` iterated it.
        """
        ordinal = self._ordinal(doc_id)
        vector = self._vectors.get(ordinal)
        if vector is None:
            _, _, _, packed = self._segment.record(ordinal)
            vector = Counter()
            for term_ordinal, frequency in packed:
                vector[self._segment.term(term_ordinal)] = frequency
            self._vectors[ordinal] = vector
        return vector


def _term_sequences(segment: Segment) -> list[list[str]]:
    """Reconstruct every document's exact analyzed term sequence.

    Inverted from the stored postings positions: position *p* of term
    *t* in document *d* means ``sequence[p] = t``. Positions cover
    ``0..length-1`` exactly, so the result equals what the analyzer
    produced at indexing time — without re-analysis.
    """
    sequences = [
        [""] * segment.doc_length(ordinal)
        for ordinal in range(segment.doc_count)
    ]
    for term_ordinal in range(segment.term_count):
        term = segment.term(term_ordinal)
        for doc_ordinal, _, positions in segment.postings_entries(term_ordinal):
            sequence = sequences[doc_ordinal]
            for position in positions:
                sequence[position] = term
    return sequences


class PackedShardedIndex(_ReadOnlyMutations, SegmentedReader):
    """Read-only view over one committed generation: one packed segment
    per shard, behind the generation's router.

    The read surface is :class:`~repro.index.sharding.SegmentedReader`'s:
    ``shards`` are per-segment :class:`PackedIndex` views (the searcher
    fans sparse scoring out over them), the merged statistics are the
    manifest's stored term table, and the two placement maps are
    replayed from the stored placements on first use. A plain index is
    saved as one segment, so every attach returns this view.
    """

    def __init__(
        self,
        shards: tuple[PackedIndex, ...],
        analyzer: Analyzer,
        record: GenerationRecord,
        storage: dict | None = None,
    ):
        router = build_router(record.router, record.shard_count)
        if isinstance(router, RoundRobinRouter) and (
            record.router_cursor is not None
        ):
            router.cursor = record.router_cursor
        super().__init__(
            shards,
            analyzer,
            router,
            MergedStats(
                record.merged_terms, record.document_count, record.total_terms
            ),
        )
        self._record = record
        self._storage = dict(storage or {})
        #: Manifest path this view was attached from (set by
        #: :func:`attach_packed`); the process tier reuses it so worker
        #: processes can re-attach the same index without a re-save.
        self.manifest_path: Path | None = None

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def storage_info(self) -> dict:
        return dict(self._storage)

    @cached_property
    def _assignments(self) -> dict[str, int]:
        """Doc id -> shard in global insertion order, built on first use.

        Each segment stores its documents in shard insertion order — a
        subsequence of global order — so walking the stored placements
        with one cursor per shard replays the global order.
        """
        cursors = [0] * len(self.shards)
        assignments: dict[str, int] = {}
        for shard in self._record.placements:
            segment = self.shards[shard].segment
            assignments[segment.doc_id(cursors[shard])] = shard
            cursors[shard] += 1
        return assignments

    @cached_property
    def _ordinals(self) -> dict[str, int]:
        """Doc id -> global insertion ordinal, ordered like ``_assignments``."""
        return {
            doc_id: ordinal for ordinal, doc_id in enumerate(self._assignments)
        }

    # Traced and counted per class (perfbench, the search guards).
    doc_ids = SegmentedReader.doc_ids
    postings = SegmentedReader.postings

    @property
    def version(self) -> int:
        """Content fingerprint — stable across processes and replicas."""
        return self._record.fingerprint

    # -- hydration -----------------------------------------------------------

    def hydrate(self) -> ShardedIndex:
        """Rebuild a mutable in-memory sharded index, layout preserved."""
        per_shard = [_term_sequences(shard.segment) for shard in self.shards]
        cursors = [0] * len(self.shards)

        def placements():
            for shard in self._record.placements:
                ordinal = cursors[shard]
                cursors[shard] += 1
                yield (
                    self.shards[shard]._document_at(ordinal),
                    per_shard[shard][ordinal],
                    shard,
                )

        return ShardedIndex.from_analyzed_placements(
            placements(),
            self._record.shard_count,
            self.analyzer,
            router=build_router(self._record.router, self._record.shard_count),
            cursor=self._record.router_cursor,
        )


def attach_packed(
    path: str | Path, record: GenerationRecord | None = None
) -> PackedShardedIndex:
    """Attach a read-only packed view over the index at ``path``.

    Opens the latest committed generation (or the given ``record``) and
    maps its segments. O(1) in segment size — only fixed-size headers
    are parsed.
    """
    with obs_span("persist/attach", path=str(path)) as span:
        return _attach_packed(path, record, span)


def _check_placements(record: GenerationRecord) -> None:
    """Placements must put exactly each segment's documents on it."""
    placed = Counter(record.placements)
    stored = Counter(
        {segment.shard: segment.document_count for segment in record.segments}
    )
    if placed != stored or len(record.segments) != record.shard_count:
        raise IndexFormatError(
            f"generation {record.generation} places documents "
            f"{dict(sorted(placed.items()))} but its segments hold "
            f"{dict(sorted(stored.items()))}"
        )


def _attach_packed(
    path: str | Path, record: GenerationRecord | None, span
) -> PackedShardedIndex:
    path = Path(path)
    manifest = Manifest.open(path)
    if record is None:
        record = manifest.latest_generation()
        if record is None:
            raise IndexFormatError(
                f"index manifest {path} has no committed generation"
            )
    span.set(generation=record.generation, segments=len(record.segments))
    _check_placements(record)
    analyzer = Analyzer.from_config(record.analyzer_config)
    storage = {
        "format": "v3",
        "bytes_on_disk": path.stat().st_size
        + sum(segment.bytes for segment in record.segments),
        "generation": record.generation,
    }
    shards = tuple(
        PackedIndex(Segment(path.parent / segment.filename))
        for segment in record.segments
    )
    packed = PackedShardedIndex(shards, analyzer, record, storage)
    packed.manifest_path = path
    return packed
