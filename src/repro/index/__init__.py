"""Retrieval substrate: a positional inverted index with collection stats.

This package replaces the paper's Lucene/Pyserini/Anserini stack. It
provides document storage, postings with positions, collection statistics
(document frequency, collection frequency, average document length),
ranked top-k retrieval with pluggable similarities, and persistence in
one on-disk format — the packed mmap format (v3,
:mod:`repro.index.persist`) with O(1) warm restart and read-only
replicas.

A corpus has one shape at every layer: an ordered list of segments
behind a router (:mod:`repro.index.sharding`), where "plain" means one
segment. One :class:`~repro.index.sharding.SegmentedReader` serves
every corpus read over the segments, merged corpus-level statistics (so
scores stay byte-identical to a bare :class:`InvertedIndex`) and the
global placement order. A :class:`ShardedIndex` adds routing and
mutation over N live :class:`InvertedIndex` shards and bulk-ingests
through the analyzer's token memo; a saved generation stores the same
segments and attaches as a :class:`PackedShardedIndex`, the same reader
over packed segments.
"""

from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.postings import Posting, PostingsList
from repro.index.searcher import IndexSearcher, SearchHit
from repro.index.sharding import (
    HashRouter,
    MergedPostings,
    MergedStats,
    RoundRobinRouter,
    ShardedIndex,
    ShardRouter,
    build_router,
)
from repro.index.similarity import (
    Bm25Similarity,
    DirichletSimilarity,
    Similarity,
    TfIdfSimilarity,
)
from repro.index.persist import (
    PackedIndex,
    PackedShardedIndex,
    ReplicaIndex,
    attach_packed,
    save_v3,
)
from repro.index.stats import CollectionStats
from repro.index.storage import load_index, save_index

__all__ = [
    "Document",
    "InvertedIndex",
    "Posting",
    "PostingsList",
    "IndexSearcher",
    "SearchHit",
    "Bm25Similarity",
    "DirichletSimilarity",
    "Similarity",
    "TfIdfSimilarity",
    "CollectionStats",
    "HashRouter",
    "MergedPostings",
    "MergedStats",
    "RoundRobinRouter",
    "ShardedIndex",
    "ShardRouter",
    "build_router",
    "PackedIndex",
    "PackedShardedIndex",
    "ReplicaIndex",
    "attach_packed",
    "load_index",
    "save_index",
    "save_v3",
]
