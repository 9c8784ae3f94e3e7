"""One segmented reader: the corpus read surface, written once.

``ShardedIndex`` (live segments) and ``PackedShardedIndex`` (packed
segments) read through :class:`SegmentedReader`. Guards:

* neither subclass redefines a read method, apart from the per-class
  ``doc_ids``/``postings`` aliases the traced benchmark counts;
* with its placement maps built, a packed read finds the owning segment
  with one dict lookup: ``shard_of`` and ``in`` binary-search no
  segment, and a per-document read searches one segment once;
* attach decodes no doc id (the maps are built on first use);
* a rank that overlaps an ingest of one of its terms completes;
* ``GET /index`` still tells a bare index from a routed corpus.
"""

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.persist import PackedShardedIndex
from repro.index.persist.segment import Segment
from repro.index.searcher import IndexSearcher
from repro.index.sharding import SegmentedReader, ShardedIndex
from repro.index.similarity import Bm25Similarity
from repro.index.storage import load_index, save_index
from tests.core.test_search_equivalence import _corpus
from tests.index.test_sharded_equivalence import K

#: The read surface :class:`SegmentedReader` writes once.
READ_METHODS = (
    "document", "__contains__", "__len__", "__iter__", "doc_ids",
    "ordinals", "postings", "terms", "document_frequency",
    "collection_frequency", "term_frequency", "document_length",
    "term_vector", "term_frequencies", "stats", "average_document_length",
    "shard_count", "shard_sizes", "shard_of",
)


@pytest.fixture
def packed(tmp_path):
    path = tmp_path / "corpus.idx"
    save_index(ShardedIndex.from_documents(_corpus(), 4), path)
    index = load_index(path)
    yield index
    index.close()


@pytest.fixture
def doc_ordinal_calls(monkeypatch):
    """Every ``Segment.doc_ordinal`` lookup, in call order."""
    calls = []
    original = Segment.doc_ordinal

    def counted(self, doc_id):
        calls.append(doc_id)
        return original(self, doc_id)

    monkeypatch.setattr(Segment, "doc_ordinal", counted)
    return calls


class TestOneReadSurface:
    @pytest.mark.parametrize("cls", (ShardedIndex, PackedShardedIndex))
    def test_subclasses_inherit_every_read_method(self, cls):
        assert issubclass(cls, SegmentedReader)
        for name in READ_METHODS:
            own = cls.__dict__.get(name, SegmentedReader.__dict__[name])
            assert own is SegmentedReader.__dict__[name], name

    def test_a_bare_index_is_its_own_one_segment(self):
        index = InvertedIndex.from_documents(_corpus())
        assert index.shards == (index,)


class TestPackedPlacementMaps:
    def test_attach_and_corpus_stats_decode_no_doc_id(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "corpus.idx"
        save_index(ShardedIndex.from_documents(_corpus(), 4), path)
        decoded = []
        original = Segment.doc_id

        def counted(self, ordinal):
            decoded.append(ordinal)
            return original(self, ordinal)

        monkeypatch.setattr(Segment, "doc_id", counted)
        index = load_index(path)
        try:
            assert len(index) == len(_corpus())
            assert index.stats().document_count == len(_corpus())
            assert decoded == []
            assert list(index.ordinals) == [doc.doc_id for doc in _corpus()]
            assert len(decoded) == len(_corpus())
        finally:
            index.close()

    def test_reads_search_at_most_one_segment(self, packed, doc_ordinal_calls):
        assert len(packed.shards) == 4
        assert len(packed.ordinals) == len(_corpus())  # builds the maps
        for document in _corpus():
            doc_id = document.doc_id
            for read in (
                packed.document,
                packed.document_length,
                packed.term_frequencies,
            ):
                doc_ordinal_calls.clear()
                read(doc_id)
                assert len(doc_ordinal_calls) <= 1, read.__name__
            doc_ordinal_calls.clear()
            shard = packed.shards[packed.shard_of(doc_id)]
            assert shard.document(doc_id) == document
            assert doc_ordinal_calls == [doc_id]  # the shard's own lookup
            doc_ordinal_calls.clear()
            packed.shard_of(doc_id)
            assert doc_id in packed
            assert doc_ordinal_calls == []
        assert "ghost" not in packed
        assert doc_ordinal_calls == []


class IngestingSimilarity(Bm25Similarity):
    """BM25 whose first ``score`` call ingests a document."""

    def __init__(self, index, document):
        super().__init__()
        self._ingest = lambda: index.add(document)

    def score(self, term_frequency, document_length, term_stats, field_stats):
        ingest, self._ingest = self._ingest, None
        if ingest is not None:
            ingest()
        return super().score(
            term_frequency, document_length, term_stats, field_stats
        )


class TestIngestDuringRank:
    @pytest.mark.parametrize(
        "shards", (None, 1, 3), ids=("bare", "one", "three")
    )
    def test_rank_completes_when_ingest_touches_its_term(self, shards):
        documents = _corpus()
        if shards is None:
            index = InvertedIndex.from_documents(documents)
        else:
            index = ShardedIndex.from_documents(documents, shards)
        late = Document("late", "A covid outbreak report came in late.")
        similarity = IngestingSimilarity(index, late)
        hits = IndexSearcher(index, similarity).search("covid outbreak", K)
        assert len(hits) == K
        assert "late" in index


class TestIndexInfo:
    def test_bare_index_reports_no_layout(self):
        index = InvertedIndex.from_documents(_corpus())
        config = EngineConfig(ranker="bm25")
        info = CredenceEngine.from_index(index, config).index_info()
        assert info["sharded"] is False
        assert "shards" not in info and "router" not in info

    def test_packed_index_reports_its_layout(self, packed):
        config = EngineConfig(ranker="bm25")
        info = CredenceEngine.from_index(packed, config).index_info()
        assert info["sharded"] is True
        assert info["shards"] == 4
        assert info["shard_documents"] == packed.shard_sizes()
        assert sum(info["shard_documents"]) == len(_corpus())
        assert info["storage"]["format"] == "v3"
