"""Ranked retrieval never walks the corpus to break ties.

Guards for ``IndexSearcher.search`` on every index backend (bare
``InvertedIndex``, ``ShardedIndex`` with 1 and 3 shards, the packed
attach and a ``ReplicaIndex``):

* a BM25 or TF-IDF ``rank()`` reads ``doc_ids`` zero times;
* a Dirichlet LM ``rank()`` reads ``doc_ids`` only on its segments,
  once each (the dense scorer's walk), never on the corpus-level view;
* a document removed between ``score_all`` and top-k selection drops
  out of the hits without an error, and so does one removed while
  ``score_all`` scans the segment that holds it.

``doc_ids`` reads are counted through a wrapping property installed on
every index class.
"""

import pytest

from repro.api.app import build_router
from repro.api.client import InProcessClient
from repro.core.engine import CredenceEngine, EngineConfig
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.persist import PackedIndex, PackedShardedIndex, ReplicaIndex
from repro.index.searcher import IndexSearcher
from repro.index.sharding import ShardedIndex
from repro.index.storage import load_index, save_index
from repro.ranking.bm25 import Bm25Ranker
from repro.ranking.lm import DirichletLmRanker
from repro.ranking.tfidf import TfIdfRanker

QUERY = "covid outbreak"
K = 5

#: Repeated bodies, so the top k holds ties that only order can break.
BODIES = (
    "covid outbreak in the city",
    "market stocks rally",
    "covid outbreak in the city",
    "a covid outbreak report",
    "weather storm warning",
    "covid outbreak in the city",
    "outbreak news",
)
DOCUMENTS = tuple(Document(f"d{i:02d}", BODIES[i % len(BODIES)]) for i in range(21))

BACKENDS = ("inverted", "sharded-1", "sharded-3", "packed", "replica")


def _open(backend: str, tmp_path):
    """(index, close) for one backend over DOCUMENTS."""
    if backend == "inverted":
        return InvertedIndex.from_documents(DOCUMENTS), lambda: None
    if backend.startswith("sharded"):
        shards = int(backend.split("-")[1])
        return ShardedIndex.from_documents(DOCUMENTS, shards), lambda: None
    path = tmp_path / "corpus.idx"
    save_index(ShardedIndex.from_documents(DOCUMENTS, 3), path)
    index = load_index(path) if backend == "packed" else ReplicaIndex(path)
    return index, index.close


@pytest.fixture(params=BACKENDS)
def index(request, tmp_path):
    index, close = _open(request.param, tmp_path)
    yield index
    close()


@pytest.fixture
def doc_id_reads(monkeypatch):
    """Every object whose ``doc_ids`` is read, in read order."""
    reads = []
    for cls in (InvertedIndex, ShardedIndex, PackedIndex, PackedShardedIndex):
        original = cls.__dict__["doc_ids"].fget

        def counted(self, _original=original):
            reads.append(self)
            return _original(self)

        monkeypatch.setattr(cls, "doc_ids", property(counted))
    return reads


def _segments(index) -> tuple:
    """The per-segment indexes; a bare index is its own only segment."""
    return getattr(index, "shards", None) or (index,)


class TestNoCorpusWalk:
    @pytest.mark.parametrize("ranker_class", (Bm25Ranker, TfIdfRanker))
    def test_sparse_rank_reads_no_doc_ids(self, index, doc_id_reads, ranker_class):
        ranking = ranker_class(index).rank(QUERY, K)
        assert len(ranking) == K
        assert doc_id_reads == []

    def test_engine_rank_reads_no_doc_ids(self, index, doc_id_reads):
        engine = CredenceEngine.from_index(index, EngineConfig(ranker="bm25"))
        doc_id_reads.clear()
        assert len(engine.rank(QUERY, K)) == K
        assert doc_id_reads == []

    def test_lm_rank_reads_segments_only(self, index, doc_id_reads):
        ranking = DirichletLmRanker(index).rank(QUERY, K)
        assert len(ranking) == K
        segments = _segments(index)
        assert len(doc_id_reads) == len(segments)
        assert all(
            any(read is segment for segment in segments) for read in doc_id_reads
        )


class TestRemovedWhileRanking:
    def _score_then(self, monkeypatch, action):
        """Run ``action`` right after ``score_all`` returns its scores."""
        original = IndexSearcher.score_all

        def score_all(self, query):
            scores = original(self, query)
            action()
            return scores

        monkeypatch.setattr(IndexSearcher, "score_all", score_all)

    def _expected_without(self, index, victim):
        hits = IndexSearcher(index).search(QUERY, len(DOCUMENTS))
        assert victim in [hit.doc_id for hit in hits[:K]]
        return [
            (hit.doc_id, hit.score)
            for hit in hits
            if hit.doc_id != victim
        ][:K]

    @pytest.mark.parametrize("backend", ("inverted", "sharded-1", "sharded-3"))
    def test_removed_document_is_left_out(self, backend, tmp_path, monkeypatch):
        index, _ = _open(backend, tmp_path)
        victim = "d02"
        expected = self._expected_without(index, victim)
        self._score_then(monkeypatch, lambda: index.remove(victim))
        hits = IndexSearcher(index).search(QUERY, K)
        assert [(hit.doc_id, hit.score) for hit in hits] == expected
        assert [hit.rank for hit in hits] == list(range(1, K + 1))

    def test_replica_refresh_mid_query_drops_removed_document(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "corpus.idx"
        live = ShardedIndex.from_documents(DOCUMENTS, 3)
        save_index(live, path)
        replica = ReplicaIndex(path)
        try:
            victim = "d02"
            expected = self._expected_without(replica, victim)

            def commit_removal():
                live.remove(victim)
                save_index(live, path)
                assert replica.refresh()

            self._score_then(monkeypatch, commit_removal)
            hits = IndexSearcher(replica).search(QUERY, K)
            assert [(hit.doc_id, hit.score) for hit in hits] == expected
        finally:
            replica.close()


class TestRemovedMidScan:
    """A rank overlapping a removal skips the removed document: the scan
    read its posting (or its id, for LM) before the removal and its
    length after."""

    def _remove_on_first_length_read(self, monkeypatch, index) -> list[str]:
        """On the scan's first ``document_length`` call, remove the last
        document of the same segment's postings for the first query
        term, which the scan has yet to reach; returns its id."""
        removed: list[str] = []
        original = InvertedIndex.document_length
        term = index.analyzer.analyze(QUERY)[0]

        def document_length(segment, doc_id):
            if not removed:
                victim = [posting.doc_id for posting in segment.postings(term)][-1]
                assert victim != doc_id
                removed.append(victim)
                index.remove(victim)
            return original(segment, doc_id)

        monkeypatch.setattr(InvertedIndex, "document_length", document_length)
        return removed

    @pytest.mark.parametrize("ranker_class", (Bm25Ranker, DirichletLmRanker))
    @pytest.mark.parametrize("backend", ("inverted", "sharded-3"))
    def test_rank_skips_a_document_removed_mid_scan(
        self, backend, ranker_class, tmp_path, monkeypatch
    ):
        index, _ = _open(backend, tmp_path)
        ranker = ranker_class(index)
        removed = self._remove_on_first_length_read(monkeypatch, index)
        ranking = ranker.rank(QUERY, len(DOCUMENTS))
        assert len(removed) == 1
        assert removed[0] not in ranking.doc_ids
        after = ranker_class(index).rank(QUERY, len(DOCUMENTS))
        assert sorted(ranking.doc_ids) == sorted(after.doc_ids)

    def test_post_rank_skips_a_document_removed_mid_scan(self, tmp_path, monkeypatch):
        index, _ = _open("sharded-3", tmp_path)
        engine = CredenceEngine.from_index(index, EngineConfig(ranker="bm25"))
        client = InProcessClient(build_router(engine))
        removed = self._remove_on_first_length_read(monkeypatch, index)
        response = client.post("/rank", {"query": QUERY, "k": K})
        assert response.status == 200, response.payload
        ranked = [entry["doc_id"] for entry in response.payload["ranking"]]
        assert len(ranked) == K and removed[0] not in ranked
