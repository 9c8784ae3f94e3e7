"""The sharded corpus backend: routers, merged views, bulk ingestion,
and surface parity with a single inverted index. Persistence of
placements and router state is covered in ``test_persist_format.py``."""

import sys
import threading
from collections import Counter

import pytest

from repro.errors import ConfigurationError, DocumentNotFoundError
from repro.datasets.synthetic import synthetic_corpus
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexSearcher
from repro.index.sharding import (
    HashRouter,
    MergedStats,
    RoundRobinRouter,
    ShardedIndex,
    build_router,
)
from repro.index.similarity import (
    Bm25Similarity,
    DirichletSimilarity,
    TfIdfSimilarity,
)
from repro.text.analyzer import Analyzer, default_analyzer
from repro.text.tokenizer import token_texts

QUERY = "virus vaccine hospital market storm"


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(120, seed=7)


@pytest.fixture(scope="module")
def single(corpus):
    return InvertedIndex.from_documents(corpus)


@pytest.fixture(scope="module")
def sharded(corpus):
    return ShardedIndex.from_documents(corpus, shard_count=4)


class TestRouters:
    def test_hash_router_is_deterministic_across_instances(self):
        a, b = HashRouter(4), HashRouter(4)
        for doc_id in ("health-0001", "finance-0002", "x"):
            assert a.route(doc_id) == b.route(doc_id)
            assert 0 <= a.route(doc_id) < 4

    def test_round_robin_cycles(self):
        router = RoundRobinRouter(3)
        assert [router.route(f"d{i}") for i in range(7)] == [
            0, 1, 2, 0, 1, 2, 0,
        ]

    def test_build_router_names(self):
        assert isinstance(build_router("hash", 2), HashRouter)
        assert isinstance(build_router("round-robin", 2), RoundRobinRouter)
        with pytest.raises(ConfigurationError):
            build_router("modulo", 2)

    def test_round_robin_cursor_validation(self):
        router = RoundRobinRouter(3)
        with pytest.raises(ConfigurationError):
            router.cursor = 3

    def test_router_shard_count_must_match(self):
        with pytest.raises(ConfigurationError):
            ShardedIndex(shard_count=4, router=HashRouter(2))

    def test_round_robin_balances_exactly(self, corpus):
        index = ShardedIndex.from_documents(
            corpus, shard_count=4, router=RoundRobinRouter(4)
        )
        assert index.shard_sizes() == [30, 30, 30, 30]


class TestMergedStats:
    def test_add_remove_roundtrip(self):
        stats = MergedStats()
        stats.add_document(Counter(["a", "b", "a", "c"]), 4)
        stats.add_document(Counter(["b", "d"]), 2)
        assert stats.document_frequency("a") == 1
        assert stats.collection_frequency("a") == 2
        assert stats.document_frequency("b") == 2
        assert stats.total_terms == 6
        assert stats.terms() == ["a", "b", "c", "d"]
        stats.remove_document({"a": 2, "b": 1, "c": 1}, 4)
        assert stats.document_frequency("a") == 0
        assert stats.terms() == ["b", "d"]
        assert stats.stats().document_count == 1

    def test_reintroduced_term_appends_like_postings_dict(self):
        stats = MergedStats()
        stats.add_document(Counter(["a", "b"]), 2)
        stats.remove_document({"a": 1, "b": 1}, 2)
        stats.add_document(Counter(["b", "a"]), 2)
        assert stats.terms() == ["b", "a"]


class TestSurfaceParity:
    """Every read on the sharded index matches the single index exactly."""

    def test_stats_and_lengths(self, single, sharded):
        assert single.stats() == sharded.stats()
        assert len(single) == len(sharded)
        assert (
            single.average_document_length == sharded.average_document_length
        )

    def test_global_insertion_order(self, single, sharded):
        assert single.doc_ids == sharded.doc_ids
        assert [d.doc_id for d in single] == [d.doc_id for d in sharded]

    def test_terms_order(self, single, sharded):
        assert list(single.terms()) == list(sharded.terms())

    def test_per_term_statistics(self, single, sharded):
        for term in list(single.terms()):
            assert single.document_frequency(term) == sharded.document_frequency(term)
            assert single.collection_frequency(term) == sharded.collection_frequency(term)

    def test_per_document_accessors(self, single, sharded, corpus):
        for document in corpus[:20]:
            doc_id = document.doc_id
            assert doc_id in sharded
            assert sharded.document(doc_id).body == single.document(doc_id).body
            assert sharded.document_length(doc_id) == single.document_length(doc_id)
            assert sharded.term_vector(doc_id) == single.term_vector(doc_id)
            assert sharded.term_frequencies(doc_id) == single.term_frequencies(doc_id)

    def test_merged_postings(self, single, sharded):
        terms = [t for t in single.terms() if single.document_frequency(t) > 3]
        assert len(terms) >= 3
        for term in terms[:5]:
            merged = sharded.postings(term)
            reference = single.postings(term)
            assert merged is not None and reference is not None
            assert merged.document_frequency == reference.document_frequency
            assert merged.collection_frequency == reference.collection_frequency
            assert len(merged) == len(reference)
            by_doc = {posting.doc_id: posting for posting in reference}
            for posting in merged:
                assert posting == by_doc[posting.doc_id]
                assert posting.doc_id in merged
                assert merged.get(posting.doc_id) == posting
        assert sharded.postings("zzz-unindexed") is None
        assert sharded.postings(terms[0]).get("no-such-doc") is None

    def test_missing_document_raises(self, sharded):
        with pytest.raises(DocumentNotFoundError):
            sharded.document("ghost")
        with pytest.raises(DocumentNotFoundError):
            sharded.document_length("ghost")
        with pytest.raises(DocumentNotFoundError):
            sharded.remove("ghost")
        with pytest.raises(DocumentNotFoundError):
            sharded.shard_of("ghost")


class TestRetrievalEquivalence:
    @pytest.mark.parametrize(
        "similarity",
        [Bm25Similarity(), TfIdfSimilarity(), DirichletSimilarity()],
        ids=["bm25", "tfidf", "lm"],
    )
    def test_scores_and_topk_byte_identical(self, single, sharded, similarity):
        a = IndexSearcher(single, similarity)
        b = IndexSearcher(sharded, similarity)
        assert a.score_all(QUERY) == b.score_all(QUERY)
        assert a.search(QUERY, 10) == b.search(QUERY, 10)

    def test_phrase_and_boolean(self, single, sharded):
        a, b = IndexSearcher(single), IndexSearcher(sharded)
        assert a.search_phrase("officials said") == b.search_phrase("officials said")
        assert a.search_boolean(QUERY, mode="or") == b.search_boolean(QUERY, mode="or")
        assert a.search_boolean("virus market", mode="and") == b.search_boolean(
            "virus market", mode="and"
        )


class TestMutation:
    def _pair(self, corpus):
        return (
            InvertedIndex.from_documents(corpus),
            ShardedIndex.from_documents(corpus, shard_count=3),
        )

    def test_add_duplicate_raises(self, corpus):
        index = ShardedIndex.from_documents(corpus[:5], shard_count=2)
        with pytest.raises(ValueError, match="duplicate document id"):
            index.add(corpus[0])

    def test_remove_and_readd_keeps_parity(self, corpus):
        single, sharded = self._pair(corpus[:40])
        victim = corpus[7]
        assert sharded.remove(victim.doc_id).doc_id == victim.doc_id
        single.remove(victim.doc_id)
        single.add(victim)
        sharded.add(victim)
        assert single.doc_ids == sharded.doc_ids
        assert list(single.terms()) == list(sharded.terms())
        assert single.stats() == sharded.stats()

    def test_replace_keeps_shard_and_parity(self, corpus):
        single, sharded = self._pair(corpus[:40])
        victim = corpus[3]
        shard_before = sharded.shard_of(victim.doc_id)
        edited = victim.with_body("An entirely new virus outbreak story.")
        single.replace(edited)
        previous = sharded.replace(edited)
        assert previous.body == victim.body
        assert sharded.shard_of(victim.doc_id) == shard_before
        assert sharded.document(victim.doc_id).body == edited.body
        assert single.stats() == sharded.stats()
        assert list(single.terms()) == list(sharded.terms())

    def test_failed_replace_keeps_document(self, corpus):
        index = ShardedIndex.from_documents(corpus[:10], shard_count=2)
        victim = corpus[3].doc_id
        before = (
            index.document(victim), index.shard_of(victim), len(index),
            index.version, index.doc_ids, index.stats(),
        )
        with pytest.raises(TypeError):
            index.replace(Document(victim, None))
        after = (
            index.document(victim), index.shard_of(victim), len(index),
            index.version, index.doc_ids, index.stats(),
        )
        assert after == before

    def test_version_advances_on_every_mutation(self, corpus):
        index = ShardedIndex.from_documents(corpus[:10], shard_count=2)
        version = index.version
        index.add(Document("fresh-doc", "a virus story"))
        assert index.version > version
        version = index.version
        index.remove("fresh-doc")
        assert index.version > version


def _analysis_failing_on(call: int):
    """An ``Analyzer.analyze`` that raises on its ``call``-th call."""
    original = Analyzer.analyze
    calls = {"n": 0}

    def analyze(self, text):
        calls["n"] += 1
        if calls["n"] == call:
            raise RuntimeError("analysis exploded")
        return original(self, text)

    return analyze


class TestBulkIngestion:
    @pytest.mark.parametrize(
        "router", [HashRouter, RoundRobinRouter], ids=["hash", "round-robin"]
    )
    def test_bulk_matches_one_by_one(self, corpus, router):
        one_by_one = ShardedIndex(shard_count=4, router=router(4))
        for document in corpus:
            one_by_one.add(document)
        bulk = ShardedIndex.from_documents(
            corpus, shard_count=4, router=router(4)
        )
        assert bulk.export_snapshot() == one_by_one.export_snapshot()

    def test_duplicate_in_batch_fails_before_mutation(self, corpus):
        index = ShardedIndex(shard_count=2)
        batch = [corpus[0], corpus[1], corpus[0]]
        with pytest.raises(ValueError, match="duplicate document id"):
            index.add_documents(batch)
        assert len(index) == 0

    def test_duplicate_against_corpus_fails_before_mutation(self, corpus):
        index = ShardedIndex.from_documents(corpus[:5], shard_count=2)
        with pytest.raises(ValueError, match="duplicate document id"):
            index.add_documents([corpus[10], corpus[2]])
        assert len(index) == 5

    @pytest.mark.parametrize(
        "build",
        [
            InvertedIndex.from_documents,
            lambda documents: ShardedIndex.from_documents(documents, 2),
        ],
        ids=["inverted", "sharded"],
    )
    def test_failing_batch_rolls_back(self, corpus, monkeypatch, build):
        index = build(corpus[:10])
        before = index.export_snapshot()
        with monkeypatch.context() as patch:
            patch.setattr(Analyzer, "analyze", _analysis_failing_on(4))
            with pytest.raises(RuntimeError, match="analysis exploded"):
                index.add_documents(corpus[10:30])
        assert index.export_snapshot() == before
        assert index.version == before.version
        # The index is still fully usable after the failed batch.
        index.add_documents(corpus[10:30])
        assert len(index) == 30

    def test_failed_batch_leaves_the_round_robin_cursor(
        self, corpus, monkeypatch
    ):
        def build() -> ShardedIndex:
            return ShardedIndex.from_documents(
                corpus[:4], shard_count=3, router=RoundRobinRouter(3)
            )

        batch = corpus[4:9]
        reference = build()
        reference.add_documents(batch)

        index = build()
        before = index.export_snapshot()
        with monkeypatch.context() as patch:
            patch.setattr(Analyzer, "analyze", _analysis_failing_on(3))
            with pytest.raises(RuntimeError, match="analysis exploded"):
                index.add_documents(batch)
        assert index.export_snapshot() == before

        index.add_documents(batch)  # the retry
        assert index.router.cursor == reference.router.cursor == 0
        assert (
            index.export_snapshot().placements
            == reference.export_snapshot().placements
        )
        assert index.shard_sizes() == reference.shard_sizes() == [3, 3, 3]

    def test_empty_batch_is_a_noop(self):
        index = ShardedIndex(shard_count=2)
        version = index.version
        assert index.add_documents([]) == 0
        assert index.version == version

    def test_single_index_bulk_matches_loop(self, corpus):
        loop = InvertedIndex()
        for document in corpus:
            loop.add(document)
        bulk = InvertedIndex()
        assert bulk.add_documents(corpus) == len(corpus)
        assert loop.doc_ids == bulk.doc_ids
        assert list(loop.terms()) == list(bulk.terms())
        assert loop.stats() == bulk.stats()
        with pytest.raises(ValueError, match="duplicate document id"):
            bulk.add_documents([corpus[0]])


class TestIngestTokenMemo:
    """Ingest analyzes through the analyzer's token memo."""

    def test_memoized_analysis_is_byte_identical(self, corpus):
        analyzer = default_analyzer()
        for document in corpus[:50]:
            expected = [
                term
                for term in map(analyzer.analyze_token, token_texts(document.body))
                if term is not None
            ]
            assert analyzer.analyze(document.body) == expected  # cold
            assert analyzer.analyze(document.body) == expected  # warm
        assert analyzer.memo.stats()["entries"] > 0

    def test_filtered_tokens_are_cached_as_none(self):
        analyzer = default_analyzer()
        assert analyzer.analyze("the the the") == []
        assert analyzer.memo.entries == {"the": None}

    def test_bulk_ingest_fills_the_index_analyzer_memo(self, corpus):
        index = ShardedIndex(shard_count=2)
        index.add_documents(corpus[:20])
        stats = index.analyzer.memo.stats()
        assert stats["entries"] > 0
        assert stats["hits"] > 0  # repeated surface forms analyzed once


class TestConcurrentIngest:
    """Analysis runs outside the corpus lock; placement stays serial."""

    THREADS = 6  # more threads than cores
    ROUNDS = 20  # each round is a fresh race; one round takes ~25 ms

    def test_racing_batches_build_one_consistent_corpus(self):
        documents = synthetic_corpus(self.THREADS * 8 + 3, seed=11)
        own = [
            documents[position * 8:(position + 1) * 8]
            for position in range(self.THREADS)
        ]
        shared = documents[self.THREADS * 8:]
        serial = ShardedIndex.from_documents(
            documents, shard_count=3, router=RoundRobinRouter(3)
        )
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(self.ROUNDS):
                self._race(own, shared, serial)
        finally:
            sys.setswitchinterval(previous)

    def _race(self, own, shared, serial) -> None:
        index = ShardedIndex(shard_count=3, router=RoundRobinRouter(3))
        barrier = threading.Barrier(self.THREADS, timeout=30)
        outcomes: list = [None] * self.THREADS

        def ingest(position: int) -> None:
            barrier.wait()
            if position % 2:
                index.add_documents(own[position])
            try:
                index.add_documents(shared)
                outcomes[position] = "accepted"
            except ValueError as error:
                outcomes[position] = error
            if not position % 2:
                index.add_documents(own[position])

        threads = [
            threading.Thread(target=ingest, args=(position,))
            for position in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        assert outcomes.count("accepted") == 1
        refused = [outcome for outcome in outcomes if outcome != "accepted"]
        assert len(refused) == self.THREADS - 1
        for error in refused:
            assert isinstance(error, ValueError)
            assert "duplicate document id" in str(error)
        assert len(index) == len(serial)
        assert index.stats() == serial.stats()
        assert sorted(index.doc_ids) == sorted(serial.doc_ids)
        # (term, df, cf) per term: a lost merged-stats update shows here.
        assert sorted(index.export_snapshot().merged_terms) == sorted(
            serial.export_snapshot().merged_terms
        )
        sizes = index.shard_sizes()
        assert max(sizes) - min(sizes) <= 1
