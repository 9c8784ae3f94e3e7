"""Tests for the CredenceEngine facade."""

import pytest

from repro.core.engine import CredenceEngine, EngineConfig, RANKER_CHOICES
from repro.core.explain import ExplainRequest
from repro.core.perturbations import RemoveTerm
from repro.datasets.covid import FAKE_NEWS_DOC_ID
from repro.errors import ConfigurationError

QUERY = "covid outbreak"


class TestConfig:
    def test_unknown_ranker_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(ranker="bert")

    def test_neural_requires_training_queries(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(ranker="neural")

    def test_choices_exported(self):
        assert set(RANKER_CHOICES) == {"bm25", "tfidf", "lm", "neural"}

    @pytest.mark.parametrize("shards", [None, 0, 2.0])
    def test_shards_must_be_a_positive_integer(self, shards):
        # A plain corpus is one shard; there is no shard-less setting.
        with pytest.raises(ConfigurationError, match="shards"):
            EngineConfig(ranker="bm25", shards=shards)

    def test_ingest_workers_is_gone(self):
        # Ingest has one serial path; there is no ingest fan-out knob.
        with pytest.raises(TypeError, match="ingest_workers"):
            EngineConfig(ranker="bm25", ingest_workers=2)


class TestConstruction:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            CredenceEngine([])

    @pytest.mark.parametrize("ranker_name", ["bm25", "tfidf", "lm"])
    def test_lexical_ranker_choices(self, covid_documents, ranker_name):
        engine = CredenceEngine(
            covid_documents, EngineConfig(ranker=ranker_name, seed=5)
        )
        ranking = engine.rank(QUERY, k=5)
        assert len(ranking) == 5

    def test_custom_ranker_injection(self, covid_documents, bm25_engine):
        from repro.ranking.tfidf import TfIdfRanker

        engine = CredenceEngine(
            covid_documents,
            EngineConfig(ranker="bm25", seed=5),
            ranker=TfIdfRanker(bm25_engine.index),
        )
        assert "TfIdf" in engine.ranker.name

    def test_explicit_ranker_with_config_warns_and_wins(
        self, covid_documents, bm25_engine, caplog
    ):
        import logging

        from repro.ranking.tfidf import TfIdfRanker

        with caplog.at_level(logging.WARNING, logger="repro.core.engine"):
            engine = CredenceEngine(
                covid_documents,
                EngineConfig(ranker="bm25", seed=5),
                ranker=TfIdfRanker(bm25_engine.index),
            )
        assert "TfIdf" in engine.ranker.name  # the explicit ranker wins
        assert "precedence" in caplog.text

    def test_explicit_ranker_without_config_does_not_warn(
        self, covid_documents, bm25_engine, caplog
    ):
        import logging

        from repro.ranking.tfidf import TfIdfRanker

        with caplog.at_level(logging.WARNING, logger="repro.core.engine"):
            CredenceEngine(
                covid_documents, ranker=TfIdfRanker(bm25_engine.index)
            )
        assert not caplog.records

    def test_cache_wrapping_controlled_by_config(self, covid_documents):
        cached = CredenceEngine(
            covid_documents, EngineConfig(ranker="bm25", cache_scores=True)
        )
        raw = CredenceEngine(
            covid_documents, EngineConfig(ranker="bm25", cache_scores=False)
        )
        assert "Cached" in cached.ranker.name
        assert "Cached" not in raw.ranker.name


class TestFacadeMethods:
    def test_rank_caps_k_at_corpus(self, bm25_engine):
        ranking = bm25_engine.rank(QUERY, k=10_000)
        assert len(ranking) <= len(bm25_engine.index)

    def test_explain_document_routes(self, bm25_engine):
        result = bm25_engine.explain(
            ExplainRequest(
                QUERY, FAKE_NEWS_DOC_ID, strategy="document/sentence-removal",
                n=1, k=10,
            )
        )
        assert len(result) == 1

    def test_explain_query_routes(self, bm25_engine):
        result = bm25_engine.explain(
            ExplainRequest(
                QUERY, FAKE_NEWS_DOC_ID, strategy="query/augmentation",
                n=1, k=10, threshold=2,
            )
        )
        assert len(result) == 1

    def test_instance_explainers_route(self, bm25_engine):
        doc2vec = bm25_engine.explain(
            ExplainRequest(
                QUERY, FAKE_NEWS_DOC_ID, strategy="instance/doc2vec", n=1, k=10
            )
        )
        cosine = bm25_engine.explain(
            ExplainRequest(
                QUERY, FAKE_NEWS_DOC_ID, strategy="instance/cosine",
                n=1, k=10, samples=20,
            )
        )
        assert doc2vec[0].method == "doc2vec_nearest"
        assert cosine[0].method == "cosine_sampled"

    def test_builder_requires_exactly_one_input(self, bm25_engine):
        with pytest.raises(ConfigurationError):
            bm25_engine.build_counterfactual(QUERY, FAKE_NEWS_DOC_ID, k=10)
        with pytest.raises(ConfigurationError):
            bm25_engine.build_counterfactual(
                QUERY,
                FAKE_NEWS_DOC_ID,
                perturbations=[RemoveTerm("covid")],
                edited_body="also text",
                k=10,
            )

    def test_builder_with_perturbations(self, bm25_engine):
        result = bm25_engine.build_counterfactual(
            QUERY, FAKE_NEWS_DOC_ID, perturbations=[RemoveTerm("covid")], k=10
        )
        assert result.doc_id == FAKE_NEWS_DOC_ID

    def test_topics_over_top_k(self, bm25_engine):
        summary = bm25_engine.topics(QUERY, k=10, num_topics=3, terms_per_topic=5)
        assert len(summary) == 3

    def test_doc2vec_trained_lazily_and_cached(self, bm25_engine):
        first = bm25_engine.doc2vec
        second = bm25_engine.doc2vec
        assert first is second
