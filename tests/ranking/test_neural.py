"""Tests for the neural reranker (the monoT5 stand-in)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrainingError
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.ranking.features import FEATURE_NAMES, FeatureExtractor
from repro.ranking.neural import NeuralReranker, train_neural_ranker

QUERIES = ["covid outbreak", "flu season", "stock markets"]


@pytest.fixture(scope="module")
def trained(tiny_module_index):
    return train_neural_ranker(tiny_module_index, QUERIES, epochs=8, seed=3)


@pytest.fixture(scope="module")
def tiny_module_index():
    from tests.conftest import TINY_DOCS

    return InvertedIndex.from_documents(TINY_DOCS)


class TestFeatureExtractor:
    def test_dimension_matches_names(self, tiny_index):
        extractor = FeatureExtractor(tiny_index)
        assert extractor.dimension == len(FEATURE_NAMES)

    def test_extracts_finite_values(self, tiny_index):
        extractor = FeatureExtractor(tiny_index)
        vector = extractor.extract_array("covid outbreak", "covid outbreak report")
        assert vector.shape == (len(FEATURE_NAMES),)
        assert np.isfinite(vector).all()

    def test_coverage_feature(self, tiny_index):
        extractor = FeatureExtractor(tiny_index)
        full = extractor.extract("covid outbreak", "covid outbreak here").as_dict()
        half = extractor.extract("covid outbreak", "covid only here").as_dict()
        assert full["coverage"] == pytest.approx(1.0)
        assert half["coverage"] == pytest.approx(0.5)

    def test_no_match_zero_lexical_features(self, tiny_index):
        extractor = FeatureExtractor(tiny_index)
        features = extractor.extract("covid", "totally unrelated prose").as_dict()
        assert features["bm25"] == 0.0
        assert features["matched_terms"] == 0.0

    def test_semantic_channel_plumbs_through(self, tiny_index):
        extractor = FeatureExtractor(tiny_index, semantic_scorer=lambda q, b: 0.42)
        assert extractor.extract("q", "b").as_dict()["semantic"] == 0.42

    def test_bigram_feature(self, tiny_index):
        extractor = FeatureExtractor(tiny_index)
        with_bigram = extractor.extract(
            "covid outbreak", "the covid outbreak grows"
        ).as_dict()
        without_bigram = extractor.extract(
            "covid outbreak", "outbreak somewhere covid elsewhere"
        ).as_dict()
        assert with_bigram["bigram_matches"] > without_bigram["bigram_matches"]


class TestTraining:
    def test_requires_documents(self):
        index = InvertedIndex()
        with pytest.raises(ConfigurationError):
            train_neural_ranker(index, QUERIES)

    def test_requires_queries(self, tiny_index):
        with pytest.raises(ConfigurationError):
            train_neural_ranker(tiny_index, [])

    def test_deterministic_under_seed(self, tiny_module_index):
        a = train_neural_ranker(tiny_module_index, QUERIES, epochs=3, seed=11)
        b = train_neural_ranker(tiny_module_index, QUERIES, epochs=3, seed=11)
        assert a.score_text("covid outbreak", "covid text") == pytest.approx(
            b.score_text("covid outbreak", "covid text")
        )

    def test_seeds_change_model(self, tiny_module_index):
        a = train_neural_ranker(tiny_module_index, QUERIES, epochs=3, seed=1)
        b = train_neural_ranker(tiny_module_index, QUERIES, epochs=3, seed=2)
        assert a.score_text("covid outbreak", "covid text") != pytest.approx(
            b.score_text("covid outbreak", "covid text")
        )


class TestTrainedBehaviour:
    def test_relevant_documents_outrank_irrelevant(self, trained):
        ranking = trained.rank("covid outbreak", k=6)
        positions = {e.doc_id: e.rank for e in ranking}
        assert positions["d1"] < positions["d4"]  # covid doc above finance doc

    def test_score_responds_to_term_removal(self, trained, tiny_module_index):
        body = tiny_module_index.document("d1").body
        gutted = body.replace("covid", "").replace("outbreak", "")
        assert trained.score_text("covid outbreak", gutted) < trained.score_text(
            "covid outbreak", body
        )

    def test_rank_is_permutation(self, trained):
        ranking = trained.rank("covid outbreak", k=6)
        assert sorted(e.rank for e in ranking) == list(range(1, len(ranking) + 1))

    def test_name_describes_architecture(self, trained):
        assert "NeuralReranker" in trained.name


def test_document_memo_is_bounded(trained, tiny_module_index, monkeypatch):
    from repro.ranking import features

    monkeypatch.setattr(features, "DOCUMENT_MEMO_CAPACITY", 2, raising=False)
    bounded = NeuralReranker(tiny_module_index, trained.weights)
    pool = list(tiny_module_index)
    for query in QUERIES * 2:
        expected = trained.scoring_session(query, pool)
        session = bounded.scoring_session(query, pool)
        assert list(session.baseline()) == list(expected.baseline())
        for document in pool:
            assert session.rank_without_sentences(document.doc_id, {0}) == (
                expected.rank_without_sentences(document.doc_id, {0})
            )
    assert len(bounded.features._documents.entries) <= 2
