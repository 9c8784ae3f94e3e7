"""Tests for instance-based counterfactual explanations (§II-E)."""

import pytest

from repro.core.instance_cf import CosineSampledExplainer, Doc2VecNearestExplainer
from repro.datasets.covid import FAKE_NEWS_DOC_ID, NEAR_COPY_DOC_ID
from repro.embeddings.vectorizers import TfIdfVectorizer
from repro.errors import ConfigurationError, RankingError

QUERY = "covid outbreak"


@pytest.fixture(scope="module")
def ranker(shared_engine):
    return shared_engine.ranker


@pytest.fixture(scope="module")
def shared_engine():
    from repro.core.engine import CredenceEngine, EngineConfig
    from repro.datasets.covid import covid_corpus

    return CredenceEngine(covid_corpus(), EngineConfig(ranker="bm25", seed=5))


@pytest.fixture(scope="module")
def doc2vec_model(shared_engine):
    return shared_engine.doc2vec


class TestDoc2VecNearest:
    def test_explanations_are_non_relevant(self, ranker, doc2vec_model):
        explainer = Doc2VecNearestExplainer(ranker, doc2vec_model)
        result = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=3, k=10)
        top_k = set(ranker.rank(QUERY, 10).doc_ids)
        for explanation in result:
            assert explanation.counterfactual_doc_id not in top_k

    def test_near_copy_is_nearest(self, ranker, doc2vec_model):
        """Fig. 4: the near-copy lacking covid/outbreak is the top instance."""
        explainer = Doc2VecNearestExplainer(ranker, doc2vec_model)
        result = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=10)
        assert result[0].counterfactual_doc_id == NEAR_COPY_DOC_ID
        assert result[0].similarity > 0.5

    def test_similarities_sorted(self, ranker, doc2vec_model):
        explainer = Doc2VecNearestExplainer(ranker, doc2vec_model)
        result = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=5, k=10)
        similarities = [e.similarity for e in result]
        assert similarities == sorted(similarities, reverse=True)

    def test_method_tag_and_percent(self, ranker, doc2vec_model):
        explainer = Doc2VecNearestExplainer(ranker, doc2vec_model)
        explanation = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=10)[0]
        assert explanation.method == "doc2vec_nearest"
        assert explanation.similarity_percent == pytest.approx(
            100 * explanation.similarity, abs=0.05
        )

    def test_unranked_instance_rejected(self, ranker, doc2vec_model):
        explainer = Doc2VecNearestExplainer(ranker, doc2vec_model)
        with pytest.raises(RankingError):
            explainer.explain(QUERY, "markets-0002", n=1, k=10)


class TestCosineSampled:
    def test_explanations_are_non_relevant(self, ranker):
        explainer = CosineSampledExplainer(ranker, seed=5)
        result = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=3, k=10, samples=40)
        top_k = set(ranker.rank(QUERY, 10).doc_ids)
        for explanation in result:
            assert explanation.counterfactual_doc_id not in top_k

    def test_near_copy_found_with_full_sampling(self, ranker):
        explainer = CosineSampledExplainer(ranker, seed=5)
        # samples ≥ all non-relevant docs → deterministic, includes the copy.
        result = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=10, samples=500)
        assert result[0].counterfactual_doc_id == NEAR_COPY_DOC_ID

    def test_sample_count_bounds_evaluations(self, ranker):
        explainer = CosineSampledExplainer(ranker, seed=5)
        result = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=2, k=10, samples=7)
        assert result.candidates_evaluated == 7

    def test_sampling_deterministic_under_seed(self, ranker):
        a = CosineSampledExplainer(ranker, seed=9).explain(
            QUERY, FAKE_NEWS_DOC_ID, n=3, k=10, samples=10
        )
        b = CosineSampledExplainer(ranker, seed=9).explain(
            QUERY, FAKE_NEWS_DOC_ID, n=3, k=10, samples=10
        )
        assert [e.counterfactual_doc_id for e in a] == [
            e.counterfactual_doc_id for e in b
        ]

    def test_n_greater_than_samples_rejected(self, ranker):
        explainer = CosineSampledExplainer(ranker, seed=5)
        with pytest.raises(ConfigurationError):
            explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=10, k=10, samples=5)

    def test_tfidf_vectorizer_variant(self, ranker):
        """The paper: 'any similar collection statistic would suffice'."""
        explainer = CosineSampledExplainer(
            ranker, vectorizer=TfIdfVectorizer(ranker.index), seed=5
        )
        result = explainer.explain(QUERY, FAKE_NEWS_DOC_ID, n=1, k=10, samples=500)
        assert result[0].counterfactual_doc_id == NEAR_COPY_DOC_ID

    def test_method_tag(self, ranker):
        explainer = CosineSampledExplainer(ranker, seed=5)
        explanation = explainer.explain(
            QUERY, FAKE_NEWS_DOC_ID, n=1, k=10, samples=30
        )[0]
        assert explanation.method == "cosine_sampled"


def test_vector_memo_is_bounded(ranker, monkeypatch):
    from repro.core import instance_cf

    reference = CosineSampledExplainer(ranker, seed=5)
    monkeypatch.setattr(instance_cf, "VECTOR_CAPACITY", 8, raising=False)
    bounded = CosineSampledExplainer(ranker, seed=5)
    for samples in (40, 30):
        expected = reference.explain(
            QUERY, FAKE_NEWS_DOC_ID, n=3, k=10, samples=samples
        )
        result = bounded.explain(QUERY, FAKE_NEWS_DOC_ID, n=3, k=10, samples=samples)
        assert [e.to_dict() for e in result] == [e.to_dict() for e in expected]
    assert len(bounded._vectors.entries) <= 8
