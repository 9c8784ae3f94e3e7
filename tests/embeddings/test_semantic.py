"""Tests for the word2vec semantic channel."""

import pytest

from repro.embeddings.semantic import Word2VecSemanticScorer


@pytest.fixture(scope="module")
def scorer(module_index):
    return Word2VecSemanticScorer.train(module_index, dimension=24, epochs=10, seed=4)


@pytest.fixture(scope="module")
def module_index():
    from repro.datasets.covid import covid_corpus
    from repro.index.inverted import InvertedIndex

    return InvertedIndex.from_documents(covid_corpus())


class TestSemanticScorer:
    def test_scores_in_cosine_range(self, scorer):
        score = scorer("covid outbreak", "the covid outbreak spread")
        assert -1.0 <= score <= 1.0

    def test_topical_text_scores_higher(self, scorer):
        on_topic = scorer("covid outbreak", "hospitals treating covid patients")
        off_topic = scorer("covid outbreak", "the championship match was played")
        assert on_topic > off_topic

    def test_unknown_terms_score_zero(self, scorer):
        assert scorer("qqqq zzzz", "xxxx wwww") == 0.0

    def test_query_vector_cached(self, scorer):
        scorer("covid outbreak", "text one")
        assert "covid outbreak" in scorer._query_cache

    def test_engine_integration(self):
        """The semantic channel threads into the neural pipeline config."""
        from repro.core.engine import CredenceEngine, EngineConfig
        from repro.datasets.covid import covid_corpus, covid_training_queries

        engine = CredenceEngine(
            covid_corpus(filler_size=10),
            EngineConfig(
                ranker="neural",
                training_queries=tuple(covid_training_queries()),
                use_semantic_channel=True,
                neural_epochs=3,
                seed=9,
            ),
        )
        ranking = engine.rank("covid outbreak", k=5)
        assert len(ranking) == 5


def test_query_memo_is_bounded(scorer, module_index, monkeypatch):
    from repro.embeddings import semantic

    monkeypatch.setattr(semantic, "QUERY_CAPACITY", 2, raising=False)
    bounded = Word2VecSemanticScorer(module_index, scorer.model)
    queries = ["covid outbreak", "vaccine trial", "flu season", "5g towers"]
    body = "hospitals treating covid patients after the outbreak"
    for query in queries * 2:
        assert bounded(query, body) == scorer(query, body)
    assert len(bounded._query_cache.entries) <= 2
