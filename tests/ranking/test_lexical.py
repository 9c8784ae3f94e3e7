"""Tests shared across lexical rankers (BM25 / TF-IDF / Dirichlet LM)."""

import pytest

from repro.errors import RankingError
from repro.ranking.bm25 import Bm25Ranker
from repro.ranking.lm import DirichletLmRanker
from repro.ranking.tfidf import TfIdfRanker

RANKER_TYPES = [Bm25Ranker, TfIdfRanker, DirichletLmRanker]


@pytest.fixture(params=RANKER_TYPES, ids=lambda t: t.__name__)
def ranker(request, tiny_index):
    return request.param(tiny_index)


class TestLexicalRankers:
    def test_rank_returns_valid_ranking(self, ranker):
        ranking = ranker.rank("covid outbreak", k=4)
        assert [e.rank for e in ranking] == list(range(1, len(ranking) + 1))

    def test_query_matching_docs_on_top(self, ranker):
        ranking = ranker.rank("microchip", k=3)
        assert ranking[0].doc_id == "d5"

    def test_score_text_matches_indexed_scoring(self, ranker, tiny_docs):
        # Scoring the document's own body must reproduce its ranked score.
        ranking = ranker.rank("covid outbreak", k=6)
        for entry in ranking:
            body = next(d.body for d in tiny_docs if d.doc_id == entry.doc_id)
            assert ranker.score_text("covid outbreak", body) == pytest.approx(
                entry.score, abs=1e-9
            )

    def test_score_text_accepts_unindexed_text(self, ranker):
        score = ranker.score_text("covid outbreak", "a fresh covid outbreak report")
        assert isinstance(score, float)

    def test_empty_query_scores_zero(self, ranker):
        assert ranker.score_text("", "covid text") == 0.0

    def test_rank_candidates_orders_by_score_text(self, ranker, tiny_docs):
        ranking = ranker.rank_candidates("covid outbreak", tiny_docs)
        scores = [ranker.score_text("covid outbreak", d.body) for d in tiny_docs]
        expected_best = tiny_docs[scores.index(max(scores))].doc_id
        assert ranking[0].doc_id == expected_best

    def test_rank_candidates_empty_rejected(self, ranker):
        with pytest.raises(RankingError):
            ranker.rank_candidates("covid", [])

    def test_removing_query_terms_lowers_score(self, ranker, tiny_docs):
        original = tiny_docs[0].body
        gutted = original.replace("covid", "").replace("outbreak", "")
        assert ranker.score_text("covid outbreak", gutted) < ranker.score_text(
            "covid outbreak", original
        )


class TestRankerNames:
    def test_bm25_name_includes_parameters(self, tiny_index):
        assert "k1=0.9" in Bm25Ranker(tiny_index).name

    def test_lm_name_includes_mu(self, tiny_index):
        assert "mu=1000" in DirichletLmRanker(tiny_index).name


def test_term_statistics_stay_bounded_on_a_packed_engine(
    covid_documents, tmp_path, monkeypatch
):
    from repro.core.engine import CredenceEngine, EngineConfig
    from repro.index import similarity
    from repro.index.sharding import ShardedIndex
    from repro.index.storage import save_index

    path = tmp_path / "corpus.idx"
    save_index(ShardedIndex.from_documents(covid_documents, 2), path)
    config = EngineConfig(ranker="bm25", seed=5)
    reference = CredenceEngine.load(path, config)
    monkeypatch.setattr(similarity, "TERM_STATS_CAPACITY", 4, raising=False)
    bounded = CredenceEngine.load(path, config)
    body = "Officials said the covid outbreak filled hospitals across the city."
    try:
        for query in [
            "covid outbreak", "vaccine trial", "flu season", "5g towers",
            "stock markets", "hospital patients",
        ] * 2:
            assert list(bounded.rank(query, 10)) == list(reference.rank(query, 10))
            assert bounded.ranker.score_text(query, body) == (
                reference.ranker.score_text(query, body)
            )
        view = bounded.ranker.inner.collection_view()
        assert len(view._terms.entries) <= 4
    finally:
        reference.index.close()
        bounded.index.close()
