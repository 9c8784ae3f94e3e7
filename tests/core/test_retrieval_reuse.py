"""Explanations reuse the ranking they explain.

The UI ranks a query, then explains documents of that ranking; every
explainer and the Builder re-rank the top k+1 of the same query.
``IndexSearcher`` remembers each retrieval per query and index version,
keeping one hit more than asked for, so ``engine.rank(q, k)`` followed
by any number of explanations of its hits scores the corpus once.
These guards count ``IndexSearcher.score_all`` calls on a bare index, a
3-shard live index and a packed attach, with bm25 and with the
Dirichlet LM.
"""

from __future__ import annotations

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.datasets.covid import FAKE_NEWS_DOC_ID, covid_corpus
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexSearcher
from repro.index.sharding import ShardedIndex
from repro.index.storage import load_index, save_index

QUERY = "covid outbreak"
K = 10
BACKENDS = ("inverted", "sharded-3", "packed")
RANKERS = ("bm25", "lm")
FRESH = Document(
    "fresh-1", "A covid outbreak report. The outbreak reached the port city."
)


@pytest.fixture(scope="module")
def documents():
    return covid_corpus()


@pytest.fixture()
def score_calls(monkeypatch):
    """Queries scored by any ``IndexSearcher.score_all``, in call order."""
    calls = []
    original = IndexSearcher.score_all

    def score_all(self, query):
        calls.append(query)
        return original(self, query)

    monkeypatch.setattr(IndexSearcher, "score_all", score_all)
    return calls


def _engine(backend, ranker, documents, tmp_path):
    if backend == "inverted":
        index = InvertedIndex.from_documents(documents)
    elif backend == "sharded-3":
        index = ShardedIndex.from_documents(documents, 3)
    else:
        path = tmp_path / "corpus.idx"
        save_index(ShardedIndex.from_documents(documents, 3), path)
        index = load_index(path)
    config = EngineConfig(ranker=ranker, doc2vec_epochs=2, seed=5)
    return CredenceEngine.from_index(index, config)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture(params=RANKERS)
def engine(request, backend, documents, tmp_path):
    engine = _engine(backend, request.param, documents, tmp_path)
    yield engine
    close = getattr(engine.index, "close", None)
    if close is not None:
        close()


def _explain_everything(engine, doc_id):
    """One explain per available strategy, then one Builder edit."""
    for strategy in engine.available_strategies():
        engine.explain(ExplainRequest(QUERY, doc_id, strategy=strategy, k=K))
    engine.build_counterfactual(
        QUERY, doc_id, edited_body="The port city held a briefing.", k=K
    )


def test_rank_then_every_explanation_scores_once(engine, score_calls):
    ranking = engine.rank(QUERY, K)
    assert FAKE_NEWS_DOC_ID in ranking
    _explain_everything(engine, FAKE_NEWS_DOC_ID)
    assert len(engine.available_strategies()) == 5
    assert score_calls == [QUERY]


@pytest.mark.parametrize("backend", ("inverted", "sharded-3"))
def test_a_write_between_rank_and_explain_scores_once_more(engine, score_calls):
    doc_id = engine.rank(QUERY, K).doc_ids[1]
    engine.add_documents([FRESH])
    engine.explain(ExplainRequest(QUERY, doc_id, k=K))
    assert score_calls == [QUERY, QUERY]
    _explain_everything(engine, doc_id)
    assert FRESH.doc_id in engine.rank(QUERY, K)
    assert score_calls == [QUERY, QUERY]


def test_a_deeper_rank_scores_again_and_extends_the_ranking(engine, score_calls):
    top = engine.rank(QUERY, K)
    deeper = engine.rank(QUERY, 50)
    assert score_calls == [QUERY, QUERY]
    assert len(deeper) > K + 1
    assert deeper.to_dicts()[:K] == top.to_dicts()
    # The deeper retrieval was not stored over the first: a k+1 pool
    # is still served from it.
    engine.rank(QUERY, K + 1)
    assert score_calls == [QUERY, QUERY]
