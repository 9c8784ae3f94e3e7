"""Scoring sessions must be indistinguishable from naive re-ranking.

The incremental :class:`ScoringSession` layer re-scores only the
perturbed document per candidate. These tests pin the contract that
makes that safe: for every built-in ranker (BM25, TF-IDF, the dense
Dirichlet LM path, neural, LTR) and the cache/pipeline wrappers, the
session produces byte-identical ranks, near-identical scores, and
identical explanation sets versus the pre-session naive path (a full
``rank_candidates`` pass per candidate), which is still reachable
through the generic fallback used for third-party rankers.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.document_cf import CounterfactualDocumentExplainer
from repro.core.greedy import GreedyDocumentExplainer
from repro.core.query_cf import CounterfactualQueryExplainer
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.ltr.dataset import assign_priors, synthetic_letor_dataset
from repro.ltr.models import LinearLtrModel
from repro.ltr.ranker import LtrRanker
from repro.ranking.base import Ranker
from repro.ranking.bm25 import Bm25Ranker
from repro.ranking.cache import ScoreCache
from repro.ranking.lm import DirichletLmRanker
from repro.ranking.neural import train_neural_ranker
from repro.ranking.pipeline import RetrieveRerankPipeline
from repro.ranking.rerank import candidate_pool
from repro.ranking.session import IncrementalScoringSession, NaiveScoringSession
from repro.ranking.tfidf import TfIdfRanker
from repro.text.sentences import split_sentences

QUERY = "covid outbreak hospital"
K = 5

_TOPICS = [
    "covid outbreak strained the hospital wards",
    "the city council debated transit funding",
    "researchers tracked the covid variant spread",
    "the festival drew record crowds downtown",
    "hospital staff reported outbreak fatigue",
    "markets rallied after the earnings report",
]

_FILLER = [
    "Volunteers repainted the riverside benches.",
    "A bakery introduced a rye sourdough loaf.",
    "The library catalogued donated manuscripts.",
    "Engineers surveyed the old tram bridge.",
    "Gardeners planted drought-resistant shrubs.",
]


def _corpus() -> list[Document]:
    documents = []
    for i in range(24):
        lead = _TOPICS[i % len(_TOPICS)]
        body = ". ".join(
            [
                f"{lead.capitalize()} in district {i}",
                _FILLER[i % len(_FILLER)].rstrip("."),
                f"{_TOPICS[(i + 2) % len(_TOPICS)].capitalize()} again",
                _FILLER[(i + 3) % len(_FILLER)].rstrip("."),
                f"Observers noted item {i} in the evening report",
            ]
        ) + "."
        documents.append(Document(f"doc-{i:02d}", body))
    return documents


class OpaqueRanker(Ranker):
    """A delegating wrapper that hides the inner ranker's session.

    Because it does not override ``scoring_session``, explainers driving
    it take the generic :class:`NaiveScoringSession` fallback — i.e. the
    exact pre-session code path — making it the reference behaviour any
    incremental session must reproduce.
    """

    def __init__(self, inner: Ranker):
        super().__init__(inner.index)
        self.inner = inner

    def rank(self, query, k):
        return self.inner.rank(query, k)

    def score_text(self, query, body):
        return self.inner.score_text(query, body)

    def rank_candidates(self, query, candidates):
        return self.inner.rank_candidates(query, candidates)


@pytest.fixture(scope="module")
def index():
    return InvertedIndex.from_documents(_corpus())


@pytest.fixture(scope="module")
def neural(index):
    return train_neural_ranker(
        index,
        [QUERY, "transit funding council", "festival crowds"],
        epochs=6,
        seed=5,
    )


@pytest.fixture(scope="module")
def rankers(index, neural):
    ltr_corpus = assign_priors(_corpus(), seed=7)
    ltr_index = InvertedIndex.from_documents(ltr_corpus)
    examples = synthetic_letor_dataset(
        ltr_corpus, [QUERY, "markets earnings report"], seed=11
    )
    return {
        "bm25": Bm25Ranker(index),
        "tfidf": TfIdfRanker(index),
        "lm": DirichletLmRanker(index),
        "neural": neural,
        "ltr": LtrRanker(ltr_index, LinearLtrModel.fit(examples)),
        "cached": ScoreCache(Bm25Ranker(index)),
        "pipeline": RetrieveRerankPipeline(Bm25Ranker(index), neural, depth=10),
    }


RANKER_NAMES = ("bm25", "tfidf", "lm", "neural", "ltr", "cached", "pipeline")


def _pool(ranker):
    return candidate_pool(ranker, QUERY, K)


def _naive_substituted(ranker, pool, doc_id, body):
    substituted = [
        document.with_body(body) if document.doc_id == doc_id else document
        for document in pool
    ]
    return ranker.rank_candidates(QUERY, substituted)


CANDIDATES = 7


def _scorings_after(ranker):
    """(pool, physical scorings) after a baseline and ``CANDIDATES``
    sentence removals in one session."""
    pool = _pool(ranker)
    session = ranker.scoring_session(QUERY, pool)
    session.baseline()
    for i in range(CANDIDATES):
        session.rank_without_sentences(pool[0].doc_id, {i % 3})
    return pool, session.physical_scorings


def _assert_rankings_match(session_ranking, naive_ranking):
    assert [e.doc_id for e in session_ranking] == [
        e.doc_id for e in naive_ranking
    ]
    assert [e.rank for e in session_ranking] == [e.rank for e in naive_ranking]
    for ours, theirs in zip(session_ranking, naive_ranking):
        assert ours.score == pytest.approx(theirs.score, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", RANKER_NAMES)
class TestSessionEquivalence:
    def test_baseline_matches_rank_candidates(self, rankers, name):
        ranker = rankers[name]
        pool = _pool(ranker)
        session = ranker.scoring_session(QUERY, pool)
        _assert_rankings_match(
            session.baseline(), ranker.rank_candidates(QUERY, pool)
        )

    def test_substitution_matches_naive(self, rankers, name):
        ranker = rankers[name]
        pool = _pool(ranker)
        session = ranker.scoring_session(QUERY, pool)
        bodies = [
            "Entirely unrelated gardening notes. Nothing topical here.",
            "Covid outbreak overwhelmed the hospital. Covid outbreak again.",
            pool[0].body,  # unchanged text must keep its rank
            "",  # degenerate: empty document
        ]
        for document, body in itertools.product(pool, bodies):
            naive = _naive_substituted(ranker, pool, document.doc_id, body)
            assert (
                session.rank_with_substitution(document.doc_id, body)
                == naive.rank_of(document.doc_id)
            ), (name, document.doc_id, body[:30])
            _assert_rankings_match(
                session.ranking_with_substitution(document.doc_id, body), naive
            )

    def test_sentence_removal_matches_naive(self, rankers, name):
        ranker = rankers[name]
        pool = _pool(ranker)
        session = ranker.scoring_session(QUERY, pool)
        target = pool[0]
        sentences = split_sentences(target.body)
        assert len(sentences) > 2
        removals = [
            set(combo)
            for size in (1, 2)
            for combo in itertools.combinations(range(len(sentences)), size)
        ]
        for removed in removals:
            survivors = " ".join(
                s.text for s in sentences if s.index not in removed
            )
            naive = _naive_substituted(ranker, pool, target.doc_id, survivors)
            assert (
                session.rank_without_sentences(target.doc_id, removed)
                == naive.rank_of(target.doc_id)
            ), (name, removed)

    def test_physical_scorings_are_incremental(self, rankers, name):
        # Every built-in ranker scores the pool once, then one document
        # per candidate; a fallback to naive re-ranking fails here.
        pool, scorings = _scorings_after(rankers[name])
        assert scorings == len(pool) + CANDIDATES


class TestWrapperSessions:
    def test_score_cache_keeps_caching_for_opaque_inner(self, index):
        cached = ScoreCache(OpaqueRanker(Bm25Ranker(index)))
        pool = _pool(cached)
        session = cached.scoring_session(QUERY, pool)
        assert isinstance(session, NaiveScoringSession)
        assert session.ranker is cached  # pool re-scorings hit the cache
        session.baseline()
        session.rank_with_substitution(pool[0].doc_id, "covid outbreak note")
        assert cached.hits > 0

    def test_score_cache_delegates_incremental_sessions(self, index):
        cached = ScoreCache(Bm25Ranker(index))
        session = cached.scoring_session(QUERY, _pool(cached))
        assert isinstance(session, IncrementalScoringSession)

    def test_opaque_ranker_rescores_the_pool_per_candidate(self, index):
        # The naive fallback's count: the whole pool for the baseline
        # and again for every candidate.
        pool, scorings = _scorings_after(OpaqueRanker(Bm25Ranker(index)))
        assert scorings == len(pool) * (1 + CANDIDATES)


class TestSubstitutionMetadata:
    def test_replacement_with_new_metadata_is_honoured(self, rankers):
        from repro.ranking.rerank import rank_with_substitution

        ranker = rankers["ltr"]
        pool = _pool(ranker)
        original = pool[0]
        replacement = Document(
            original.doc_id,
            original.body,
            original.title,
            {**dict(original.metadata), "popularity": 0.0, "authority": 0.0},
        )
        via_function = rank_with_substitution(ranker, QUERY, pool, replacement)
        naive = ranker.rank_candidates(
            QUERY,
            [replacement if d.doc_id == original.doc_id else d for d in pool],
        )
        _assert_rankings_match(via_function, naive)


def _result_fingerprint(result):
    payload = result.to_dict()
    payload.pop("physical_scorings")  # the one field sessions improve
    return payload


@pytest.mark.parametrize("name", RANKER_NAMES)
class TestExplainerParity:
    """Explanation outputs must be identical to the pre-session path."""

    def test_document_cf(self, rankers, name):
        ranker = rankers[name]
        target = _pool(ranker)[0].doc_id
        fast = CounterfactualDocumentExplainer(ranker, max_evaluations=200)
        naive = CounterfactualDocumentExplainer(
            OpaqueRanker(ranker), max_evaluations=200
        )
        assert _result_fingerprint(
            fast.explain(QUERY, target, n=2, k=K)
        ) == _result_fingerprint(naive.explain(QUERY, target, n=2, k=K))

    def test_greedy(self, rankers, name):
        ranker = rankers[name]
        target = _pool(ranker)[0].doc_id
        fast = GreedyDocumentExplainer(ranker)
        naive = GreedyDocumentExplainer(OpaqueRanker(ranker))
        assert _result_fingerprint(
            fast.explain(QUERY, target, k=K)
        ) == _result_fingerprint(naive.explain(QUERY, target, k=K))

    def test_query_cf(self, rankers, name):
        ranker = rankers[name]
        ranking = ranker.rank(QUERY, K)
        target = ranking.doc_ids[-1]
        fast = CounterfactualQueryExplainer(ranker, max_evaluations=300)
        naive = CounterfactualQueryExplainer(
            OpaqueRanker(ranker), max_evaluations=300
        )
        fast_result = fast.explain(QUERY, target, n=1, k=K, threshold=1)
        naive_result = naive.explain(QUERY, target, n=1, k=K, threshold=1)
        assert _result_fingerprint(fast_result) == _result_fingerprint(
            naive_result
        )

    def test_validity_check_agrees(self, rankers, name):
        ranker = rankers[name]
        target = _pool(ranker)[0].doc_id
        fast = CounterfactualDocumentExplainer(ranker)
        naive = CounterfactualDocumentExplainer(OpaqueRanker(ranker))
        sentences = split_sentences(
            ranker.index.document(target).body
            if target in ranker.index
            else _pool(ranker)[0].body
        )
        for removed in ({0}, {0, 1}, {1, 2}):
            assert fast.is_valid(QUERY, target, removed, k=K) == naive.is_valid(
                QUERY, target, removed, k=K
            )
