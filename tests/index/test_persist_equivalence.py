"""Save→load equivalence: persistence must be invisible to results.

The acceptance contract of the persistence subsystem: ranks, scores,
and every explainer's full ``to_dict()`` payload are **byte-identical**
between a live engine and an engine reloaded from disk — across both
load modes (v3 packed attach, v3 hydrated), a bare ``InvertedIndex``
(saved as one segment), the default engine's one-shard corpus and a
four-shard corpus, the BM25 / TF-IDF / LM ranker families, and the LTR
feature ranker.
"""

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.index.inverted import InvertedIndex
from repro.index.sharding import ShardedIndex
from repro.index.storage import load_index, save_index
from repro.ltr.dataset import assign_priors, synthetic_letor_dataset
from repro.ltr.feature_cf import FeatureCounterfactualExplainer
from repro.ltr.models import LinearLtrModel
from repro.ltr.ranker import LtrRanker
from repro.ranking.rerank import candidate_pool
from tests.core.test_search_equivalence import _corpus
from tests.index.test_sharded_equivalence import (
    K,
    QUERY,
    STRATEGIES,
    _canonical,
)

LEXICAL_RANKERS = ("bm25", "tfidf", "lm")

#: (shards, load mode) — every persistence path a corpus can round-trip
#: through. ``shards=None`` is a bare InvertedIndex; ``shards=1`` is the
#: one-shard corpus a default engine builds.
ROUND_TRIPS = (
    (None, "auto"),
    (1, "auto"),
    (4, "auto"),
    (None, "memory"),
    (1, "memory"),
    (4, "memory"),
)

ROUND_TRIP_IDS = (
    "plain-v3-attach",
    "default-v3-attach",
    "sharded-v3-attach",
    "plain-v3-hydrate",
    "default-v3-hydrate",
    "sharded-v3-hydrate",
)


def _live_engine(ranker: str, shards: int | None) -> CredenceEngine:
    if shards is None:
        return CredenceEngine.from_index(
            InvertedIndex.from_documents(_corpus()),
            EngineConfig(ranker=ranker, seed=5),
        )
    return CredenceEngine(
        _corpus(), EngineConfig(ranker=ranker, seed=5, shards=shards)
    )


def _reloaded_engine(live: CredenceEngine, tmp_path, mode, ranker):
    path = tmp_path / "corpus.idx"
    save_index(live.index, path)
    return CredenceEngine.load(
        path, config=EngineConfig(ranker=ranker, seed=5), mode=mode
    )


@pytest.fixture(params=ROUND_TRIPS, ids=ROUND_TRIP_IDS)
def engine_pair(request, tmp_path_factory):
    shards, mode = request.param
    tmp_path = tmp_path_factory.mktemp("persist-eq")
    live = _live_engine("bm25", shards)
    return live, _reloaded_engine(live, tmp_path, mode, "bm25")


class TestRankingEquivalence:
    @pytest.mark.parametrize("ranker", LEXICAL_RANKERS)
    @pytest.mark.parametrize("shards,mode", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
    def test_topk_byte_identical(self, tmp_path, ranker, shards, mode):
        live = _live_engine(ranker, shards)
        reloaded = _reloaded_engine(live, tmp_path, mode, ranker)
        assert (
            reloaded.rank(QUERY, K).to_dicts()
            == live.rank(QUERY, K).to_dicts()
        )

    def test_full_corpus_scores_identical(self, engine_pair):
        live, reloaded = engine_pair
        k = len(_corpus())
        reference = live.rank(QUERY, k).to_dicts()
        assert reloaded.rank(QUERY, k).to_dicts() == reference


class TestExplainerEquivalence:
    @pytest.mark.parametrize(
        "strategy,knobs", STRATEGIES, ids=[name for name, _ in STRATEGIES]
    )
    def test_strategy_byte_identical(self, engine_pair, strategy, knobs):
        live, reloaded = engine_pair
        target = live.rank(QUERY, K).doc_ids[0]
        request = ExplainRequest(QUERY, target, strategy=strategy, k=K, **knobs)
        reference = _canonical(live.explain(request).result.to_dict())
        assert (
            _canonical(reloaded.explain(request).result.to_dict())
            == reference
        )


class TestLtrEquivalence:
    """The sixth strategy (features/ltr) over live vs. reloaded corpora."""

    @pytest.fixture(scope="class")
    def ltr_setup(self):
        corpus = assign_priors(_corpus(), seed=7)
        examples = synthetic_letor_dataset(
            corpus, [QUERY, "markets earnings report"], seed=11
        )
        model = LinearLtrModel.fit(examples)
        return corpus, model

    def _explain(self, index, model):
        ranker = LtrRanker(index, model)
        explainer = FeatureCounterfactualExplainer(ranker)
        target = candidate_pool(ranker, QUERY, K)[0].doc_id
        ranking = ranker.rank(QUERY, K).to_dicts()
        result = explainer.explain(QUERY, target, n=2, k=K)
        return ranking, _canonical(result.to_dict())

    @pytest.mark.parametrize("shards,mode", ROUND_TRIPS, ids=ROUND_TRIP_IDS)
    def test_feature_cf_byte_identical(self, ltr_setup, tmp_path, shards, mode):
        corpus, model = ltr_setup
        # LTR priors ride in document metadata, so build the live index
        # over the prior-annotated corpus before persisting it.
        if shards:
            index = ShardedIndex.from_documents(corpus, shards)
        else:
            index = InvertedIndex.from_documents(corpus)
        path = tmp_path / "ltr.idx"
        save_index(index, path)
        reloaded = load_index(path, mode=mode)
        assert self._explain(reloaded, model) == self._explain(index, model)


class TestResultStoreKeys:
    """``index.version`` survives save→load, so ResultStore keys do."""

    @pytest.mark.parametrize("shards", [None, 4], ids=["plain", "sharded"])
    def test_version_stable_across_processes(self, tmp_path, shards):
        live = _live_engine("bm25", shards)
        path = tmp_path / "corpus.idx"
        save_index(live.index, path)
        first = load_index(path)
        second = load_index(path)
        try:
            # Two independent attaches (≈ two replica processes) agree.
            assert first.version == second.version
        finally:
            first.close()
            second.close()

    def test_cached_explanations_replayable_after_restart(self, tmp_path):
        live = _live_engine("bm25", None)
        path = tmp_path / "corpus.idx"
        save_index(live.index, path)
        restarted = CredenceEngine.load(
            path, config=EngineConfig(ranker="bm25", seed=5)
        )
        request = ExplainRequest(
            QUERY,
            live.rank(QUERY, K).doc_ids[0],
            strategy="document/sentence-removal",
            k=K,
        )
        live.service().explain(request)
        before = live.service().metrics_snapshot()
        assert before["store"]["entries"] == 1
        # Same request on the restarted engine: the store key embeds
        # index.version, which the v3 fingerprint keeps stable, so the
        # second call is answered from the restarted engine's store.
        restarted.service().explain(request)
        restarted.service().explain(request)
        after = restarted.service().metrics_snapshot()
        assert after["store"]["hits"] == 1
        assert after["store"]["entries"] == 1
