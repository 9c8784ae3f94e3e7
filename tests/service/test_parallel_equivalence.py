"""Acceptance: parallel execution is byte-identical to the sequential path.

Runs the same request workload through sequential ``explain_batch``,
``explain_batch(workers=4)``, and the async job path, and compares the
serialised payloads byte-for-byte (modulo wall-clock timing, which is
measurement, not result). The workload repeats requests so the parallel
paths also exercise the result store — cached responses must be the
same bytes too.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.core.search import SEARCH_STRATEGIES
from repro.datasets.covid import DEMO_QUERY, FAKE_NEWS_DOC_ID, covid_corpus
from tests.core.test_search_equivalence import _corpus
from tests.index.test_sharded_equivalence import (
    K,
    LEXICAL_RANKERS,
    QUERY,
    STRATEGIES,
)

requires_process_tier = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-tier tests need the fork start method",
)


def _strip_timing(payload: dict) -> dict:
    cleaned = dict(payload)
    cleaned.pop("elapsed_seconds", None)
    return cleaned


def _canonical(responses) -> list[str]:
    return [
        json.dumps(_strip_timing(response.to_dict()), sort_keys=True)
        for response in responses
    ]


def _workload(doc_ids: list[str]) -> list[ExplainRequest]:
    requests = []
    for doc_id in doc_ids:
        requests.append(ExplainRequest(DEMO_QUERY, doc_id, k=10))
        requests.append(
            ExplainRequest(
                DEMO_QUERY,
                doc_id,
                strategy="query/augmentation",
                n=2,
                k=10,
                threshold=2,
            )
        )
        requests.append(
            ExplainRequest(DEMO_QUERY, doc_id, strategy="document/greedy", k=10)
        )
    # repeats: the parallel path answers these from the result store
    return requests + requests[: len(requests) // 2]


@pytest.fixture(scope="module")
def fresh_engine():
    def build() -> CredenceEngine:
        return CredenceEngine(
            covid_corpus(), EngineConfig(ranker="bm25", seed=5)
        )

    return build


@pytest.fixture(scope="module")
def doc_ids(fresh_engine) -> list[str]:
    ranking = fresh_engine().rank(DEMO_QUERY, 10)
    ids = [entry.doc_id for entry in ranking][:3]
    assert FAKE_NEWS_DOC_ID in set(
        entry.doc_id for entry in ranking
    )
    return ids


class TestParallelEquivalence:
    def test_parallel_batch_matches_sequential(self, fresh_engine, doc_ids):
        requests = _workload(doc_ids)
        sequential = fresh_engine().explain_batch(requests)
        parallel_engine = fresh_engine()
        try:
            parallel = parallel_engine.explain_batch(requests, workers=4)
        finally:
            parallel_engine.service().shutdown()
        assert _canonical(parallel) == _canonical(sequential)

    def test_job_results_match_sequential(self, fresh_engine, doc_ids):
        requests = _workload(doc_ids)
        sequential = fresh_engine().explain_batch(requests)
        engine = fresh_engine()
        service = engine.service(workers=4)
        try:
            job = service.submit(requests)
            assert job.wait(timeout=120)
            assert _canonical(job.responses) == _canonical(sequential)
            assert service.store.hits > 0  # the repeats hit the cache
        finally:
            service.shutdown()

    def test_error_items_match_sequential(self, fresh_engine):
        requests = [
            ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID, k=10),
            ExplainRequest(DEMO_QUERY, "no-such-document", k=10),
            ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID, k=10, n=2),
        ]
        sequential = fresh_engine().explain_batch(requests)
        engine = fresh_engine()
        try:
            parallel = engine.explain_batch(requests, workers=2)
        finally:
            engine.service().shutdown()
        assert _canonical(parallel) == _canonical(sequential)

    def test_workers_one_uses_the_service_pool(self, fresh_engine, doc_ids):
        """``workers=1`` is a one-worker pool, not the sequential loop."""
        requests = _workload(doc_ids)[:4]
        engine = fresh_engine()
        try:
            responses = engine.explain_batch(requests, workers=1)
            assert engine._service is not None  # the pool really ran
            assert engine.service().metrics.counter("jobs_submitted") == 1
            assert _canonical(responses) == _canonical(
                fresh_engine().explain_batch(requests)
            )
        finally:
            engine.service().shutdown()

    def test_sequential_path_when_no_fan_out_is_named(
        self, fresh_engine, doc_ids
    ):
        requests = _workload(doc_ids)[:3]
        engine = fresh_engine()
        baseline = engine.explain_batch(requests)
        assert _canonical(
            engine.explain_batch(requests, workers=None, executor=None)
        ) == _canonical(baseline)
        assert engine._service is None  # the sequential loop built no service

    def test_executor_thread_engages_pool_without_workers(
        self, fresh_engine, doc_ids
    ):
        """``executor="thread"`` alone opts into the worker pool — it
        must not silently run sequential just because workers is unset."""
        requests = _workload(doc_ids)[:4]
        engine = fresh_engine()
        try:
            responses = engine.explain_batch(requests, executor="thread")
            assert engine._service is not None
            assert engine.service().metrics.counter("jobs_submitted") == 1
            assert _canonical(responses) == _canonical(
                fresh_engine().explain_batch(requests)
            )
        finally:
            engine.service().shutdown()

    def test_invalid_executor_rejected(self, fresh_engine):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fresh_engine().explain_batch(
                [ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID, k=10)],
                executor="gpu",
            )


def _tier_sweep() -> list[ExplainRequest]:
    """Every explainer × every search strategy (where search applies).

    The instance strategies do not route through the search kernel, so
    they run once each; the kernel-backed document/query strategies run
    once per search strategy.
    """
    requests = []
    for strategy, knobs in STRATEGIES:
        searches = (
            SEARCH_STRATEGIES
            if strategy.startswith(("document/", "query/"))
            else (None,)
        )
        for search in searches:
            requests.append(
                ExplainRequest(
                    QUERY, "__target__", strategy=strategy, k=K,
                    search=search, **knobs,
                )
            )
    return requests


@requires_process_tier
class TestProcessTierEquivalence:
    """Acceptance: the process tier is byte-identical to sequential
    across all rankers × explainers × search strategies.

    Worker processes rebuild the ranker from ``EngineConfig`` and attach
    a v3 snapshot of the index, so any nondeterminism in snapshotting,
    ranker reconstruction, or payload serialisation shows up here as a
    byte diff.
    """

    @pytest.fixture(scope="class", params=LEXICAL_RANKERS)
    def tier_results(self, request):
        ranker = request.param

        def build() -> CredenceEngine:
            return CredenceEngine(
                _corpus(), EngineConfig(ranker=ranker, seed=5)
            )

        target = build().rank(QUERY, K).doc_ids[0]
        requests = [
            ExplainRequest(
                QUERY,
                target,
                strategy=item.strategy,
                k=item.k,
                n=item.n,
                threshold=item.threshold,
                samples=item.samples,
                search=item.search,
            )
            for item in _tier_sweep()
        ]
        sequential = build().explain_batch(requests)
        process_engine = build()
        try:
            process = process_engine.explain_batch(
                requests, workers=2, executor="process"
            )
        finally:
            process_engine.service().shutdown()
        return sequential, process

    def test_process_results_byte_identical(self, tier_results):
        sequential, process = tier_results
        assert _canonical(process) == _canonical(sequential)

    def test_sweep_covers_every_strategy_and_search(self):
        sweep = _tier_sweep()
        assert {r.strategy for r in sweep} == {name for name, _ in STRATEGIES}
        kernel = [r for r in sweep if r.strategy.startswith(("document/", "query/"))]
        assert {r.search for r in kernel} == set(SEARCH_STRATEGIES)

    def test_neural_ranker_byte_identical(self):
        """The trained ranker family: workers must retrain the MLP from
        the config's training queries to the same weights (seeded)."""
        training = (QUERY, "markets earnings report")

        def build() -> CredenceEngine:
            return CredenceEngine(
                _corpus(),
                EngineConfig(ranker="neural", training_queries=training, seed=5),
            )

        target = build().rank(QUERY, K).doc_ids[0]
        requests = [
            ExplainRequest(QUERY, target, strategy="document/greedy", k=K),
            ExplainRequest(QUERY, target, strategy="query/augmentation", n=2, k=K),
        ]
        sequential = build().explain_batch(requests)
        engine = build()
        try:
            process = engine.explain_batch(requests, executor="process")
        finally:
            engine.service().shutdown()
        assert _canonical(process) == _canonical(sequential)

    def test_error_envelopes_byte_identical(self, fresh_engine):
        requests = [
            ExplainRequest(DEMO_QUERY, "no-such-document", k=10),
            ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID, k=10),
        ]
        sequential = fresh_engine().explain_batch(requests)
        engine = fresh_engine()
        try:
            process = engine.explain_batch(requests, executor="process")
        finally:
            engine.service().shutdown()
        assert _canonical(process) == _canonical(sequential)

    def test_explicit_ranker_refused(self):
        """An explicitly-passed ranker object cannot be rebuilt from
        config in a worker process — the tier refuses loudly instead of
        silently computing with a different ranker."""
        from repro.errors import ConfigurationError
        from repro.ranking.bm25 import Bm25Ranker

        documents = _corpus()
        engine = CredenceEngine(
            documents, EngineConfig(ranker="bm25", seed=5)
        )
        explicit = CredenceEngine(
            documents,
            EngineConfig(ranker="bm25", seed=5),
            ranker=Bm25Ranker(engine.index),
        )
        try:
            with pytest.raises(ConfigurationError, match="explicit"):
                explicit.explain_batch(
                    [ExplainRequest(QUERY, documents[0].doc_id, k=K)],
                    executor="process",
                )
        finally:
            explicit.service().shutdown()
