"""ExplanationService tests: job lifecycle, cancellation, failure
isolation, store-backed execution, and invalidation on index mutation.

Mechanics that need precise control over timing (cancellation mid-batch,
unexpected exceptions) run against a stub engine; everything else runs
against a real BM25 engine over the tiny corpus.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest, ExplainResponse
from repro.errors import ConfigurationError, JobNotFoundError, RankingError
from repro.index.document import Document
from repro.service.jobs import JobStatus
from repro.service.scheduler import ExplanationService
from repro.text.analyzer import default_analyzer


def _request(doc_id: str = "d5", **overrides) -> ExplainRequest:
    fields = {"query": "covid outbreak", "doc_id": doc_id, "k": 5}
    fields.update(overrides)
    return ExplainRequest(**fields)


class _StubIndex:
    def __init__(self):
        self.version = 0
        self.analyzer = default_analyzer()


class _StubRanker:
    name = "Stub"


class StubEngine:
    """Just enough engine surface for the scheduler: index.version,
    index.analyzer (for the metrics snapshot), ranker.name, and a
    controllable explain()."""

    def __init__(self, explain=None):
        self.index = _StubIndex()
        self.ranker = _StubRanker()
        self._explain = explain

    def explain(self, request: ExplainRequest) -> ExplainResponse:
        if self._explain is not None:
            return self._explain(request)
        return ExplainResponse(
            strategy=request.strategy,
            query=request.query,
            doc_id=request.doc_id,
        )


@pytest.fixture()
def engine(tiny_docs) -> CredenceEngine:
    return CredenceEngine(tiny_docs, EngineConfig(ranker="bm25", seed=5))


@pytest.fixture()
def service(engine) -> ExplanationService:
    with engine.service(workers=2) as built:
        yield built


class TestJobLifecycle:
    def test_submit_progress_result(self, service):
        job = service.submit([_request(), _request(strategy="document/greedy")])
        assert job.wait(timeout=30)
        assert job.status is JobStatus.DONE
        assert job.items_done == 2
        assert all(response.ok for response in job.responses)
        assert service.job(job.job_id) is job
        assert service.metrics.counter("jobs_completed") == 1

    def test_single_request_submission(self, service):
        job = service.submit(_request())
        assert job.wait(timeout=30)
        assert job.items_total == 1
        assert job.status is JobStatus.DONE

    def test_unknown_job_id_raises(self, service):
        with pytest.raises(JobNotFoundError):
            service.job("job-999")

    def test_failure_isolation(self, service):
        """One bad item fails that item, not the job (same contract as
        sequential explain_batch)."""
        job = service.submit(
            [_request(), _request(doc_id="absent"), _request(n=2)]
        )
        assert job.wait(timeout=30)
        assert job.status is JobStatus.DONE
        ok, bad, ok2 = job.responses
        assert ok.ok and ok2.ok
        assert not bad.ok
        assert "absent" in bad.error
        assert service.metrics.counter("items_failed") == 1

    def test_unexpected_exception_marks_job_failed(self):
        def explode(request):
            if request.doc_id == "boom":
                raise RuntimeError("not a library error")
            return ExplainResponse(
                strategy=request.strategy,
                query=request.query,
                doc_id=request.doc_id,
            )

        with ExplanationService(StubEngine(explode), workers=2) as service:
            job = service.submit([_request("fine"), _request("boom")])
            assert job.wait(timeout=30)
            assert job.status is JobStatus.FAILED
            assert "RuntimeError" in job.error
            # the healthy item still carries its result
            assert job.responses[0].ok
            assert not job.responses[1].ok
            assert service.metrics.counter("jobs_failed") == 1

    def test_job_retention_keeps_recent_and_live_jobs(self):
        with ExplanationService(
            StubEngine(), workers=1, job_retention=2
        ) as service:
            ids = []
            for _ in range(4):
                job = service.submit(_request())
                job.wait(timeout=30)
                ids.append(job.job_id)
            tracked = {job.job_id for job in service.jobs()}
            assert len(tracked) == 2
            assert ids[-1] in tracked
            with pytest.raises(JobNotFoundError):
                service.job(ids[0])


class TestCancellation:
    def test_cancel_mid_batch_skips_pending_items(self):
        started = threading.Event()
        release = threading.Event()

        def slow(request):
            started.set()
            assert release.wait(30)
            return ExplainResponse(
                strategy=request.strategy,
                query=request.query,
                doc_id=request.doc_id,
            )

        service = ExplanationService(StubEngine(slow), workers=1)
        try:
            job = service.submit([_request(f"d{i}") for i in range(4)])
            assert started.wait(30)  # item 0 is executing
            cancelled = service.cancel(job.job_id)
            assert cancelled is job
            release.set()
            assert job.wait(timeout=30)
            assert job.status is JobStatus.CANCELLED
            # the in-flight item completed; queued items were skipped
            assert job.responses[0] is not None and job.responses[0].ok
            assert job.responses[1:] == [None, None, None]
            assert job.to_dict()["items"] == [
                "done", "skipped", "skipped", "skipped",
            ]
            assert service.metrics.counter("jobs_cancelled") == 1
            assert service.metrics.counter("items_skipped") == 3
        finally:
            release.set()
            service.shutdown()

    def test_cancel_terminal_job_is_a_noop(self, service):
        job = service.submit(_request())
        assert job.wait(timeout=30)
        assert service.cancel(job.job_id).status is JobStatus.DONE

    def test_submit_after_shutdown_raises_but_finalises_the_job(self):
        """A job the pool will never run must not stay pending forever."""
        service = ExplanationService(StubEngine(), workers=1)
        service.shutdown()
        with pytest.raises(ConfigurationError):
            service.submit([_request("d1"), _request("d2")])
        (job,) = service.jobs()
        assert job.wait(timeout=5)
        assert job.status is JobStatus.CANCELLED
        assert job.to_dict()["items"] == ["skipped", "skipped"]
        assert service.metrics.counter("items_skipped") == 2

    def test_shutdown_cancel_pending_finalises_live_jobs(self):
        release = threading.Event()

        def slow(request):
            assert release.wait(30)
            return ExplainResponse(
                strategy=request.strategy,
                query=request.query,
                doc_id=request.doc_id,
            )

        service = ExplanationService(StubEngine(slow), workers=1)
        job = service.submit([_request(f"d{i}") for i in range(3)])
        release.set()
        service.shutdown(wait=True, cancel_pending=True)
        assert job.wait(timeout=30)
        assert job.status.terminal


class TestStoreBackedExecution:
    def test_repeat_requests_hit_the_store(self, service):
        first = service.explain(_request())
        second = service.explain(_request())
        assert second is first  # the cached response object
        assert service.store.hits == 1
        assert service.metrics_snapshot()["cache_hit_rate"] == 0.5

    def test_errors_propagate_and_are_not_cached(self, service):
        with pytest.raises(RankingError):
            service.explain(_request(doc_id="d1", k=1))
        assert len(service.store) == 0

    def test_index_mutation_invalidates_cached_results(self, service, engine):
        request = _request()
        before = service.explain(request)
        engine.index.add(
            Document("new-doc", "A fresh covid outbreak update arrived.")
        )
        after = service.explain(request)
        assert after is not before  # version changed -> recomputed
        assert service.store.misses == 2

    def test_run_batch_validates_items(self, service):
        with pytest.raises(ConfigurationError):
            service.run_batch([{"query": "covid", "doc_id": "d5"}])


class TestMetricsSnapshot:
    def test_repeated_explain_hits_the_analyzer_memo(self, service, engine):
        request = _request()
        engine.explain(request)
        first = service.metrics_snapshot()["analyzer"]
        engine.explain(request)  # the engine itself: no result store
        second = service.metrics_snapshot()["analyzer"]
        assert second["hits"] > first["hits"]
        assert second["misses"] == first["misses"]
        assert second["entries"] == first["entries"] <= second["capacity"]

    def test_snapshot_shape(self, service):
        service.run_batch([_request(), _request()])
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["jobs_submitted"] == 1
        assert snapshot["counters"]["items_executed"] == 2
        assert snapshot["store"]["entries"] == 1
        assert snapshot["workers"] == 2
        assert snapshot["jobs_tracked"] == 1
        assert snapshot["item_latency"]["count"] == 2


def test_admission_sorts_the_latency_window_only_to_shed(monkeypatch):
    # Only the shed path's Retry-After reads the p95, which sorts up to
    # 1,024 samples under the metrics lock.
    from repro.errors import QueueFullError
    from repro.service.metrics import LatencyWindow

    calls = []
    p95 = LatencyWindow.p95_seconds
    monkeypatch.setattr(
        LatencyWindow, "p95_seconds", lambda self: calls.append(1) or p95(self)
    )
    service = ExplanationService(StubEngine(), workers=1)
    service.configure_admission(max_queue_depth=4)
    try:
        service.metrics.record_latency(0.5)
        for _ in range(100):
            service.admit(enqueue_items=1)
        assert calls == []
        for sheds in (1, 2):
            with pytest.raises(QueueFullError) as refused:
                service.admit(enqueue_items=5)
            assert len(calls) == sheds
        assert refused.value.retry_after_seconds > 0
    finally:
        service.shutdown()
