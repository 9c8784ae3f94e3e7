"""REST admission tests: typed refusals become 429/503 + Retry-After,
clients are isolated by ``X-Client-Id``, and the retrying
:class:`HttpClient` honours all of it — exercised through an injected
transport, no socket needed."""

from __future__ import annotations

import threading
import urllib.error

import pytest

from repro.api.app import build_router
from repro.api.client import (
    DEFAULT_RETRY_POLICY,
    HttpClient,
    InProcessClient,
    RetryPolicy,
)
from repro.api.endpoints import register_endpoints
from repro.api.http import HttpResponse, Router
from repro.core.engine import CredenceEngine, EngineConfig
from repro.service.admission import CircuitBreaker
from repro.service.scheduler import ExplanationService


@pytest.fixture()
def engine(tiny_docs):
    return CredenceEngine(tiny_docs, EngineConfig(ranker="bm25", seed=5))


def _client(engine, service: ExplanationService) -> InProcessClient:
    router = register_endpoints(Router(), engine, service=service)
    return InProcessClient(router)


def _explain_body(doc_id: str = "d5") -> dict:
    return {
        "query": "covid outbreak",
        "doc_id": doc_id,
        "strategy": "document/sentence-removal",
        "k": 5,
    }


class TestRateLimiting:
    def test_second_request_is_429_with_retry_after(self, engine):
        service = ExplanationService(engine, workers=1).configure_admission(
            rate_limit=0.001, rate_burst=1.0
        )
        try:
            client = _client(engine, service)
            ok = client.post("/explanations", _explain_body())
            assert ok.status == 200
            refused = client.post("/explanations", _explain_body())
            assert refused.status == 429
            assert refused.payload["error"] == "TooManyRequestsError"
            assert int(refused.headers["Retry-After"]) >= 1
            assert service.metrics.counter("requests_rate_limited") == 1
        finally:
            service.shutdown()

    def test_clients_are_isolated_by_header(self, engine):
        service = ExplanationService(engine, workers=1).configure_admission(
            rate_limit=0.001, rate_burst=1.0
        )
        try:
            client = _client(engine, service)
            alice = {"X-Client-Id": "alice"}
            bob = {"X-Client-Id": "bob"}
            assert client.post(
                "/explanations", _explain_body(), headers=alice
            ).status == 200
            assert client.post(
                "/explanations", _explain_body(), headers=alice
            ).status == 429
            # Bob's bucket is untouched by Alice's burn.
            assert client.post(
                "/explanations", _explain_body(), headers=bob
            ).status == 200
        finally:
            service.shutdown()


class TestLoadShedding:
    def test_oversized_job_is_shed_with_429(self, engine):
        service = ExplanationService(engine, workers=1).configure_admission(
            max_queue_depth=1
        )
        try:
            client = _client(engine, service)
            body = {"requests": [_explain_body(), _explain_body("d4")]}
            refused = client.post("/jobs", body)
            assert refused.status == 429
            assert "Retry-After" in refused.headers
            assert service.metrics.counter("requests_shed") == 1
            # A one-item job fits the bound.
            accepted = client.post(
                "/jobs", {"requests": [_explain_body()]}
            )
            assert accepted.status == 202
        finally:
            service.shutdown()

    def test_sync_explain_is_never_depth_shed(self, engine):
        # enqueue_items=0: sync requests run in the caller's thread.
        service = ExplanationService(engine, workers=1).configure_admission(
            max_queue_depth=1
        )
        try:
            client = _client(engine, service)
            assert client.post("/explanations", _explain_body()).status == 200
        finally:
            service.shutdown()


class TestFlood:
    def test_flood_is_refused_only_with_contract_statuses(self, engine):
        # Four chatty clients send five requests each against a budget
        # of 2 per second and a queue bound of 8; every third request
        # is a 3-item batch job.
        service = ExplanationService(engine, workers=2).configure_admission(
            rate_limit=2.0, max_queue_depth=8, default_deadline_ms=5_000.0
        )
        doc_ids = [entry.doc_id for entry in engine.rank("covid outbreak", 5)]
        client = _client(engine, service)
        responses = []

        def flood(index: int) -> None:
            headers = {"X-Client-Id": f"flood-{index}"}
            for turn in range(5):
                if turn % 3 == 2:
                    path, body = "/jobs", {
                        "requests": [
                            _explain_body(doc_ids[j % len(doc_ids)])
                            for j in range(turn, turn + 3)
                        ],
                        "priority": "batch",
                    }
                else:
                    doc_id = doc_ids[(index + turn) % len(doc_ids)]
                    path, body = "/explanations", _explain_body(doc_id)
                responses.append(client.post(path, body, headers=headers))

        threads = [threading.Thread(target=flood, args=(i,)) for i in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            service.shutdown()
        assert len(responses) == 20
        statuses = {response.status for response in responses}
        assert statuses <= {200, 202, 429, 503}, statuses
        refused = [r for r in responses if r.status in (429, 503)]
        assert refused, "the flood was fully absorbed"
        assert all("Retry-After" in r.headers for r in refused)


class TestBreakerAndDraining:
    def test_open_breaker_is_503(self, engine):
        breaker = CircuitBreaker(
            failure_threshold=0.5, min_samples=1, cooldown_seconds=60.0
        )
        breaker.record_failure()
        service = ExplanationService(engine, workers=1).configure_admission(
            breaker=breaker
        )
        try:
            client = _client(engine, service)
            refused = client.post("/explanations", _explain_body())
            assert refused.status == 503
            assert refused.payload["error"] == "ServiceUnavailableError"
            assert "Retry-After" in refused.headers
        finally:
            service.shutdown()

    def test_draining_service_is_503(self, engine):
        service = ExplanationService(engine, workers=1)
        service.drain(wait=True)
        client = _client(engine, service)
        refused = client.post("/explanations", _explain_body())
        assert refused.status == 503
        assert service.metrics.counter("requests_rejected_draining") == 1


class TestPriorityField:
    def test_invalid_priority_is_400(self, engine):
        service = ExplanationService(engine, workers=1)
        try:
            client = _client(engine, service)
            body = {
                "requests": [_explain_body()],
                "priority": "urgent",
            }
            response = client.post("/jobs", body)
            assert response.status == 400
        finally:
            service.shutdown()

    def test_named_priority_lands_on_the_job(self, engine):
        service = ExplanationService(engine, workers=1)
        try:
            client = _client(engine, service)
            body = {
                "requests": [_explain_body()],
                "priority": "interactive",
            }
            accepted = client.post("/jobs", body)
            assert accepted.status == 202
            job_id = accepted.payload["job_id"]
            progress = client.get(f"/jobs/{job_id}/progress")
            assert progress.status == 200
            assert progress.payload["priority"] == "interactive"
        finally:
            service.shutdown()


class TestMetricsRoute:
    def test_metrics_exposes_admission_and_breaker_state(self, engine):
        service = ExplanationService(engine, workers=1).configure_admission(
            rate_limit=5.0, max_queue_depth=8
        )
        try:
            client = _client(engine, service)
            payload = client.get("/metrics").payload
            assert payload["admission"]["max_queue_depth"] == 8
            assert payload["admission"]["circuit_breaker"] == "closed"
            assert payload["draining"] is False
        finally:
            service.shutdown()


# -- client retry behaviour (injected transport, no socket) -----------------


class _ScriptedTransport:
    """Replays a fixed sequence of responses/exceptions and records calls."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, method, path, body=None, headers=None):
        self.calls.append((method, path))
        outcome = self.script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _http_client(transport, retry=None) -> tuple[HttpClient, list[float]]:
    sleeps: list[float] = []
    client = HttpClient(
        "http://test",
        retry=retry,
        sleep=sleeps.append,
        rng=lambda: 1.0,  # deterministic full-jitter upper bound
        transport=transport,
    )
    return client, sleeps


class TestRetryPolicy:
    def test_defaults(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 3
        assert DEFAULT_RETRY_POLICY.retry_statuses == frozenset({429, 503})
        assert not DEFAULT_RETRY_POLICY.retry_non_idempotent

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            base_delay_seconds=0.1, max_delay_seconds=0.3
        )
        rng = lambda: 1.0  # noqa: E731
        assert policy.delay_seconds(0, rng=rng) == pytest.approx(0.1)
        assert policy.delay_seconds(1, rng=rng) == pytest.approx(0.2)
        assert policy.delay_seconds(5, rng=rng) == pytest.approx(0.3)

    def test_server_retry_after_wins_but_is_capped(self):
        policy = RetryPolicy(max_delay_seconds=5.0)
        assert policy.delay_seconds(0, retry_after=2.0) == 2.0
        assert policy.delay_seconds(0, retry_after=60.0) == 5.0


class TestHttpClientRetries:
    def test_get_retries_on_429_honouring_retry_after(self):
        transport = _ScriptedTransport(
            [
                HttpResponse(429, {}, headers={"retry-after": "2"}),
                HttpResponse(200, {"ok": True}),
            ]
        )
        client, sleeps = _http_client(transport)
        response = client.get("/metrics")
        assert response.status == 200
        assert len(transport.calls) == 2
        assert sleeps == [2.0]

    def test_attempts_are_bounded(self):
        transport = _ScriptedTransport(
            [HttpResponse(503, {})] * 5
        )
        client, sleeps = _http_client(
            transport, retry=RetryPolicy(max_attempts=3)
        )
        response = client.get("/health")
        assert response.status == 503  # gave up, surfaced the last answer
        assert len(transport.calls) == 3
        assert len(sleeps) == 2

    def test_post_is_not_retried_by_default(self):
        transport = _ScriptedTransport([HttpResponse(429, {})])
        client, sleeps = _http_client(transport)
        response = client.post("/explanations", _explain_body())
        assert response.status == 429
        assert len(transport.calls) == 1
        assert sleeps == []

    def test_post_retries_when_opted_in(self):
        transport = _ScriptedTransport(
            [HttpResponse(429, {}), HttpResponse(200, {"ok": True})]
        )
        client, _ = _http_client(
            transport, retry=RetryPolicy(retry_non_idempotent=True)
        )
        assert client.post("/explanations", _explain_body()).status == 200
        assert len(transport.calls) == 2

    def test_connection_errors_retry_for_get(self):
        transport = _ScriptedTransport(
            [
                urllib.error.URLError("refused"),
                HttpResponse(200, {"ok": True}),
            ]
        )
        client, sleeps = _http_client(transport)
        assert client.get("/health").status == 200
        assert len(sleeps) == 1

    def test_connection_errors_reraise_after_exhaustion(self):
        transport = _ScriptedTransport(
            [urllib.error.URLError("refused")] * 3
        )
        client, _ = _http_client(transport, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(urllib.error.URLError):
            client.get("/health")
        assert len(transport.calls) == 3
