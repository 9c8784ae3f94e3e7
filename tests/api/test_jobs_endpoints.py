"""REST tests for the async-job surface and the service-layer hardening:
``POST /jobs``, ``GET /jobs/{id}``, ``DELETE /jobs/{id}``,
``GET /metrics``, batch caps, and the request-body size cap."""

from __future__ import annotations

import time

import pytest

from repro.api.app import build_router, serve
from repro.api.client import HttpClient, InProcessClient
from repro.core.engine import CredenceEngine, EngineConfig

QUERY = "covid outbreak"
DOC = "d5"


@pytest.fixture()
def engine(tiny_docs) -> CredenceEngine:
    built = CredenceEngine(tiny_docs, EngineConfig(ranker="bm25", seed=5))
    yield built
    if built._service is not None:
        built._service.shutdown()


@pytest.fixture()
def client(engine) -> InProcessClient:
    return InProcessClient(build_router(engine))


def _await_job(client, job_id: str, timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        payload = client.get(f"/jobs/{job_id}").payload
        if payload["status"] not in ("pending", "running"):
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestJobRoutes:
    def test_submit_poll_result(self, client):
        response = client.post(
            "/jobs",
            {
                "requests": [
                    {"query": QUERY, "doc_id": DOC, "k": 5},
                    {
                        "query": QUERY,
                        "doc_id": DOC,
                        "strategy": "query/augmentation",
                        "k": 5,
                        "threshold": 2,
                    },
                ]
            },
        )
        assert response.status == 202
        assert response.payload["status"] in ("pending", "running", "done")
        assert response.payload["items_total"] == 2
        assert "responses" not in response.payload  # submit is a receipt

        payload = _await_job(client, response.payload["job_id"])
        assert payload["status"] == "done"
        assert payload["items"] == ["done", "done"]
        assert payload["items_done"] == 2
        assert all(
            item_response["elapsed_seconds"] >= 0.0
            for item_response in payload["responses"]
        )

    def test_single_request_shape(self, client):
        response = client.post(
            "/jobs", {"request": {"query": QUERY, "doc_id": DOC, "k": 5}}
        )
        assert response.status == 202
        assert response.payload["items_total"] == 1
        payload = _await_job(client, response.payload["job_id"])
        assert payload["status"] == "done"

    def test_both_shapes_rejected(self, client):
        response = client.post(
            "/jobs",
            {
                "request": {"query": QUERY, "doc_id": DOC},
                "requests": [{"query": QUERY, "doc_id": DOC}],
            },
        )
        assert response.status == 400

    def test_failure_isolation_in_job(self, client):
        response = client.post(
            "/jobs",
            {
                "requests": [
                    {"query": QUERY, "doc_id": DOC, "k": 5},
                    {"query": QUERY, "doc_id": "missing", "k": 5},
                ]
            },
        )
        payload = _await_job(client, response.payload["job_id"])
        assert payload["status"] == "done"
        assert payload["items"] == ["done", "error"]
        assert "missing" in payload["responses"][1]["error"]

    def test_unknown_job_is_404(self, client):
        assert client.get("/jobs/job-404").status == 404
        assert client.delete("/jobs/job-404").status == 404

    def test_cancel_route(self, client):
        response = client.post(
            "/jobs", {"request": {"query": QUERY, "doc_id": DOC, "k": 5}}
        )
        job_id = response.payload["job_id"]
        cancelled = client.delete(f"/jobs/{job_id}")
        assert cancelled.status == 200
        # tiny corpus: the job may finish before the cancel lands, or not
        # have started yet (cancel_requested flips; status follows later)
        assert cancelled.payload["status"] in (
            "pending", "running", "cancelled", "done",
        )
        assert (
            cancelled.payload["cancel_requested"]
            or cancelled.payload["status"] == "done"
        )
        final = _await_job(client, job_id)
        assert final["status"] in ("cancelled", "done")

    def test_invalid_item_is_clean_400(self, client):
        response = client.post(
            "/jobs", {"requests": [{"query": QUERY, "typo_field": 1}]}
        )
        assert response.status == 400


class TestMetricsRoute:
    def test_metrics_shape_and_cache_hits(self, client):
        body = {"query": QUERY, "doc_id": DOC, "k": 5}
        assert client.post("/explanations", body).status == 200
        assert client.post("/explanations", body).status == 200
        payload = client.get("/metrics").payload
        assert payload["store"]["hits"] >= 1
        assert payload["cache_hit_rate"] > 0.0
        assert payload["store"]["entries"] >= 1
        assert payload["workers"] >= 1
        assert "p95_seconds" in payload["item_latency"]


class TestBatchCaps:
    def test_oversized_batch_rejected(self, client):
        body = {
            "requests": [{"query": QUERY, "doc_id": DOC}] * 101
        }
        response = client.post("/explanations/batch", body)
        assert response.status == 400
        assert "<= 100" in response.payload["detail"]
        assert client.post("/jobs", body).status == 400

    def test_configurable_cap(self, engine):
        client = InProcessClient(build_router(engine, max_batch_items=2))
        body = {"requests": [{"query": QUERY, "doc_id": DOC, "k": 5}] * 3}
        assert client.post("/explanations/batch", body).status == 400
        assert client.post("/jobs", body).status == 400
        small = {"requests": [{"query": QUERY, "doc_id": DOC, "k": 5}] * 2}
        assert client.post("/explanations/batch", small).status == 200

    def test_batch_route_runs_through_the_pool_and_store(self, client, engine):
        body = {"requests": [{"query": QUERY, "doc_id": DOC, "k": 5}] * 2}
        response = client.post("/explanations/batch", body)
        assert response.status == 200
        assert response.payload["count"] == 2
        assert engine.service().metrics.counter("jobs_submitted") >= 1


class TestBodySizeCap:
    def test_oversized_body_is_clean_400_over_http(self, engine):
        server = serve(engine, port=0, max_body_bytes=10_000)
        client = HttpClient(server.url)
        try:
            response = client.post(
                "/explanations",
                {"query": "x" * 50_000, "doc_id": DOC},
            )
            assert response.status == 400
            assert "byte" in response.payload["detail"]
            # the connection/service still works afterwards
            ok = client.post(
                "/explanations", {"query": QUERY, "doc_id": DOC, "k": 5}
            )
            assert ok.status == 200
        finally:
            client.close()
            server.stop()
