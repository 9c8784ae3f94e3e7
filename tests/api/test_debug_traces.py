"""The REST observability surface: request ids, ``/debug/traces``, the
``profile`` debug block, and Prometheus exposition."""

from __future__ import annotations

import time

import pytest

from repro.api.app import build_router
from repro.api.client import InProcessClient
from repro.api.http import TextResponse
from repro.core.engine import CredenceEngine, EngineConfig
from repro.index.document import Document
from repro.obs import PROMETHEUS_CONTENT_TYPE, Tracer

QUERY = "covid outbreak"
DOC = "d5"

DOCS = [
    Document("d5", "The covid outbreak spread quickly. Experts dismissed "
                   "the covid outbreak rumours. Officials promised tests."),
    Document("d6", "City officials denied rumours about the outbreak "
                   "response. A press briefing is scheduled."),
    Document("d7", "Stock markets rallied as tech shares gained value."),
    Document("d8", "The flu season arrived early with many sick patients."),
]

EXPLAIN_BODY = {
    "query": QUERY,
    "doc_id": DOC,
    "strategy": "document/sentence-removal",
    "n": 1,
    "k": 4,
}


@pytest.fixture()
def engine():
    engine = CredenceEngine(DOCS, EngineConfig(ranker="bm25", seed=5))
    yield engine
    engine.service().shutdown()


@pytest.fixture()
def client(engine):
    return InProcessClient(build_router(engine))


class TestRequestIdContract:
    def test_client_supplied_id_is_echoed(self, client):
        response = client.get("/health", headers={"X-Request-Id": "my-id-1"})
        assert response.headers["X-Request-Id"] == "my-id-1"

    def test_missing_id_is_generated(self, client):
        rid = client.get("/health").headers["X-Request-Id"]
        assert len(rid) == 16
        int(rid, 16)

    def test_each_request_gets_a_fresh_id(self, client):
        first = client.get("/health").headers["X-Request-Id"]
        second = client.get("/health").headers["X-Request-Id"]
        assert first != second

    def test_404_and_405_carry_the_header(self, client):
        assert "X-Request-Id" in client.get("/no-such-route").headers
        assert "X-Request-Id" in client.delete("/health").headers

    def test_disabled_tracer_adds_no_header(self, engine):
        router = build_router(engine, tracer=Tracer(enabled=False))
        response = InProcessClient(router).get("/health")
        assert "X-Request-Id" not in response.headers


class TestDebugTraces:
    def test_listing_shows_recent_requests_newest_first(self, client):
        client.get("/health", headers={"X-Request-Id": "older"})
        client.get("/strategies", headers={"X-Request-Id": "newer"})
        listing = client.get("/debug/traces")
        assert listing.status == 200
        assert listing.payload["enabled"] is True
        ids = [t["request_id"] for t in listing.payload["traces"]]
        assert ids.index("newer") < ids.index("older")

    def test_detail_contains_the_span_tree(self, client):
        client.post(
            "/explanations",
            EXPLAIN_BODY,
            headers={"X-Request-Id": "traced-explain"},
        )
        detail = client.get("/debug/traces/traced-explain")
        assert detail.status == 200
        names = [s["name"] for s in detail.payload["spans"]]
        for expected in (
            "admission/decide",
            "store/lookup",
            "service/compute",
            "engine/explain",
            "search/run",
        ):
            assert expected in names, names
        # the search span carries the kernel accounting
        search = next(
            s for s in detail.payload["spans"] if s["name"] == "search/run"
        )
        assert search["attributes"]["candidates_evaluated"] >= 1
        assert "budget_spent" in search["attributes"]
        # compute parents onto the trace's span tree
        compute = next(
            s for s in detail.payload["spans"] if s["name"] == "service/compute"
        )
        assert compute["attributes"]["strategy"] == "document/sentence-removal"
        assert detail.payload["counters"].get("sessions/opened", 0) >= 1

    def test_ingest_is_one_span_with_its_batch_and_new_tokens(self, client):
        response = client.post(
            "/index/documents",
            {"documents": [
                {"doc_id": "fresh-1", "body": "zebra quokka"},
                {"doc_id": "fresh-2", "body": "quokka narwhal covid"},
            ]},
            headers={"X-Request-Id": "traced-ingest"},
        )
        assert response.status == 201
        spans = client.get("/debug/traces/traced-ingest").payload["spans"]
        (ingest,) = [s for s in spans if s["name"] == "index/ingest"]
        # "covid" is a corpus token and "quokka" repeats within the
        # batch: three surface tokens are new to the analyzer.
        assert ingest["attributes"] == {"documents": 2, "new_tokens": 3}
        assert ingest["duration_ms"] is not None

    def test_unknown_request_id_is_404(self, client):
        assert client.get("/debug/traces/ghost").status == 404

    def test_disabled_tracer_reports_disabled(self, engine):
        router = build_router(engine, tracer=Tracer(enabled=False))
        listing = InProcessClient(router).get("/debug/traces")
        assert listing.payload == {
            "enabled": False,
            "count": 0,
            "traces": [],
        }

    def test_slow_ring_via_query_param(self, engine):
        router = build_router(
            engine, tracer=Tracer(slow_threshold_ms=0.0)
        )
        slow_client = InProcessClient(router)
        slow_client.get("/health", headers={"X-Request-Id": "slowpoke"})
        listing = slow_client.get(
            "/debug/traces", query_params={"slow": "1"}
        )
        assert listing.payload["slow_threshold_ms"] == 0.0
        ids = [t["request_id"] for t in listing.payload["traces"]]
        assert "slowpoke" in ids

    def test_async_job_spans_land_in_the_submit_trace(self, client):
        submitted = client.post(
            "/jobs",
            {"requests": [EXPLAIN_BODY]},
            headers={"X-Request-Id": "job-trace"},
        )
        assert submitted.status == 202
        job_id = submitted.payload["job_id"]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            status = client.get(f"/jobs/{job_id}").payload["status"]
            if status not in ("pending", "running"):
                break
            time.sleep(0.02)
        detail = client.get("/debug/traces/job-trace")
        names = [s["name"] for s in detail.payload["spans"]]
        # Spans appended by the pool worker after the 202 went out are
        # visible because the ring renders live traces at read time.
        assert "queue/wait" in names
        assert "item/execute" in names


class TestProfileBlock:
    def test_profile_true_adds_debug_block(self, client):
        response = client.post(
            "/explanations", {**EXPLAIN_BODY, "profile": True}
        )
        assert response.status == 200
        debug = response.payload["debug"]
        assert debug["enabled"] is True
        assert debug["total_ms"] >= 0.0
        stage_names = [s["name"] for s in debug["stages"]]
        assert "engine/explain" in stage_names

    def test_profile_false_or_absent_means_no_block(self, client):
        assert "debug" not in client.post("/explanations", EXPLAIN_BODY).payload
        assert "debug" not in client.post(
            "/explanations", {**EXPLAIN_BODY, "profile": False}
        ).payload

    def test_profile_does_not_change_the_result(self, client):
        plain = client.post("/explanations", EXPLAIN_BODY).payload
        profiled = client.post(
            "/explanations", {**EXPLAIN_BODY, "profile": True}
        ).payload
        profiled.pop("debug")
        # Identical including elapsed_seconds: the profile flag never
        # reaches the request, so the second call is a store hit.
        assert profiled == plain

    def test_profile_must_be_boolean(self, client):
        response = client.post(
            "/explanations", {**EXPLAIN_BODY, "profile": "yes"}
        )
        assert response.status == 400

    def test_profile_with_tracing_off_reports_disabled(self, engine):
        router = build_router(engine, tracer=Tracer(enabled=False))
        response = InProcessClient(router).post(
            "/explanations", {**EXPLAIN_BODY, "profile": True}
        )
        assert response.payload["debug"] == {"enabled": False}


class TestPrometheusEndpoint:
    def test_prometheus_format_returns_exposition_text(self, client):
        client.post("/explanations", EXPLAIN_BODY)
        response = client.get(
            "/metrics", query_params={"format": "prometheus"}
        )
        assert isinstance(response, TextResponse)
        assert response.status == 200
        assert response.content_type == PROMETHEUS_CONTENT_TYPE
        assert "# TYPE repro_uptime_seconds gauge" in response.text
        assert "repro_requests_admitted_total 1" in response.text

    def test_json_remains_the_default(self, client):
        response = client.get("/metrics")
        assert response.status == 200
        assert "counters" in response.payload

    def test_unknown_format_is_400(self, client):
        response = client.get("/metrics", query_params={"format": "xml"})
        assert response.status == 400
