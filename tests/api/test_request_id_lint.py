"""Lint: every REST route participates in request-id propagation.

The ``X-Request-Id`` contract lives in ``Router.dispatch`` — *below*
every route — so no endpoint can opt out. This test makes that
structural claim executable: it enumerates the router's registered
routes, demands a sample request for each one (adding a route without
extending the table fails loudly), dispatches them all, and asserts the
header comes back on every response — success, client error, and
streaming alike.
"""

from __future__ import annotations

import pytest

from repro.api.app import build_router
from repro.api.http import Request, StreamingResponse
from repro.core.engine import CredenceEngine, EngineConfig
from repro.index.document import Document

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

_EXPLAIN = {"query": QUERY, "doc_id": DOC, "n": 1, "k": 4}

#: One sample request per registered route, keyed by the route's
#: (method, compiled pattern). The request does not have to succeed —
#: the contract covers refusals too — it only has to *reach* the route.
SAMPLE_REQUESTS: dict[tuple[str, str], Request] = {
    (method, pattern): Request(method=method, path=path, body=body)
    for method, pattern, path, body in [
        ("GET", "^/health$", "/health", None),
        ("GET", "^/strategies$", "/strategies", None),
        (
            "GET",
            "^/documents/(?P<doc_id>[^/]+)$",
            f"/documents/{DOC}",
            None,
        ),
        ("POST", "^/rank$", "/rank", {"query": QUERY, "k": 2}),
        ("GET", "^/index$", "/index", None),
        # deliberately invalid body: a 400 must carry the header too
        ("POST", "^/index/save$", "/index/save", {}),
        (
            "POST",
            "^/index/documents$",
            "/index/documents",
            {"documents": [{"doc_id": "new-1", "body": "fresh outbreak news"}]},
        ),
        (
            "DELETE",
            "^/index/documents/(?P<doc_id>[^/]+)$",
            "/index/documents/new-1",
            None,
        ),
        ("POST", "^/explanations$", "/explanations", dict(_EXPLAIN)),
        (
            "POST",
            "^/explanations/stream$",
            "/explanations/stream",
            dict(_EXPLAIN),
        ),
        (
            "POST",
            "^/explanations/batch$",
            "/explanations/batch",
            {"query": QUERY, "doc_ids": [DOC], "n": 1, "k": 4},
        ),
        ("POST", "^/jobs$", "/jobs", {"requests": [dict(_EXPLAIN)]}),
        ("GET", "^/jobs/(?P<job_id>[^/]+)$", "/jobs/ghost", None),
        (
            "GET",
            "^/jobs/(?P<job_id>[^/]+)/progress$",
            "/jobs/ghost/progress",
            None,
        ),
        ("DELETE", "^/jobs/(?P<job_id>[^/]+)$", "/jobs/ghost", None),
        ("GET", "^/metrics$", "/metrics", None),
        ("GET", "^/debug/traces$", "/debug/traces", None),
        (
            "GET",
            "^/debug/traces/(?P<request_id>[^/]+)$",
            "/debug/traces/ghost",
            None,
        ),
        (
            "POST",
            "^/builder/rerank$",
            "/builder/rerank",
            {"query": QUERY, "doc_id": DOC, "k": 4},
        ),
        ("POST", "^/topics$", "/topics", {"num_topics": 2}),
    ]
}


@pytest.fixture(scope="module")
def router():
    engine = CredenceEngine(DOCS, EngineConfig(ranker="bm25", seed=5))
    router = build_router(engine)
    yield router
    engine.service().shutdown()


def test_sample_table_covers_the_route_table_exactly(router):
    registered = {
        (route.method, route.pattern.pattern) for route in router._routes
    }
    missing = registered - set(SAMPLE_REQUESTS)
    stale = set(SAMPLE_REQUESTS) - registered
    assert not missing, (
        "routes with no request-id lint sample (add one to "
        f"SAMPLE_REQUESTS): {sorted(missing)}"
    )
    assert not stale, f"samples for unregistered routes: {sorted(stale)}"


def test_every_route_response_carries_a_request_id(router):
    for (method, pattern), request in sorted(SAMPLE_REQUESTS.items()):
        response = router.dispatch(request)
        assert "X-Request-Id" in response.headers, (method, pattern)
        if isinstance(response, StreamingResponse):
            list(response.chunks)  # drain so pool work finishes cleanly


def test_every_route_response_echoes_a_client_id(router):
    for (method, pattern), request in sorted(SAMPLE_REQUESTS.items()):
        tagged = Request(
            method=request.method,
            path=request.path,
            body=request.body,
            headers={"X-Request-Id": "lint-echo"},
        )
        response = router.dispatch(tagged)
        assert response.headers["X-Request-Id"] == "lint-echo", (
            method,
            pattern,
        )
        if isinstance(response, StreamingResponse):
            list(response.chunks)
