"""Figure 1 — the CREDENCE service architecture.

The paper's Fig. 1 is the system diagram: a REST API in front of the
index, ranker, counterfactual algorithms, and topic modeling. This
benchmark exercises every endpoint through the service layer and times
each, confirming the whole architecture is wired and interactive-fast.
"""

from __future__ import annotations

import pytest

from repro.api.app import build_router
from repro.api.client import InProcessClient
from repro.datasets.covid import DEMO_QUERY, FAKE_NEWS_DOC_ID

K = 10


@pytest.fixture(scope="module")
def client(engine):
    return InProcessClient(build_router(engine))


ENDPOINT_CASES = [
    ("health", "GET", "/health", None),
    ("strategies", "GET", "/strategies", None),
    ("rank", "POST", "/rank", {"query": DEMO_QUERY, "k": K}),
    (
        "explain_unified",
        "POST",
        "/explanations",
        {
            "query": DEMO_QUERY,
            "doc_id": FAKE_NEWS_DOC_ID,
            "strategy": "document/sentence-removal",
            "n": 1,
            "k": K,
        },
    ),
    (
        "explain_batch",
        "POST",
        "/explanations/batch",
        {
            "requests": [
                {
                    "query": DEMO_QUERY,
                    "doc_id": FAKE_NEWS_DOC_ID,
                    "strategy": "document/sentence-removal",
                    "k": K,
                },
                {
                    "query": DEMO_QUERY,
                    "doc_id": FAKE_NEWS_DOC_ID,
                    "strategy": "instance/cosine",
                    "samples": 30,
                    "k": K,
                },
            ]
        },
    ),
    (
        "builder_rerank",
        "POST",
        "/builder/rerank",
        {
            "query": DEMO_QUERY,
            "doc_id": FAKE_NEWS_DOC_ID,
            "k": K,
            "perturbations": [
                {"type": "replace_term", "term": "covid", "replacement": "flu"},
                {"type": "remove_term", "term": "outbreak"},
            ],
        },
    ),
    ("topics", "POST", "/topics", {"query": DEMO_QUERY, "k": K, "num_topics": 3}),
]


@pytest.mark.parametrize(
    "name,method,path,body", ENDPOINT_CASES, ids=[c[0] for c in ENDPOINT_CASES]
)
def test_fig1_endpoint_latency(client, benchmark, name, method, path, body):
    """Per-endpoint latency of the running service (Fig. 1 wiring)."""

    def call():
        if method == "GET":
            return client.get(path)
        return client.post(path, body)

    response = benchmark(call)
    assert response.status == 200
