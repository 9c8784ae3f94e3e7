"""Tracing cost is flat: a request's spans never grow with its work.

The obs invariant forbids a span per candidate, so a traced request
records the same spans whether its search evaluates one candidate or
fifty, and a store hit records the same spans whatever it answers. A
span opened inside a search loop, or anywhere else that scales with the
work, fails these counts on its first request.
"""

from __future__ import annotations

from repro.api.app import build_router
from repro.api.client import InProcessClient
from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.core.search import SEARCH_STRATEGIES
from repro.datasets.covid import DEMO_QUERY, FAKE_NEWS_DOC_ID
from repro.obs import Tracer

ENGINE_SPANS = ["engine/explain", "search/run"]
HIT_SPANS = ["admission/decide", "store/lookup"]
MISS_SPANS = HIT_SPANS + ["service/compute"] + ENGINE_SPANS

#: Budget, n, samples and k move every strategy's candidate count.
VARIANTS = (
    {"n": 1, "budget": 1, "samples": 5, "k": 5},
    {"n": 3, "samples": 40},
    {"n": 2, "threshold": 3, "samples": 20},
)


def test_explain_spans_do_not_grow_with_candidates(bm25_engine):
    tracer = Tracer(ring_capacity=1)
    for strategy in bm25_engine.available_strategies():
        evaluated = set()
        for search in SEARCH_STRATEGIES:
            for knobs in VARIANTS:
                request = ExplainRequest(
                    DEMO_QUERY,
                    FAKE_NEWS_DOC_ID,
                    strategy=strategy,
                    search=search,
                    **knobs,
                )
                with tracer.trace("span-count") as trace:
                    response = bm25_engine.explain(request)
                assert [s.name for s in trace.spans] == ENGINE_SPANS, (
                    strategy,
                    search,
                    knobs,
                )
                evaluated.add(response.result.candidates_evaluated)
        # Counts that never moved would make the check vacuous.
        assert len(evaluated) > 1, (strategy, evaluated)


def test_rest_spans_are_fixed_per_miss_and_per_hit(covid_documents):
    engine = CredenceEngine(
        covid_documents, EngineConfig(ranker="bm25", seed=5)
    )
    tracer = Tracer(ring_capacity=1)
    client = InProcessClient(build_router(engine, tracer=tracer))
    try:
        for strategy, knobs in (
            ("document/sentence-removal", {"n": 3}),
            ("query/augmentation", {"n": 2, "threshold": 2}),
            ("instance/cosine", {"samples": 40}),
        ):
            body = {
                "query": DEMO_QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "strategy": strategy,
                **knobs,
            }
            for expected in (MISS_SPANS, HIT_SPANS):
                assert client.post("/explanations", body).status == 200
                (trace,) = tracer.traces()
                assert [s.name for s in trace.spans] == expected, strategy
    finally:
        engine.service().shutdown()
