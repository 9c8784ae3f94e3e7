"""REST endpoints: the CREDENCE service surface (Fig. 1).

Binds a :class:`~repro.core.engine.CredenceEngine` to the routes the demo
UI calls. Every explanation family goes through ``POST /explanations``
(and its stream/batch/jobs variants) with the strategy name in the body.

====================================  =======================================
``GET  /health``                      liveness + corpus stats
``GET  /strategies``                  explanation-strategy introspection
``GET  /index``                       corpus layout (shards, router, storage)
``POST /index/save``                  persist the corpus index to disk
``POST /index/documents``             bulk-ingest documents (all-or-nothing)
``DELETE /index/documents/{doc_id}``  remove a document from the corpus
``GET  /documents/{doc_id}``          fetch a document body for display
``POST /rank``                        the Explanations/Builder rank button
``POST /explanations``                any explanation strategy (unified)
``POST /explanations/stream``         NDJSON: live progress, then the result
``POST /explanations/batch``          many requests, per-item results
``POST /jobs``                        submit an async explanation job (202)
``GET  /jobs/{job_id}``               job status, progress, and results
``GET  /jobs/{job_id}/progress``      live per-item search progress
``DELETE /jobs/{job_id}``             cancel a running job
``GET  /metrics``                     service counters, cache, latency
``GET  /debug/traces``                recent request traces (ring buffer)
``GET  /debug/traces/{request_id}``   one trace, every span, rendered live
``POST /builder/rerank``              build-your-own re-rank + movements
``POST /topics``                      Browse Topics over the current top-k
====================================  =======================================

Synchronous explanation traffic runs through the engine's
:class:`~repro.service.scheduler.ExplanationService`, so repeated
queries are answered from the version-keyed result store, and the batch
route fans out across the service's worker pool. ``POST /jobs`` returns
immediately with a job id; poll ``GET /jobs/{id}`` for per-item
progress.

Every explanation route runs admission first (see
:mod:`repro.service.admission`): a refusal is a typed 429
(rate-limited / load-shed) or 503 (breaker open / draining) carrying a
``Retry-After`` header, *before* any work is queued. Clients may send
an ``X-Client-Id`` header for per-client rate limiting (anonymous
traffic shares one bucket) and a top-level ``"priority"`` body field
(``"interactive"`` | ``"batch"``) on the batch/jobs routes.

Observability (see :mod:`repro.obs`): with a tracer attached to the
router, every response carries ``X-Request-Id`` (echoed from the
request header, generated otherwise), ``GET /metrics`` answers
``?format=prometheus`` with exposition text, ``GET /debug/traces``
serves the trace ring, and ``POST /explanations`` accepts a top-level
``"profile": true`` returning a per-stage ``debug`` block.
"""

from __future__ import annotations

import threading

from repro.api.http import (
    HttpResponse,
    Request,
    Router,
    StreamingResponse,
    TextResponse,
)
from repro.api.schemas import (
    BuilderRequest,
    RankRequest,
    TopicsRequest,
    parse_explain_batch,
    parse_explain_request,
    parse_index_ingest,
    parse_index_save,
    parse_job_submission,
    parse_profile_flag,
    parse_request_priority,
)
from repro.core.engine import CredenceEngine
from repro.core.explain import ExplainRequest, ExplainResponse
from repro.core.search.progress import ProgressSink, search_progress
from repro.errors import (
    AdmissionError,
    BadRequestError,
    ConfigurationError,
    DocumentNotFoundError,
    IndexFormatError,
    IndexStateError,
    JobNotFoundError,
    NotFoundError,
    PoolShutdownError,
    QueueFullError,
    RankingError,
    RateLimitedError,
    ReadOnlyIndexError,
    ServiceUnavailableError,
    TooManyRequestsError,
)
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    activate_context,
    capture_context,
    current_trace,
    profile_block,
    render_prometheus,
)
from repro.service.admission import Priority
from repro.service.scheduler import ExplanationService

#: How often the streaming route polls the search's progress sink.
STREAM_POLL_SECONDS = 0.025


def _admission_to_http(error: AdmissionError) -> Exception:
    """The REST mapping of a typed admission refusal.

    Rate-limit and shed refusals are the client's to pace (429);
    breaker-open and draining mean the *server* cannot take work (503).
    Both carry ``Retry-After``.
    """
    cls = (
        TooManyRequestsError
        if isinstance(error, (RateLimitedError, QueueFullError))
        else ServiceUnavailableError
    )
    return cls(str(error), retry_after_seconds=error.retry_after_seconds)


def _run_explain(
    service: ExplanationService,
    request: ExplainRequest,
    priority: Priority = Priority.INTERACTIVE,
) -> ExplainResponse:
    """Dispatch one request, mapping library errors to HTTP 400.

    ``ConfigurationError`` covers unknown/unavailable strategies and
    invalid parameter combinations; ``RankingError`` covers instance
    documents outside the top-k; ``IndexStateError`` an index emptied
    of every document. Runs store-backed: a repeat of an answered
    request returns the cached response.
    """
    try:
        return service.explain(request, priority=priority)
    except (
        PoolShutdownError, RankingError, ConfigurationError, IndexStateError
    ) as error:
        if isinstance(error, PoolShutdownError):
            raise ServiceUnavailableError(str(error)) from None
        raise BadRequestError(str(error)) from None


def _attach_instance_bodies(engine: CredenceEngine, payload: dict) -> dict:
    """Attach the counterfactual bodies the UI renders beneath the prompt."""
    for explanation in payload.get("explanations", []):
        if "counterfactual_doc_id" in explanation:
            document = engine.document(explanation["counterfactual_doc_id"])
            explanation["counterfactual_body"] = document.body
    return payload


def register_endpoints(
    router: Router,
    engine: CredenceEngine,
    service: ExplanationService | None = None,
    max_batch_items: int | None = None,
    max_ingest_items: int | None = None,
) -> Router:
    """Attach every CREDENCE endpoint for ``engine`` to ``router``.

    ``service`` defaults to the engine's memoised
    :meth:`~repro.core.engine.CredenceEngine.service`;
    ``max_batch_items`` caps ``POST /explanations/batch`` and
    ``POST /jobs`` item counts, ``max_ingest_items`` caps
    ``POST /index/documents`` (None keeps the schema defaults).
    """
    if service is None:
        service = engine.service()

    def _client_id(request: Request) -> str | None:
        return request.headers.get("x-client-id")

    def _admit(
        request: Request,
        priority: Priority = Priority.INTERACTIVE,
        enqueue_items: int = 0,
    ) -> None:
        """Shed-before-work: run admission for one request, mapping
        typed refusals to 429/503 (+ ``Retry-After``)."""
        try:
            service.admit(
                _client_id(request), priority, enqueue_items=enqueue_items
            )
        except AdmissionError as error:
            raise _admission_to_http(error) from None

    @router.get("/health")
    def health(_: Request):
        stats = engine.index.stats()
        return {
            "status": "ok",
            "ranker": engine.ranker.name,
            "documents": stats.document_count,
            "unique_terms": stats.unique_terms,
            "strategies": list(engine.available_strategies()),
        }

    @router.get("/strategies")
    def strategies(_: Request):
        return {"strategies": engine.registry.describe(engine)}

    @router.get("/documents/{doc_id}")
    def get_document(request: Request):
        doc_id = request.path_params["doc_id"]
        try:
            document = engine.document(doc_id)
        except DocumentNotFoundError:
            raise NotFoundError(f"unknown document id: {doc_id!r}") from None
        return document.to_dict()

    @router.post("/rank")
    def rank(request: Request):
        parsed = RankRequest.parse(request.body)
        try:
            ranking = engine.rank(parsed.query, parsed.k)
        except IndexStateError as error:  # every document was removed
            raise BadRequestError(str(error)) from None
        return {
            "query": parsed.query,
            "k": parsed.k,
            "ranking": ranking.to_dicts(),
        }

    # -- index management -------------------------------------------------------

    @router.get("/index")
    def index_info(_: Request):
        return engine.index_info()

    @router.post("/index/save")
    def save_index_route(request: Request):
        path = parse_index_save(request.body)
        index = engine.index
        if not hasattr(index, "export_snapshot"):
            # Packed/replica views are already a committed v3 index.
            raise BadRequestError(
                "this engine serves a read-only on-disk index, which is "
                "already saved"
            )
        from repro.index.storage import save_index

        try:
            save_index(index, path)
        except (IndexFormatError, OSError) as error:
            raise BadRequestError(str(error)) from None
        return HttpResponse(201, {"saved_to": path, "format": "v3"})

    @router.post("/index/documents")
    def ingest_documents(request: Request):
        documents = parse_index_ingest(
            request.body, max_items=max_ingest_items
        )
        try:
            added = engine.add_documents(documents)
        except ReadOnlyIndexError as error:  # replica / packed view
            raise BadRequestError(str(error)) from None
        except ValueError as error:  # duplicate ids
            raise BadRequestError(str(error)) from None
        return HttpResponse(
            201, {"added": added, **engine.index_info()}
        )

    @router.delete("/index/documents/{doc_id}")
    def remove_document(request: Request):
        doc_id = request.path_params["doc_id"]
        try:
            engine.remove_document(doc_id)
        except ReadOnlyIndexError as error:  # replica / packed view
            raise BadRequestError(str(error)) from None
        except DocumentNotFoundError:
            raise NotFoundError(f"unknown document id: {doc_id!r}") from None
        return {"removed": doc_id, **engine.index_info()}

    # -- unified explanation surface ------------------------------------------

    @router.post("/explanations")
    def explain(request: Request):
        profile = parse_profile_flag(request.body)
        parsed = parse_explain_request(request.body)
        _admit(request)
        response = _run_explain(service, parsed)
        payload = _attach_instance_bodies(engine, response.to_dict())
        if profile:
            # The per-stage breakdown of *this* request's trace; when no
            # tracer is attached the block degrades to {"enabled": False}.
            payload["debug"] = profile_block(current_trace())
        return payload

    @router.post("/explanations/stream")
    def explain_stream(request: Request):
        parsed = parse_explain_request(request.body)
        _admit(request)
        # The chunk generator runs after dispatch returns (the response
        # is streamed), so hand the request's trace context to the
        # worker explicitly — spans land in the original trace.
        trace_context = capture_context()

        def chunks():
            sink = ProgressSink()
            outcome: dict = {}

            def run() -> None:
                try:
                    with activate_context(trace_context), search_progress(sink):
                        outcome["response"] = service.explain(
                            parsed, priority=Priority.INTERACTIVE
                        )
                except Exception as error:  # noqa: BLE001 - streamed below
                    outcome["error"] = error

            worker = threading.Thread(
                target=run, name="explain-stream", daemon=True
            )
            worker.start()
            seen = 0
            while worker.is_alive():
                worker.join(STREAM_POLL_SECONDS)
                if sink.updates != seen:
                    seen = sink.updates
                    snapshot = sink.snapshot()
                    if snapshot is not None:
                        yield {"event": "progress", **snapshot}
            if "error" in outcome:
                error = outcome["error"]
                yield {
                    "event": "error",
                    "error": {
                        "type": type(error).__name__,
                        "message": str(error),
                    },
                }
                return
            yield {
                "event": "result",
                "response": _attach_instance_bodies(
                    engine, outcome["response"].to_dict()
                ),
            }

        return StreamingResponse(200, chunks())

    @router.post("/explanations/batch")
    def explain_batch(request: Request):
        parsed = parse_explain_batch(request.body, max_items=max_batch_items)
        priority = parse_request_priority(
            request.body, default=Priority.INTERACTIVE
        )
        try:
            responses = service.run_batch(
                parsed, priority=priority, client_id=_client_id(request)
            )
        except AdmissionError as error:
            raise _admission_to_http(error) from None
        except PoolShutdownError as error:
            raise ServiceUnavailableError(str(error)) from None
        return {
            "count": len(responses),
            "responses": [
                _attach_instance_bodies(engine, response.to_dict())
                if response.ok
                else response.to_dict()
                for response in responses
            ],
        }

    # -- async jobs & observability --------------------------------------------

    def _job_payload(job) -> dict:
        payload = job.to_dict()
        for response in payload["responses"]:
            if response is not None and "error" not in response:
                _attach_instance_bodies(engine, response)
        return payload

    @router.post("/jobs")
    def submit_job(request: Request):
        parsed = parse_job_submission(request.body, max_items=max_batch_items)
        priority = parse_request_priority(request.body)
        try:
            job = service.submit(
                parsed, priority=priority, client_id=_client_id(request)
            )
        except AdmissionError as error:
            raise _admission_to_http(error) from None
        except PoolShutdownError as error:
            raise ServiceUnavailableError(str(error)) from None
        return HttpResponse(202, job.to_dict(include_responses=False))

    @router.get("/jobs/{job_id}")
    def job_status(request: Request):
        job_id = request.path_params["job_id"]
        try:
            job = service.job(job_id)
        except JobNotFoundError as error:
            raise NotFoundError(str(error)) from None
        return _job_payload(job)

    @router.get("/jobs/{job_id}/progress")
    def job_progress(request: Request):
        job_id = request.path_params["job_id"]
        try:
            job = service.job(job_id)
        except JobNotFoundError as error:
            raise NotFoundError(str(error)) from None
        return job.progress_dict()

    @router.delete("/jobs/{job_id}")
    def cancel_job(request: Request):
        job_id = request.path_params["job_id"]
        try:
            job = service.cancel(job_id)
        except JobNotFoundError as error:
            raise NotFoundError(str(error)) from None
        return job.to_dict(include_responses=False)

    @router.get("/metrics")
    def metrics(request: Request):
        format = request.query_params.get("format", "json")
        snapshot = service.metrics_snapshot()
        if format == "prometheus":
            return TextResponse(
                200,
                render_prometheus(snapshot),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        if format != "json":
            raise BadRequestError(
                f"'format' must be 'json' or 'prometheus', got {format!r}"
            )
        return snapshot

    # -- request traces (the debug surface; see repro.obs) ---------------------

    def _tracer():
        return router.tracer

    @router.get("/debug/traces")
    def debug_traces(request: Request):
        tracer = _tracer()
        if tracer is None:
            return {"enabled": False, "count": 0, "traces": []}
        slow = request.query_params.get("slow") in ("1", "true")
        summaries = [trace.summary() for trace in tracer.traces(slow=slow)]
        payload = {
            "enabled": tracer.enabled,
            "count": len(summaries),
            "traces": summaries,
        }
        if tracer.slow_threshold_ms is not None:
            payload["slow_threshold_ms"] = tracer.slow_threshold_ms
        return payload

    @router.get("/debug/traces/{request_id}")
    def debug_trace_detail(request: Request):
        tracer = _tracer()
        request_id = request.path_params["request_id"]
        trace = None if tracer is None else tracer.trace_for(request_id)
        if trace is None:
            raise NotFoundError(f"no retained trace for {request_id!r}")
        return trace.to_dict()

    @router.post("/builder/rerank")
    def builder_rerank(request: Request):
        parsed = BuilderRequest.parse(request.body)
        try:
            result = engine.build_counterfactual(
                parsed.query,
                parsed.doc_id,
                perturbations=(
                    list(parsed.perturbations)
                    if parsed.perturbations is not None
                    else None
                ),
                edited_body=parsed.edited_body,
                k=parsed.k,
            )
        except (RankingError, DocumentNotFoundError, IndexStateError) as error:
            raise BadRequestError(str(error)) from None
        return result.to_dict()

    @router.post("/topics")
    def topics(request: Request):
        parsed = TopicsRequest.parse(request.body)
        try:
            summary = engine.topics(
                parsed.query,
                k=parsed.k,
                num_topics=parsed.num_topics,
                terms_per_topic=parsed.terms_per_topic,
            )
        except IndexStateError as error:
            raise BadRequestError(str(error)) from None
        return {"query": parsed.query, "topics": summary.to_dicts()}

    return router
