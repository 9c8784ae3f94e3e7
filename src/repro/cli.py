"""Command-line interface: ``python -m repro.cli <command>``.

Headless access to the CREDENCE workflow over any JSONL corpus (or the
bundled demo corpus). Every explanation family runs through one
``explain`` command with a ``--strategy`` name:

.. code-block:: bash

    python -m repro.cli rank --query "covid outbreak" --k 10
    python -m repro.cli strategies
    python -m repro.cli explain --query "covid outbreak" \
        --doc covid-fake-5g --strategy document/sentence-removal
    python -m repro.cli explain --query "covid outbreak" \
        --doc covid-fake-5g --strategy query/augmentation --n 7 --threshold 2
    python -m repro.cli explain --query "covid outbreak" \
        --doc covid-fake-5g --strategy instance/cosine --samples 30
    python -m repro.cli explain --query "covid outbreak" \
        --doc covid-fake-5g --search beam --beam-width 4 --budget 5000
    python -m repro.cli builder --query "covid outbreak" \
        --doc covid-fake-5g --replace covid=flu --remove outbreak
    python -m repro.cli serve --port 8091 --workers 8
    python -m repro.cli rank --corpus my_docs.jsonl --ranker bm25 \
        --query "anything"
    python -m repro.cli index --corpus my_docs.jsonl --shards 4 \
        --save my_index.idx                        # packed v3
    python -m repro.cli serve --replica my_index.idx --port 8092

Async jobs against a *running* service (``serve``) go through the
``jobs`` subcommands:

.. code-block:: bash

    python -m repro.cli jobs submit --url http://127.0.0.1:8091 \
        --query "covid outbreak" --doc covid-fake-5g --doc covid-who-report
    python -m repro.cli jobs status job-1 --wait
    python -m repro.cli jobs cancel job-1
    python -m repro.cli metrics --url http://127.0.0.1:8091
    python -m repro.cli metrics --format prometheus

Observability: ``explain --profile`` prints a per-stage wall-time
breakdown to stderr (the explanation itself is byte-identical with or
without it), and ``serve`` traces every request by default — inspect
with ``GET /debug/traces`` or disable with ``--no-trace``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.engine import CredenceEngine, EngineConfig, RANKER_CHOICES
from repro.core.explain import ExplainRequest, ExplainResponse
from repro.core.perturbations import Perturbation, RemoveTerm, ReplaceTerm
from repro.core.registry import DEFAULT_REGISTRY
from repro.core.search import DEFAULT_BEAM_WIDTH, SEARCH_STRATEGIES
from repro.datasets.loaders import load_jsonl
from repro.index.sharding import ROUTER_CHOICES
from repro.datasets.queries import sample_queries
from repro.demo import demo_engine
from repro.errors import ConfigurationError, ReproError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corpus", help="JSONL corpus path (default: the bundled demo corpus)"
    )
    parser.add_argument(
        "--ranker",
        default="bm25",
        choices=RANKER_CHOICES,
        help="ranking model (default bm25; 'neural' trains the MLP reranker)",
    )
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--json", action="store_true", help="emit raw JSON")


def _build_engine(args: argparse.Namespace) -> CredenceEngine:
    if args.corpus is None:
        return demo_engine(ranker=args.ranker, seed=args.seed)
    documents = load_jsonl(args.corpus)
    training = tuple(sample_queries(documents, count=10, seed=args.seed))
    config = EngineConfig(
        ranker=args.ranker, training_queries=training, seed=args.seed
    )
    return CredenceEngine(documents, config)


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        print(text)


def _cmd_rank(args: argparse.Namespace) -> int:
    engine = _build_engine(args)
    ranking = engine.rank(args.query, k=args.k)
    lines = [
        f"{entry.rank:>3}. {entry.doc_id:<30} {entry.score:10.4f}"
        for entry in ranking
    ]
    _emit(args, {"query": args.query, "ranking": ranking.to_dicts()}, "\n".join(lines))
    return 0


# -- unified explain command ---------------------------------------------------


def _render_sentence_removal(response: ExplainResponse) -> str:
    lines = []
    for explanation in response:
        lines.append(
            f"rank {explanation.original_rank} -> {explanation.new_rank} by "
            f"removing sentence(s) {list(explanation.removed_indices)}:"
        )
        lines.extend(f"  - {s.text}" for s in explanation.removed_sentences)
    return "\n".join(lines) or "no counterfactual found"


def _render_query_augmentation(response: ExplainResponse) -> str:
    lines = [
        f"{e.augmented_query!r}: rank {e.original_rank} -> {e.new_rank}"
        for e in response
    ]
    return "\n".join(lines) or "no counterfactual found"


def _render_instance(response: ExplainResponse) -> str:
    lines = [
        f"{e.counterfactual_doc_id:<30} {e.similarity_percent:6.1f}% ({e.method})"
        for e in response
    ]
    return "\n".join(lines) or "no instances found"


def _render_feature_changes(response: ExplainResponse) -> str:
    lines = []
    for explanation in response:
        changed = ", ".join(change.describe() for change in explanation.changes)
        lines.append(
            f"rank {explanation.original_rank} -> {explanation.new_rank} by "
            f"setting {changed}"
        )
    return "\n".join(lines) or "no counterfactual found"


#: Text renderer per strategy; strategies without one fall back to JSON.
_RENDERERS = {
    "document/sentence-removal": _render_sentence_removal,
    "document/greedy": _render_sentence_removal,
    "query/augmentation": _render_query_augmentation,
    "instance/doc2vec": _render_instance,
    "instance/cosine": _render_instance,
    "features/ltr": _render_feature_changes,
}


def _render(response: ExplainResponse) -> str:
    """The text form of one response; JSON when no renderer applies."""
    renderer = _RENDERERS.get(response.strategy)
    if renderer is None or not response.ok:
        return json.dumps(response.to_dict(), ensure_ascii=False, indent=2)
    return renderer(response)


def _explain_request(args: argparse.Namespace, doc_id: str) -> ExplainRequest:
    """The request ``explain`` sends for one ``--doc``."""
    return ExplainRequest(
        query=args.query,
        doc_id=doc_id,
        strategy=args.strategy,
        n=args.n,
        k=args.k,
        threshold=args.threshold,
        samples=args.samples,
        search=args.search,
        beam_width=args.beam_width,
        budget=args.budget,
        deadline_ms=args.deadline_ms,
    )


def _run_explain(args: argparse.Namespace) -> int:
    """Build the engine, dispatch one request, and render the result."""
    engine = _build_engine(args)
    request = _explain_request(args, args.doc[0])
    debug = None
    if args.profile:
        from repro.obs import Tracer, profile_block, render_profile

        tracer = Tracer(ring_capacity=1)
        with tracer.trace("cli/explain") as trace:
            if args.stream:
                response = _explain_streaming(engine, request)
            else:
                response = engine.explain(request)
        debug = profile_block(trace)
        # The breakdown goes to stderr so stdout stays the result alone
        # (pipelines parsing it are unaffected by --profile).
        print(render_profile(debug), file=sys.stderr)
    elif args.stream:
        response = _explain_streaming(engine, request)
    else:
        response = engine.explain(request)
    payload = response.to_dict()
    if debug is not None:
        payload = {**payload, "debug": debug}
    _emit(args, payload, _render(response))
    return 0 if response.explanations else 1


def _explain_streaming(engine: CredenceEngine, request: ExplainRequest):
    """Run one explain with live progress lines on stderr.

    The search publishes through the thread-local progress channel (the
    same one ``POST /explanations/stream`` reads), so this needs no
    server: progress goes to stderr as the search runs, and the final
    rendered result goes to stdout exactly as without ``--stream``.
    """
    import threading

    from repro.core.search.progress import ProgressSink, search_progress
    from repro.obs import activate_context, capture_context

    sink = ProgressSink()
    outcome: dict = {}
    # Hand any active trace (--profile) to the worker thread.
    trace_context = capture_context()

    def run() -> None:
        try:
            with activate_context(trace_context), search_progress(sink):
                outcome["response"] = engine.explain(request)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            outcome["error"] = error

    worker = threading.Thread(target=run, name="explain-stream", daemon=True)
    worker.start()
    seen = 0
    while worker.is_alive():
        worker.join(0.05)
        if sink.updates != seen:
            seen = sink.updates
            snapshot = sink.snapshot()
            if snapshot is None:
                continue
            budget = snapshot.get("budget_remaining")
            print(
                f"  ... {snapshot['strategy']}: "
                f"{snapshot['candidates_evaluated']} candidates, "
                f"{snapshot['explanations_found']} found"
                + (f", budget left {budget}" if budget is not None else ""),
                file=sys.stderr,
            )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["response"]


def _cmd_explain(args: argparse.Namespace) -> int:
    if len(args.doc) == 1 and args.workers is None and args.executor is None:
        return _run_explain(args)
    if args.stream or args.profile:
        raise ConfigurationError(
            "--stream and --profile explain one --doc in this process; they "
            "cannot be combined with several --doc, --workers or --executor"
        )
    return _run_explain_batch(args)


def _run_explain_batch(args: argparse.Namespace) -> int:
    """Dispatch one request per ``--doc`` through ``explain_batch``.

    ``--workers N`` fans the batch across N workers and ``--executor``
    picks the tier (threads or GIL-free worker processes); results are
    byte-identical to the sequential path either way.
    """
    engine = _build_engine(args)
    responses = engine.explain_batch(
        [_explain_request(args, doc_id) for doc_id in args.doc],
        workers=args.workers,
        executor=args.executor,
    )
    _emit(
        args,
        {"responses": [response.to_dict() for response in responses]},
        "\n\n".join(
            f"[{response.doc_id}]\n{_render(response)}" for response in responses
        ),
    )
    return 0 if all(r.ok and r.explanations for r in responses) else 1


def _cmd_strategies(args: argparse.Namespace) -> int:
    engine = _build_engine(args)
    records = engine.registry.describe(engine)
    lines = []
    for record in records:
        marker = "" if record.get("available", True) else "  (unavailable)"
        lines.append(f"{record['name']:<28} {record['description']}{marker}")
    _emit(args, {"strategies": records}, "\n".join(lines))
    return 0


def _parse_edits(args: argparse.Namespace) -> list[Perturbation]:
    perturbations: list[Perturbation] = []
    for spec in args.replace or []:
        term, _, replacement = spec.partition("=")
        if not term or not replacement:
            raise SystemExit(f"--replace expects term=replacement, got {spec!r}")
        perturbations.append(ReplaceTerm(term, replacement))
    for term in args.remove or []:
        perturbations.append(RemoveTerm(term))
    if not perturbations:
        raise SystemExit("builder needs at least one --replace/--remove edit")
    return perturbations


def _cmd_builder(args: argparse.Namespace) -> int:
    engine = _build_engine(args)
    result = engine.build_counterfactual(
        args.query, args.doc, perturbations=_parse_edits(args), k=args.k
    )
    check = "VALID counterfactual" if result.is_valid_counterfactual else "not valid"
    lines = [f"rank {result.rank_before} -> {result.rank_after}  [{check}]"]
    glyph = {"raised": "^", "lowered": "v", "unchanged": "=", "revealed": "+"}
    lines.extend(
        f"  {glyph[m.direction]} {m.doc_id:<30} "
        f"{m.before if m.before is not None else '-'} -> {m.after}"
        for m in result.movements
    )
    _emit(args, result.to_dict(), "\n".join(lines))
    return 0 if result.is_valid_counterfactual else 1


def _cmd_topics(args: argparse.Namespace) -> int:
    engine = _build_engine(args)
    summary = engine.topics(args.query, k=args.k, num_topics=args.num_topics)
    lines = [
        f"topic {topic.topic_id}: "
        + ", ".join(term for term, _ in topic.terms)
        for topic in summary
    ]
    _emit(args, {"topics": summary.to_dicts()}, "\n".join(lines))
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    """Build a (sharded) index from a corpus: stats, optional save."""
    import time

    from repro.datasets.covid import covid_corpus
    from repro.index.sharding import ShardedIndex, build_router
    from repro.index.storage import save_index

    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    documents = (
        load_jsonl(args.corpus) if args.corpus is not None else covid_corpus()
    )
    start = time.perf_counter()
    index = ShardedIndex.from_documents(
        documents, args.shards, router=build_router(args.router, args.shards)
    )
    elapsed = time.perf_counter() - start
    if args.save:
        save_index(index, args.save)
    stats = index.stats()
    payload = {
        "documents": stats.document_count,
        "unique_terms": stats.unique_terms,
        "total_terms": stats.total_terms,
        "average_document_length": stats.average_document_length,
        "shards": args.shards,
        "router": index.router.name,
        "shard_documents": index.shard_sizes(),
        "ingest_seconds": round(elapsed, 4),
        "saved_to": args.save,
        "format": "v3" if args.save else None,
    }
    lines = [
        f"indexed {stats.document_count} documents "
        f"({stats.unique_terms} unique terms, "
        f"avgdl {stats.average_document_length:.1f}) in {elapsed:.2f}s",
        f"{index.shard_count} {'shard' if index.shard_count == 1 else 'shards'}"
        f" ({index.router.name} router): "
        + ", ".join(
            f"shard {i}: {size}" for i, size in enumerate(index.shard_sizes())
        ),
    ]
    if args.save:
        lines.append(f"saved to {args.save}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api.app import serve

    replica = None
    if args.replica is not None:
        from repro.datasets.queries import sample_queries as _sample
        from repro.index.persist import ReplicaIndex

        replica = ReplicaIndex(args.replica)
        training = (
            tuple(_sample(list(replica), count=10, seed=args.seed))
            if args.ranker == "neural"
            else ()
        )
        config = EngineConfig(
            ranker=args.ranker, training_queries=training, seed=args.seed
        )
        engine = CredenceEngine.from_index(replica, config=config)
        replica.watch(args.watch_interval)
    else:
        engine = _build_engine(args)
    server = serve(
        engine,
        host=args.host,
        port=args.port,
        workers=args.workers,
        executor=args.executor,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        max_queue_depth=args.max_queue,
        default_deadline_ms=args.default_deadline_ms,
        tracing=not args.no_trace,
        trace_jsonl=args.trace_jsonl,
        slow_request_ms=args.slow_ms,
    )
    pool_size = engine.service().pool.worker_count
    mode = (
        f", replica of {args.replica} @ generation {replica.generation}"
        if replica is not None
        else ""
    )
    hardening = []
    if args.executor == "process":
        hardening.append("process executor")
    if args.rate_limit is not None:
        hardening.append(f"rate limit {args.rate_limit:g}/s")
    if args.max_queue is not None:
        hardening.append(f"max queue {args.max_queue}")
    if args.default_deadline_ms is not None:
        hardening.append(f"deadline {args.default_deadline_ms:g}ms")
    extras = f", {', '.join(hardening)}" if hardening else ""
    print(
        f"CREDENCE service on {server.url} "
        f"({pool_size} explanation workers{mode}{extras}, Ctrl-C to stop)"
    )
    try:
        server._server.serve_forever()  # reuse the bound socket loop
    except KeyboardInterrupt:
        # Drain-before-exit: new requests get clean 503s immediately,
        # accepted work finishes, then the listener closes.
        engine.service().drain(wait=True)
        server.stop()
        if replica is not None:
            replica.close()
    return 0


# -- async jobs against a running service --------------------------------------


def _jobs_client(args: argparse.Namespace):
    from repro.api.client import HttpClient

    return HttpClient(args.url, timeout=args.timeout)


def _render_job(payload: dict) -> str:
    lines = [
        f"{payload['job_id']}: {payload['status']} "
        f"({payload['items_done']}/{payload['items_total']} items"
        + (
            f", {payload['items_skipped']} skipped)"
            if payload.get("items_skipped")
            else ")"
        )
    ]
    for position, state in enumerate(payload.get("items", [])):
        lines.append(f"  item {position}: {state}")
    if payload.get("error"):
        lines.append(f"  error: {payload['error']}")
    return "\n".join(lines)


def _job_exit_code(payload: dict) -> int:
    return 0 if payload["status"] in ("pending", "running", "done") else 1


def _with_connection_errors(handler):
    """Map unreachable-service errors to a clean exit-2 message."""

    def run(args: argparse.Namespace) -> int:
        try:
            return handler(args)
        except OSError as error:  # refused, reset or timed out
            print(
                f"error: cannot reach service at {args.url}: {error}",
                file=sys.stderr,
            )
            return 2

    return run


def _render_metrics(payload: dict) -> str:
    """The human form of the ``GET /metrics`` JSON snapshot."""
    lines = [
        f"uptime {payload['uptime_seconds']:.1f}s  "
        f"snapshot #{payload['snapshot_seq']}  "
        f"workers {payload['workers']}  "
        f"queue depth {payload['queue_depth']}"
        + ("  DRAINING" if payload.get("draining") else "")
    ]
    lines.append(
        f"cache hit rate {payload['cache_hit_rate']:.1%} "
        f"({payload['store']['hits']} hits / "
        f"{payload['store']['misses']} misses, "
        f"{payload['store']['entries']} entries)"
    )
    latency = payload["item_latency"]
    lines.append(
        f"item latency: {latency['count']} items, "
        f"p50 {latency['p50_seconds'] * 1000:.1f}ms  "
        f"p95 {latency['p95_seconds'] * 1000:.1f}ms  "
        f"p99 {latency['p99_seconds'] * 1000:.1f}ms"
    )
    lines.append("counters:")
    for name, value in sorted(payload["counters"].items()):
        if value:
            lines.append(f"  {name:<34} {value}")
    if not any(payload["counters"].values()):
        lines.append("  (all zero)")
    admission = payload.get("admission")
    if admission is not None:
        parts = [
            f"{key}={value}"
            for key, value in admission.items()
            if value is not None
        ]
        lines.append("admission: " + (", ".join(parts) or "armed"))
    return "\n".join(lines)


def _cmd_metrics(args: argparse.Namespace) -> int:
    client = _jobs_client(args)
    if args.format == "prometheus":
        response = client.get("/metrics?format=prometheus")
        if response.status != 200:
            print(f"error: {response.payload}", file=sys.stderr)
            return 2
        # Exposition text passes through verbatim (scrape-compatible).
        print(response.payload, end="")
        return 0
    response = client.get("/metrics")
    if response.status != 200:
        print(f"error: {response.payload.get('detail')}", file=sys.stderr)
        return 2
    payload = response.payload
    _emit(args, payload, _render_metrics(payload))
    return 0


def _cmd_jobs_submit(args: argparse.Namespace) -> int:
    search_options = {}
    if args.search is not None:
        search_options["search"] = args.search
        search_options["beam_width"] = args.beam_width
    if args.budget is not None:
        search_options["budget"] = args.budget
    if args.deadline_ms is not None:
        search_options["deadline_ms"] = args.deadline_ms
    requests = [
        {
            "query": args.query,
            "doc_id": doc,
            "strategy": args.strategy,
            "n": args.n,
            "k": args.k,
            "threshold": args.threshold,
            "samples": args.samples,
            **search_options,
        }
        for doc in args.doc
    ]
    client = _jobs_client(args)
    response = client.post("/jobs", {"requests": requests})
    if response.status != 202:
        print(f"error: {response.payload.get('detail')}", file=sys.stderr)
        return 2
    payload = response.payload
    if args.wait:
        response = _poll_job(client, payload["job_id"])
        if response.status != 200:
            print(f"error: {response.payload.get('detail')}", file=sys.stderr)
            return 2
        payload = response.payload
    _emit(args, payload, _render_job(payload))
    return _job_exit_code(payload)


def _poll_job(client, job_id: str, interval: float = 0.2):
    """Poll until the job is terminal (or the server errors); returns the
    final HttpResponse — callers must check ``.status`` before rendering
    (the job may 404 mid-poll if retention evicted it)."""
    import time

    while True:
        response = client.get(f"/jobs/{job_id}")
        if response.status != 200 or response.payload["status"] not in (
            "pending",
            "running",
        ):
            return response
        time.sleep(interval)


def _cmd_jobs_status(args: argparse.Namespace) -> int:
    client = _jobs_client(args)
    if args.wait:
        response = _poll_job(client, args.job_id)
    else:
        response = client.get(f"/jobs/{args.job_id}")
    if response.status != 200:
        print(f"error: {response.payload.get('detail')}", file=sys.stderr)
        return 2
    payload = response.payload
    _emit(args, payload, _render_job(payload))
    return _job_exit_code(payload)


def _cmd_jobs_cancel(args: argparse.Namespace) -> int:
    client = _jobs_client(args)
    response = client.delete(f"/jobs/{args.job_id}")
    if response.status != 200:
        print(f"error: {response.payload.get('detail')}", file=sys.stderr)
        return 2
    payload = response.payload
    _emit(args, payload, _render_job(payload))
    return 0


def _add_search_options(parser: argparse.ArgumentParser) -> None:
    """The counterfactual search-kernel knobs shared by explain/jobs."""
    parser.add_argument(
        "--search",
        default=None,
        choices=SEARCH_STRATEGIES,
        help="search strategy (default: the explanation family's own)",
    )
    parser.add_argument(
        "--beam-width",
        type=int,
        default=DEFAULT_BEAM_WIDTH,
        help=f"frontier width for --search beam (default {DEFAULT_BEAM_WIDTH})",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on candidate evaluations (default: family budget)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="wall-clock bound on the search in milliseconds",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CREDENCE counterfactual ranking explanations"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    rank = commands.add_parser("rank", help="rank the corpus for a query")
    _add_common(rank)
    rank.add_argument("--query", required=True)
    rank.set_defaults(handler=_cmd_rank)

    explain = commands.add_parser(
        "explain", help="run any explanation strategy (see 'strategies')"
    )
    _add_common(explain)
    explain.add_argument("--query", required=True)
    explain.add_argument(
        "--doc",
        required=True,
        action="append",
        help="document id to explain; repeat for a batch",
    )
    explain.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan the batch out across an N-worker pool "
        "(results stay byte-identical to the sequential path)",
    )
    explain.add_argument(
        "--executor",
        default=None,
        choices=("thread", "process"),
        help="execution tier for the batch: worker threads (default) "
        "or worker processes (GIL-free; scales with cores)",
    )
    explain.add_argument(
        "--strategy",
        default="document/sentence-removal",
        choices=DEFAULT_REGISTRY.names(),
        help="explanation strategy name (default document/sentence-removal)",
    )
    explain.add_argument("--n", type=int, default=1)
    explain.add_argument(
        "--threshold", type=int, default=1, help="target rank (query strategies)"
    )
    explain.add_argument(
        "--samples", type=int, default=50, help="sample count (instance/cosine)"
    )
    _add_search_options(explain)
    explain.add_argument(
        "--stream",
        action="store_true",
        help="print live search progress to stderr while the "
        "explanation runs (one --doc, no --workers/--executor)",
    )
    explain.add_argument(
        "--profile",
        action="store_true",
        help="trace the request and print a per-stage wall-time "
        "breakdown to stderr (results are byte-identical either way; "
        "one --doc, no --workers/--executor)",
    )
    explain.set_defaults(handler=_cmd_explain)

    strategies = commands.add_parser(
        "strategies", help="list the registered explanation strategies"
    )
    _add_common(strategies)
    strategies.set_defaults(handler=_cmd_strategies)

    builder = commands.add_parser(
        "builder", help="apply edits to a document and re-rank"
    )
    _add_common(builder)
    builder.add_argument("--query", required=True)
    builder.add_argument("--doc", required=True)
    builder.add_argument(
        "--replace", action="append", metavar="TERM=REPLACEMENT"
    )
    builder.add_argument("--remove", action="append", metavar="TERM")
    builder.set_defaults(handler=_cmd_builder)

    topics = commands.add_parser("topics", help="LDA topics over the top-k")
    _add_common(topics)
    topics.add_argument("--query", required=True)
    topics.add_argument("--num-topics", type=int, default=5)
    topics.set_defaults(handler=_cmd_topics)

    index_cmd = commands.add_parser(
        "index", help="build a (sharded) index from a corpus"
    )
    index_cmd.add_argument(
        "--corpus", help="JSONL corpus path (default: the bundled demo corpus)"
    )
    index_cmd.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard count (default 1, a one-shard index)",
    )
    index_cmd.add_argument(
        "--router",
        default="hash",
        choices=ROUTER_CHOICES,
        help="document-to-shard routing (default hash)",
    )
    index_cmd.add_argument(
        "--save",
        metavar="PATH",
        help="commit the index as packed v3 segments + a SQLite manifest",
    )
    index_cmd.add_argument("--json", action="store_true", help="emit raw JSON")
    index_cmd.set_defaults(handler=_cmd_index)

    serve_cmd = commands.add_parser("serve", help="run the REST service")
    _add_common(serve_cmd)
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8091)
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        help="explanation worker-pool size (default 4)",
    )
    serve_cmd.add_argument(
        "--executor",
        default="thread",
        choices=("thread", "process"),
        help="execution tier for computed explanations: worker threads "
        "(default) or worker processes attaching the index via mmap",
    )
    serve_cmd.add_argument(
        "--replica",
        metavar="PATH",
        help="serve a saved v3 index read-only, following new commits "
        "(run any number of these over one on-disk index)",
    )
    serve_cmd.add_argument(
        "--watch-interval",
        type=float,
        default=2.0,
        help="seconds between generation polls in --replica mode",
    )
    serve_cmd.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="REQ_PER_S",
        help="per-client admission rate limit (429 + Retry-After beyond it)",
    )
    serve_cmd.add_argument(
        "--rate-burst",
        type=float,
        default=None,
        help="token-bucket burst for --rate-limit (default: the rate, min 1)",
    )
    serve_cmd.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="DEPTH",
        help="shed queueing requests beyond this pool backlog (429)",
    )
    serve_cmd.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="per-request wall-clock deadline stamped at admission; "
        "overloaded requests degrade to best-effort partial results",
    )
    serve_cmd.add_argument(
        "--no-trace",
        action="store_true",
        help="disable request tracing (X-Request-Id is still accepted "
        "but /debug/traces stays empty)",
    )
    serve_cmd.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        default=None,
        help="append every finished request trace to this JSONL file",
    )
    serve_cmd.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="THRESHOLD",
        help="log requests slower than this and keep them in the "
        "slow-request ring (GET /debug/traces?slow=1)",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)

    jobs = commands.add_parser(
        "jobs", help="async explanation jobs on a running service"
    )
    jobs_commands = jobs.add_subparsers(dest="jobs_command", required=True)

    def _add_jobs_common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--url",
            default="http://127.0.0.1:8091",
            help="base URL of a running 'serve' instance",
        )
        parser.add_argument("--timeout", type=float, default=30.0)
        parser.add_argument("--json", action="store_true", help="emit raw JSON")

    submit = jobs_commands.add_parser(
        "submit", help="submit an async explanation job"
    )
    _add_jobs_common(submit)
    submit.add_argument("--query", required=True)
    submit.add_argument(
        "--doc",
        action="append",
        required=True,
        metavar="DOC_ID",
        help="instance document (repeat for a batch job)",
    )
    submit.add_argument(
        "--strategy",
        default="document/sentence-removal",
        choices=DEFAULT_REGISTRY.names(),
    )
    submit.add_argument("--n", type=int, default=1)
    submit.add_argument("--k", type=int, default=10)
    submit.add_argument("--threshold", type=int, default=1)
    submit.add_argument("--samples", type=int, default=50)
    _add_search_options(submit)
    submit.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    submit.set_defaults(handler=_with_connection_errors(_cmd_jobs_submit))

    status = jobs_commands.add_parser(
        "status", help="show a job's progress and results"
    )
    _add_jobs_common(status)
    status.add_argument("job_id")
    status.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    status.set_defaults(handler=_with_connection_errors(_cmd_jobs_status))

    cancel = jobs_commands.add_parser("cancel", help="cancel a running job")
    _add_jobs_common(cancel)
    cancel.add_argument("job_id")
    cancel.set_defaults(handler=_with_connection_errors(_cmd_jobs_cancel))

    metrics_cmd = commands.add_parser(
        "metrics", help="fetch and pretty-print a running service's /metrics"
    )
    metrics_cmd.add_argument(
        "--url",
        default="http://127.0.0.1:8091",
        help="base URL of a running 'serve' instance",
    )
    metrics_cmd.add_argument("--timeout", type=float, default=30.0)
    metrics_cmd.add_argument(
        "--json", action="store_true", help="emit the raw JSON snapshot"
    )
    metrics_cmd.add_argument(
        "--format",
        default="json",
        choices=("json", "prometheus"),
        help="prometheus prints the exposition text verbatim",
    )
    metrics_cmd.set_defaults(handler=_with_connection_errors(_cmd_metrics))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        # Library errors (unranked document, unavailable strategy, bad
        # parameter combinations) are user errors here, not crashes.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
