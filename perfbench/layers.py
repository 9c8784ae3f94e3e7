"""The one table of per-layer metrics and the public functions they wrap.

:data:`WRAPS` names, for every frame the traced run records, the public
functions or methods it wraps (``module:Class.attribute``). A frame's
name starts with its layer. :data:`METRICS` maps every per-layer metric
the benchmark reports to the frame it is read from and how.

A renamed or removed target makes :func:`instrumentation` raise
:class:`~perfbench.tracing.TargetMissing` before anything runs, and
:func:`missing_calls` reports a frame a workload expects to be called
that recorded no calls, so a rename never reads as a zero.
"""

from __future__ import annotations

from perfbench.tracing import COUNTER, SPAN, Instrumentation, Recorder, Target


def _evaluated_and_found(result) -> tuple[int, int]:
    found, trace = result
    return trace.candidates_evaluated, len(found)


def _documents_added(result) -> int:
    """``add_documents`` returns a count, ``from_documents`` the index."""
    return result if isinstance(result, int) else len(result)


def _segment_bytes(record) -> int:
    return sum(segment.bytes for segment in record.segments)


def _client_request_id(args, kwargs) -> str | None:
    return (kwargs.get("headers") or {}).get("X-Request-Id")


def _server_request_id(args, kwargs) -> str | None:
    return args[1].headers.get("x-request-id")


_INDEX_CLASSES = (
    "repro.index.inverted:InvertedIndex",
    "repro.index.sharding:ShardedIndex",
    "repro.index.persist.packed:PackedIndex",
    "repro.index.persist.packed:PackedShardedIndex",
)
_SESSION_METHODS = (
    "baseline", "rank_with_substitution", "ranking_with_substitution",
    "rank_without_sentences",
)
_GENERATORS = (
    "SentenceRemovalGenerator", "QueryTermGenerator",
    "PerturbationOpsGenerator", "StaticCandidates",
)
_STRATEGIES = ("ExhaustiveSearch", "GreedySearch", "BeamSearch", "AnytimeSearch")

#: frame name -> (kind, wrapped functions, items read from each result)
WRAPS: dict[str, tuple[str, tuple[str, ...], object]] = {
    "text.analyze": (COUNTER, ("repro.text.analyzer:Analyzer.analyze",), None),
    "index.search": (SPAN, ("repro.index.searcher:IndexSearcher.search",), len),
    "index.score_all": (
        SPAN, ("repro.index.searcher:IndexSearcher.score_all",), len,
    ),
    "index.add_documents": (
        SPAN,
        tuple(
            f"{cls}.{method}"
            for cls in _INDEX_CLASSES[:2]
            for method in ("from_documents", "add_documents")
        ),
        _documents_added,
    ),
    "index.postings": (
        COUNTER, tuple(f"{cls}.postings" for cls in _INDEX_CLASSES), None,
    ),
    "index.doc_ids": (
        COUNTER, tuple(f"{cls}.doc_ids" for cls in _INDEX_CLASSES), None,
    ),
    "persist.save_v3": (
        SPAN, ("repro.index.persist.writer:save_v3",), _segment_bytes,
    ),
    "persist.attach": (SPAN, ("repro.index.storage:load_index",), None),
    "ranking.rank": (
        SPAN,
        ("repro.ranking.lexical:LexicalRanker.rank", "repro.ranking.cache:ScoreCache.rank"),
        None,
    ),
    "ranking.session_open": (
        COUNTER,
        (
            "repro.ranking.base:Ranker.scoring_session",
            "repro.ranking.lexical:LexicalRanker.scoring_session",
            "repro.ranking.cache:ScoreCache.scoring_session",
        ),
        None,
    ),
    "ranking.session_score": (
        COUNTER,
        tuple(
            f"repro.ranking.session:{cls}.{method}"
            for cls in ("IncrementalScoringSession", "NaiveScoringSession")
            for method in _SESSION_METHODS
        )
        + tuple(
            f"repro.ranking.session:IncrementalScoringSession.{method}"
            for method in ("rank_with_score", "ranking_with_score")
        ),
        None,
    ),
    "search.generate": (
        COUNTER,
        tuple(f"repro.core.search.candidates:{cls}.generate" for cls in _GENERATORS),
        len,
    ),
    "search.run": (
        SPAN,
        tuple(f"repro.core.search.strategies:{cls}.search" for cls in _STRATEGIES),
        _evaluated_and_found,
    ),
    "engine.rank": (SPAN, ("repro.core.engine:CredenceEngine.rank",), None),
    "engine.explain": (SPAN, ("repro.core.engine:CredenceEngine.explain",), None),
    "engine.builder": (
        SPAN, ("repro.core.engine:CredenceEngine.build_counterfactual",), None,
    ),
    # The engine trains through the name it imported, so that is the one
    # to wrap.
    "embeddings.doc2vec_train": (SPAN, ("repro.core.engine:train_doc2vec",), None),
    "embeddings.lookup": (
        COUNTER,
        tuple(
            f"repro.embeddings.doc2vec:Doc2Vec.{method}"
            for method in ("vector", "most_similar", "similarity", "__contains__")
        ),
        None,
    ),
    "service.admit": (
        SPAN, ("repro.service.scheduler:ExplanationService.admit",), None,
    ),
    "service.explain": (
        SPAN, ("repro.service.scheduler:ExplanationService.explain",), None,
    ),
    "service.metrics_snapshot": (
        COUNTER, ("repro.service.scheduler:ExplanationService.metrics_snapshot",), None,
    ),
    "service.store_get": (
        COUNTER, ("repro.service.store:ResultStore.get",),
        lambda response: int(response is not None),
    ),
    "service.store_put": (COUNTER, ("repro.service.store:ResultStore.put",), None),
    "api.dispatch": (SPAN, ("repro.api.http:Router.dispatch",), None),
    "api.client": (SPAN, ("repro.api.client:HttpClient.post",), None),
}

_REQUEST_IDS = {"api.dispatch": _server_request_id, "api.client": _client_request_id}

#: Layers in the order the per-request share metrics are reported.
LAYERS = (
    "text", "index", "persist", "ranking", "search", "engine",
    "embeddings", "service", "api",
)

#: per-layer metric -> (frame, statistic); units are in BENCHMARK.json.
#: Statistics: ``calls``, ``ms``, ``self_ms`` and ``items`` are per
#: request of the measured run; ``setup_*`` ones are per set-up;
#: ``derived`` ones are computed in :func:`per_layer_metrics` from the
#: frames named in the comment.
METRICS: dict[str, tuple[str, str]] = {
    "index.search.calls": ("index.search", "calls"),
    "index.search.self_ms": ("index.search", "self_ms"),
    # docs scored by score_all / hits returned by search
    "index.scored_per_hit": ("index.score_all", "derived"),
    "index.postings.calls": ("index.postings", "calls"),
    "index.postings.ms": ("index.postings", "ms"),
    "index.doc_ids.calls": ("index.doc_ids", "calls"),
    "index.doc_ids.ms": ("index.doc_ids", "ms"),
    "ranking.rank.self_ms": ("ranking.rank", "self_ms"),
    "ranking.session.opens": ("ranking.session_open", "calls"),
    "ranking.session.open_ms": ("ranking.session_open", "ms"),
    "ranking.session.scores": ("ranking.session_score", "calls"),
    "ranking.session.score_ms": ("ranking.session_score", "ms"),
    # ScoreCache.hits / (hits + misses) over the measured run
    "ranking.score_cache.hit_ratio": ("ranking.rank", "derived"),
    "search.generate.calls": ("search.generate", "calls"),
    "search.generate.candidates": ("search.generate", "items"),
    "search.generate.ms": ("search.generate", "ms"),
    "search.run.self_ms": ("search.run", "self_ms"),
    # candidates evaluated / counterfactuals found, over search.run
    "search.evals_per_cf": ("search.run", "derived"),
    "engine.explain.self_ms": ("engine.explain", "self_ms"),
    "engine.builder.ms": ("engine.builder", "self_ms"),
    "text.analyze.calls": ("text.analyze", "calls"),
    "text.analyze.ms": ("text.analyze", "ms"),
    "index.add_documents.docs": ("index.add_documents", "items"),
    "index.add_documents.ms": ("index.add_documents", "ms"),
    "setup.text.analyze.calls": ("text.analyze", "setup_calls"),
    "setup.text.analyze.ms": ("text.analyze", "setup_ms"),
    "setup.index.add_documents.docs": ("index.add_documents", "setup_items"),
    "setup.index.add_documents.ms": ("index.add_documents", "setup_ms"),
    "persist.save_v3.ms": ("persist.save_v3", "setup_ms"),
    # segment bytes written / documents saved
    "persist.save_v3.bytes_per_doc": ("persist.save_v3", "derived"),
    "persist.attach.ms": ("persist.attach", "setup_ms"),
    "embeddings.doc2vec_train.ms": ("embeddings.doc2vec_train", "setup_ms"),
    "embeddings.lookup.calls": ("embeddings.lookup", "calls"),
    "embeddings.lookup.ms": ("embeddings.lookup", "ms"),
    "service.admit.ms": ("service.admit", "ms"),
    # refusals counted by ExplanationService.metrics_snapshot(), per request
    "service.admit.refused": ("service.metrics_snapshot", "derived"),
    # wait for a free connection in the open-loop generator
    "service.queue_wait_ms": ("service.explain", "derived"),
    # engine.explain time under service.explain (store misses)
    "service.compute.ms": ("service.explain", "derived"),
    # ResultStore.get calls that hit / calls
    "service.store.hit_ratio": ("service.store_get", "derived"),
    "service.store.get_ms": ("service.store_get", "ms"),
    "api.dispatch.self_ms": ("api.dispatch", "self_ms"),
    # client latency minus server dispatch: HttpClient.post self time
    "api.transport_ms": ("api.client", "self_ms"),
}


def targets() -> tuple[Target, ...]:
    return tuple(
        Target(name, path, kind, items=items, request_id=_REQUEST_IDS.get(name))
        for name, (kind, paths, items) in WRAPS.items()
        for path in paths
    )


def instrumentation(recorder: Recorder) -> Instrumentation:
    return Instrumentation(recorder, targets())


def missing_calls(recorder: Recorder, expected: tuple[str, ...]) -> list[str]:
    """Expected frames that recorded no call in any phase."""
    called = {span.name for span in recorder.spans}
    for phase in ("setup", "run"):
        called.update(
            name for name, stat in recorder.counters(phase).items() if stat.calls
        )
    return [
        f"{name} recorded no calls (wraps {', '.join(WRAPS[name][1])})"
        for name in expected
        if name not in called
    ]


def _frame_totals(recorder: Recorder, phase: str) -> dict[str, dict]:
    """calls / ms / self_ms / items per frame name for one phase."""
    totals: dict[str, dict] = {}
    self_ns = recorder.span_self_ns()
    for span in recorder.spans:
        if span.phase != phase:
            continue
        entry = totals.setdefault(
            span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "items": 0, "errors": 0}
        )
        entry["calls"] += 1
        entry["ms"] += (span.end - span.start) / 1e6
        entry["self_ms"] += self_ns[span.id] / 1e6
        entry["errors"] += span.error
        if isinstance(span.items, int):
            entry["items"] += span.items
    for name, stat in recorder.counters(phase).items():
        totals[name] = {
            "calls": stat.calls, "ms": stat.total_ns / 1e6,
            "self_ms": stat.self_ns / 1e6, "items": stat.items,
            "errors": stat.errors,
        }
    return totals


def per_layer_metrics(
    recorder: Recorder, requests: int, setups: int, extra: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric of :data:`METRICS` plus the per-request
    layer shares. ``extra`` supplies the values only the workload knows
    (cache hit ratios, queue wait, lateness)."""
    run = _frame_totals(recorder, "run")
    setup = _frame_totals(recorder, "setup")
    zero = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "items": 0, "errors": 0}
    metrics: dict[str, float] = {}
    for metric, (frame, statistic) in METRICS.items():
        if statistic == "derived":
            continue
        if statistic.startswith("setup_"):
            value = setup.get(frame, zero)[statistic[len("setup_"):]] / setups
        else:
            value = run.get(frame, zero)[statistic] / requests
        metrics[metric] = value
    hits = run.get("index.search", zero)["items"]
    metrics["index.scored_per_hit"] = (
        run.get("index.score_all", zero)["items"] / hits if hits else 0.0
    )
    evaluated = found = 0
    for span in recorder.spans:
        if span.phase == "run" and span.name == "search.run" and span.items:
            evaluated += span.items[0]
            found += span.items[1]
    metrics["search.evals_per_cf"] = evaluated / found if found else 0.0
    saves = setup.get("persist.save_v3", zero)
    metrics["persist.save_v3.bytes_per_doc"] = (
        saves["items"] / extra["documents_saved"] if saves["calls"] else 0.0
    )
    metrics["service.admit.refused"] = extra.get("admission_refused", 0) / requests
    gets = run.get("service.store_get", zero)
    metrics["service.store.hit_ratio"] = (
        gets["items"] / gets["calls"] if gets["calls"] else 0.0
    )
    by_id = {span.id: span for span in recorder.spans}
    metrics["service.compute.ms"] = sum(
        (span.end - span.start) / 1e6
        for span in recorder.spans
        if span.phase == "run"
        and span.name == "engine.explain"
        and span.parent in by_id
        and by_id[span.parent].name == "service.explain"
    ) / requests
    metrics["ranking.score_cache.hit_ratio"] = extra["score_cache_hit_ratio"]
    metrics["service.queue_wait_ms"] = extra.get("queue_wait_ms", 0.0)
    metrics.update(layer_shares(recorder))
    return metrics


def layer_shares(recorder: Recorder) -> dict[str, float]:
    """Each layer's self time as a share of the requests' latency;
    ``obs.coverage``, the share the layers account for together; and
    ``obs.requests_covered``, the share of requests whose layer self
    times sum to within 5% of their latency."""
    per_request = recorder.request_layers("run")
    latency = sum(recorder.latencies.values())
    totals = dict.fromkeys(LAYERS, 0)
    covered = 0
    for request_id, request_ns in recorder.latencies.items():
        layer_ns = 0
        for layer, ns in per_request.get(request_id, {}).items():
            if layer in totals:
                totals[layer] += ns
                layer_ns += ns
        covered += layer_ns >= 0.95 * request_ns
    shares = {
        f"layer.{layer}.share": (ns / latency if latency else 0.0)
        for layer, ns in totals.items()
    }
    shares["obs.coverage"] = sum(totals.values()) / latency if latency else 0.0
    shares["obs.requests_covered"] = (
        covered / len(recorder.latencies) if recorder.latencies else 0.0
    )
    return shares
