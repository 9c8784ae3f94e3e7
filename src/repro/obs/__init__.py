"""Observability: structured tracing, exporters, Prometheus, profiling.

The serving stack's answer to *where did this request's 240 ms go*.
A :class:`Tracer` (owned by the REST router, or built ad hoc by
``explain --profile``) opens one :class:`~repro.obs.trace.Trace` per
request; instrumentation points across the stack — admission, queue
wait, engine dispatch, the search kernel, the result store, segment
attach — emit spans through a thread-local channel that costs one
``getattr`` when tracing is off. Finished traces land in a bounded ring
(``GET /debug/traces``), optionally a JSONL file, and the slow-request
log.

The load-bearing invariant is **tracing is invisible**: explanations
are byte-identical with tracing on or off (pinned by
``tests/obs/test_equivalence.py``), a disabled instrumentation point is
one ``getattr``, and a traced request records a fixed set of spans
however much work it does (pinned by ``tests/obs/test_span_counts.py``).
"""

from repro.obs.exporters import DEFAULT_RING_CAPACITY, JsonlExporter, RingExporter
from repro.obs.profile import profile_block, render_profile
from repro.obs.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Trace,
    TraceContext,
    activate_context,
    annotate,
    capture_context,
    count,
    current_context,
    current_trace,
    event,
    event_since,
    new_request_id,
    span,
)
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "DEFAULT_RING_CAPACITY",
    "JsonlExporter",
    "NULL_SPAN",
    "NULL_TRACER",
    "PROMETHEUS_CONTENT_TYPE",
    "RingExporter",
    "Span",
    "Trace",
    "TraceContext",
    "Tracer",
    "activate_context",
    "annotate",
    "capture_context",
    "count",
    "current_context",
    "current_trace",
    "event",
    "event_since",
    "new_request_id",
    "profile_block",
    "render_profile",
    "render_prometheus",
    "span",
]
