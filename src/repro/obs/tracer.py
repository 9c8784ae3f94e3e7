"""The :class:`Tracer`: trace lifecycle + export policy in one object.

One tracer per serving surface (the REST router owns one; ``explain
--profile`` builds a throwaway). It decides whether tracing is on at
all, opens a trace around each request, and routes finished traces to
the ring, the optional JSONL file, and — above the configured threshold
— the slow-request log.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import Iterator

from repro.obs.exporters import DEFAULT_RING_CAPACITY, JsonlExporter, RingExporter
from repro.obs.trace import Trace, TraceContext, activate_context

logger = logging.getLogger(__name__)

#: The slow-request log is a second, smaller ring: slow traces are rare
#: and precious, so they must not be evicted by ordinary traffic churn.
DEFAULT_SLOW_CAPACITY = 64


class Tracer:
    """Creates, finishes, and retains traces for one serving surface.

    ``enabled=False`` builds a tracer that never installs a context, so
    every downstream instrumentation point stays on its one-``getattr``
    no-op path — the structural zero-cost mode the equivalence suite
    pins.
    """

    def __init__(
        self,
        enabled: bool = True,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        jsonl_path: str | None = None,
        slow_threshold_ms: float | None = None,
    ):
        self.enabled = enabled
        self.ring = RingExporter(ring_capacity)
        self.slow_ring = RingExporter(DEFAULT_SLOW_CAPACITY)
        self.slow_threshold_ms = slow_threshold_ms
        self.jsonl = JsonlExporter(jsonl_path) if jsonl_path else None

    @contextmanager
    def trace(
        self, name: str, request_id: str | None = None
    ) -> Iterator[Trace | None]:
        """Run the block under a fresh trace; export it on the way out.

        Yields the :class:`~repro.obs.trace.Trace` (or ``None`` when the
        tracer is disabled — callers treat that as "no tracing", they do
        not branch per span). Export happens even when the block raises:
        a failed request's trace is the one worth reading.
        """
        if not self.enabled:
            yield None
            return
        trace = Trace(name, request_id=request_id)
        try:
            with activate_context(TraceContext(trace)):
                yield trace
        finally:
            self.finish(trace)

    def finish(self, trace: Trace) -> None:
        """Stamp the duration and run the export fan-out."""
        trace.finish()
        self.ring.export(trace)
        if self.jsonl is not None:
            self.jsonl.export(trace)
        if (
            self.slow_threshold_ms is not None
            and trace.duration_ms >= self.slow_threshold_ms
        ):
            self.slow_ring.export(trace)
            logger.warning(
                "slow request %s (%s): %.1f ms >= %.1f ms threshold",
                trace.request_id,
                trace.name,
                trace.duration_ms,
                self.slow_threshold_ms,
            )

    # -- read side (GET /debug/traces) ----------------------------------------

    def traces(self, slow: bool = False) -> list[Trace]:
        """Retained traces, newest first (``slow`` reads the slow ring)."""
        return (self.slow_ring if slow else self.ring).traces()

    def trace_for(self, request_id: str) -> Trace | None:
        """Look up a retained trace by request id (either ring)."""
        found = self.ring.find(request_id)
        if found is None:
            found = self.slow_ring.find(request_id)
        return found

    def close(self) -> None:
        if self.jsonl is not None:
            self.jsonl.close()


#: A process-wide disabled tracer for call sites that want "a tracer"
#: unconditionally. It never installs a context, so sharing it is safe.
NULL_TRACER = Tracer(enabled=False, ring_capacity=1)
