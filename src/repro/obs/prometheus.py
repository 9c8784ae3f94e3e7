"""Prometheus text exposition of the ``GET /metrics`` snapshot.

Renders the JSON snapshot :meth:`ExplanationService.metrics_snapshot`
already produces into exposition format 0.0.4 (the ``text/plain``
format every Prometheus scraper speaks). The mapping is total — every
JSON counter appears as a ``repro_*_total`` counter, every gauge as a
gauge, every latency window as a summary — and is pinned by
``tests/obs/test_prometheus.py`` exactly the way the JSON schema is
pinned by ``tests/service/test_metrics_schema.py``: renaming a metric
is a deliberate dashboard migration, never an accident.
"""

from __future__ import annotations

from typing import Any

#: The Content-Type a Prometheus scraper expects from a 0.0.4 endpoint.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Every metric family the renderer can emit, with HELP text and TYPE.
#: The pin test asserts the rendered output uses exactly these names.
METRIC_HELP = {
    "repro_jobs_submitted_total": ("counter", "Async jobs accepted for execution."),
    "repro_jobs_completed_total": ("counter", "Async jobs that finished every item."),
    "repro_jobs_failed_total": ("counter", "Async jobs that ended in failure."),
    "repro_jobs_cancelled_total": ("counter", "Async jobs cancelled before completion."),
    "repro_items_executed_total": ("counter", "Job items executed to completion."),
    "repro_items_failed_total": ("counter", "Job items that raised during execution."),
    "repro_items_skipped_total": ("counter", "Job items skipped by cancellation."),
    "repro_requests_admitted_total": ("counter", "Requests the admission controller let in."),
    "repro_requests_rate_limited_total": ("counter", "Requests refused by the per-client rate limit."),
    "repro_requests_shed_total": ("counter", "Requests shed at the queue-depth bound."),
    "repro_requests_rejected_open_circuit_total": (
        "counter",
        "Requests refused while the circuit breaker was open.",
    ),
    "repro_requests_rejected_draining_total": (
        "counter",
        "Requests refused during graceful drain.",
    ),
    "repro_deadline_exceeded_total": ("counter", "Requests that blew their admission deadline."),
    "repro_faults_injected_total": ("counter", "Fault-injection activations (chaos runs only)."),
    "repro_uptime_seconds": ("gauge", "Seconds since the service metrics were created."),
    "repro_metrics_snapshot_seq": ("counter", "Monotonic snapshot sequence number."),
    "repro_queue_depth": ("gauge", "Tasks enqueued but not yet picked up."),
    "repro_workers": ("gauge", "Worker threads in the explanation pool."),
    "repro_jobs_tracked": ("gauge", "Jobs retained for GET /jobs/{id}."),
    "repro_draining": ("gauge", "1 while the service refuses new work."),
    "repro_cache_hit_rate": ("gauge", "Result-store hit rate in [0, 1]."),
    "repro_store_entries": ("gauge", "Entries currently in the result store."),
    "repro_store_max_entries": ("gauge", "Result-store capacity."),
    "repro_store_ttl_seconds": ("gauge", "Result-store entry TTL (absent when none)."),
    "repro_store_hits_total": ("counter", "Result-store hits."),
    "repro_store_misses_total": ("counter", "Result-store misses."),
    "repro_store_evictions_total": ("counter", "Result-store capacity evictions."),
    "repro_store_expirations_total": ("counter", "Result-store TTL expirations."),
    "repro_analyzer_memo_entries": (
        "gauge",
        "Surface tokens in the analyzer's token memo (parent process).",
    ),
    "repro_analyzer_memo_capacity": ("gauge", "Analyzer token-memo capacity."),
    "repro_analyzer_memo_hits_total": ("counter", "Analyzer token-memo hits."),
    "repro_analyzer_memo_misses_total": (
        "counter",
        "Analyzer token-memo misses (fresh token analyses).",
    ),
    "repro_analyzer_memo_evictions_total": (
        "counter",
        "Analyzer token-memo entries evicted at capacity.",
    ),
    "repro_item_latency_seconds": ("summary", "Per-item execution latency."),
    "repro_item_latency_by_priority_seconds": (
        "summary",
        "Per-item execution latency, by admission priority.",
    ),
    "repro_admission_enabled": ("gauge", "1 when an admission controller is armed."),
    "repro_admission_rate_limit_per_client": (
        "gauge",
        "Per-client admission rate limit (requests/s; absent when none).",
    ),
    "repro_admission_rate_burst": (
        "gauge",
        "Token-bucket burst for the rate limit (absent when none).",
    ),
    "repro_admission_max_queue_depth": (
        "gauge",
        "Queue-depth bound requests are shed beyond (absent when none).",
    ),
    "repro_circuit_breaker_open": (
        "gauge",
        "1 while the circuit breaker is open or half-open (absent when unarmed).",
    ),
    "repro_fault_events_total": (
        "counter",
        "Injected fault events by site (chaos runs only).",
    ),
    "repro_executor_workers": (
        "gauge",
        "Workers in the configured execution tier (thread or process).",
    ),
    "repro_executor_tasks_dispatched_total": (
        "counter",
        "Tasks dispatched to worker processes (0 on the thread tier).",
    ),
    "repro_executor_worker_respawns_total": (
        "counter",
        "Worker processes respawned after dying mid-task.",
    ),
    "repro_executor_index_snapshots_total": (
        "counter",
        "v3 index snapshots written for worker-process attachment.",
    ),
}

#: JSON counter names → their Prometheus family name. Kept explicit (not
#: derived) so the exposition surface is greppable and pinnable.
COUNTER_METRIC = "repro_{name}_total"

#: The summary quantiles rendered from each latency window.
SUMMARY_QUANTILES = (("0.5", "p50_seconds"), ("0.95", "p95_seconds"), ("0.99", "p99_seconds"))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Lines:
    """Accumulates exposition lines, emitting HELP/TYPE once per family."""

    def __init__(self):
        self._lines: list[str] = []
        self._declared: set[str] = set()

    def sample(
        self,
        family: str,
        value: Any,
        labels: dict[str, str] | None = None,
        suffix: str = "",
    ) -> None:
        if family not in self._declared:
            kind, help_text = METRIC_HELP[family]
            self._lines.append(f"# HELP {family} {help_text}")
            self._lines.append(f"# TYPE {family} {kind}")
            self._declared.add(family)
        rendered = ""
        if labels:
            pairs = ",".join(
                f'{key}="{_escape_label_value(str(val))}"'
                for key, val in labels.items()
            )
            rendered = "{" + pairs + "}"
        self._lines.append(f"{family}{suffix}{rendered} {_format_value(value)}")

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


def _summary(
    lines: _Lines, family: str, window: dict, labels: dict[str, str] | None = None
) -> None:
    base = dict(labels or {})
    for quantile, key in SUMMARY_QUANTILES:
        lines.sample(family, window[key], {**base, "quantile": quantile})
    lines.sample(family, window["mean_seconds"] * window["count"], base or None, "_sum")
    lines.sample(family, window["count"], base or None, "_count")


def render_prometheus(snapshot: dict) -> str:
    """The full metrics snapshot in exposition format 0.0.4.

    ``snapshot`` is exactly what
    :meth:`~repro.service.scheduler.ExplanationService.metrics_snapshot`
    returns; optional sections (``admission`` = None, a TTL-less store)
    simply omit their metrics rather than inventing sentinel values.
    """
    lines = _Lines()

    for name, value in snapshot["counters"].items():
        lines.sample(COUNTER_METRIC.format(name=name), value)

    lines.sample("repro_uptime_seconds", snapshot["uptime_seconds"])
    lines.sample("repro_metrics_snapshot_seq", snapshot["snapshot_seq"])
    lines.sample("repro_queue_depth", snapshot["queue_depth"])
    lines.sample("repro_workers", snapshot["workers"])
    lines.sample("repro_jobs_tracked", snapshot["jobs_tracked"])
    lines.sample("repro_draining", snapshot["draining"])
    lines.sample("repro_cache_hit_rate", snapshot["cache_hit_rate"])

    store = snapshot["store"]
    lines.sample("repro_store_entries", store["entries"])
    lines.sample("repro_store_max_entries", store["max_entries"])
    if store.get("ttl_seconds") is not None:
        lines.sample("repro_store_ttl_seconds", store["ttl_seconds"])
    lines.sample("repro_store_hits_total", store["hits"])
    lines.sample("repro_store_misses_total", store["misses"])
    lines.sample("repro_store_evictions_total", store["evictions"])
    lines.sample("repro_store_expirations_total", store["expirations"])

    memo = snapshot["analyzer"]
    lines.sample("repro_analyzer_memo_entries", memo["entries"])
    lines.sample("repro_analyzer_memo_capacity", memo["capacity"])
    lines.sample("repro_analyzer_memo_hits_total", memo["hits"])
    lines.sample("repro_analyzer_memo_misses_total", memo["misses"])
    lines.sample("repro_analyzer_memo_evictions_total", memo["evictions"])

    _summary(lines, "repro_item_latency_seconds", snapshot["item_latency"])
    for priority, window in snapshot["latency_by_priority"].items():
        _summary(
            lines,
            "repro_item_latency_by_priority_seconds",
            window,
            {"priority": priority},
        )

    admission = snapshot["admission"]
    lines.sample("repro_admission_enabled", admission is not None)
    if admission is not None:
        for key in ("rate_limit_per_client", "rate_burst", "max_queue_depth"):
            if admission.get(key) is not None:
                lines.sample(f"repro_admission_{key}", admission[key])
        if admission.get("circuit_breaker") is not None:
            lines.sample(
                "repro_circuit_breaker_open",
                admission["circuit_breaker"] != "closed",
            )

    executor = snapshot.get("executor")
    if executor is not None:
        labels = {"kind": executor["kind"]}
        if executor.get("start_method") is not None:
            labels["start_method"] = executor["start_method"]
        lines.sample("repro_executor_workers", executor["workers"], labels)
        lines.sample(
            "repro_executor_tasks_dispatched_total",
            executor["tasks_dispatched"],
        )
        lines.sample(
            "repro_executor_worker_respawns_total",
            executor["worker_respawns"],
        )
        lines.sample(
            "repro_executor_index_snapshots_total",
            executor["index_snapshots"],
        )

    for site, count in sorted(snapshot["faults"].items()):
        lines.sample("repro_fault_events_total", count, {"site": site})

    return lines.text()
