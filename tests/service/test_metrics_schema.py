"""Schema-pinning tests for the metrics surface.

``GET /metrics`` is a dashboard contract: the exact key sets below are
asserted with ``==`` (not ``<=``) so adding, renaming, or dropping a
field fails loudly here and forces a deliberate docs + dashboard
update. If you extend the snapshot, extend these sets in the same
commit.
"""

from __future__ import annotations

from repro.core.explain import ExplainRequest, ExplainResponse
from repro.service.admission import AdmissionController, Priority
from repro.service.metrics import COUNTER_NAMES, ServiceMetrics
from repro.service.scheduler import ExplanationService
from repro.text.analyzer import MEMO_CAPACITY, default_analyzer

EXPECTED_COUNTERS = {
    "jobs_submitted",
    "jobs_completed",
    "jobs_failed",
    "jobs_cancelled",
    "items_executed",
    "items_failed",
    "items_skipped",
    "requests_admitted",
    "requests_rate_limited",
    "requests_shed",
    "requests_rejected_open_circuit",
    "requests_rejected_draining",
    "deadline_exceeded",
    "faults_injected",
}

LATENCY_SUMMARY_KEYS = {
    "count",
    "mean_seconds",
    "p50_seconds",
    "p95_seconds",
    "p99_seconds",
}

STORE_KEYS = {
    "entries",
    "max_entries",
    "ttl_seconds",
    "hits",
    "misses",
    "hit_rate",
    "evictions",
    "expirations",
}

#: The analyzer's token memo (``Analyzer.memo.stats()``), parent
#: process only.
ANALYZER_KEYS = {"entries", "capacity", "hits", "misses", "evictions"}

SERVICE_SNAPSHOT_KEYS = {
    "counters",
    "item_latency",
    "latency_by_priority",
    "uptime_seconds",
    "snapshot_seq",
    "store",
    "cache_hit_rate",
    "queue_depth",
    "workers",
    "admission",
    "draining",
    "faults",
    "jobs_tracked",
    "executor",
    "analyzer",
}

ADMISSION_KEYS = {
    "rate_limit_per_client",
    "rate_burst",
    "max_queue_depth",
    "circuit_breaker",
}

#: The executor block is shape-identical across both execution tiers;
#: the process-only counters read zero on the thread tier.
EXECUTOR_KEYS = {
    "kind",
    "workers",
    "start_method",
    "tasks_dispatched",
    "worker_respawns",
    "index_snapshots",
}


class _StubIndex:
    def __init__(self):
        self.version = 0
        self.analyzer = default_analyzer()


class _StubRanker:
    name = "Stub"


class _StubEngine:
    def __init__(self):
        self.index = _StubIndex()
        self.ranker = _StubRanker()

    def explain(self, request: ExplainRequest) -> ExplainResponse:
        return ExplainResponse(
            strategy=request.strategy,
            query=request.query,
            doc_id=request.doc_id,
        )


class TestMetricsSnapshot:
    def test_counter_names_are_pinned(self):
        assert set(COUNTER_NAMES) == EXPECTED_COUNTERS
        assert len(COUNTER_NAMES) == len(EXPECTED_COUNTERS)  # no dupes

    def test_snapshot_schema(self):
        snapshot = ServiceMetrics().snapshot()
        assert set(snapshot) == {
            "counters",
            "item_latency",
            "latency_by_priority",
            "uptime_seconds",
            "snapshot_seq",
        }
        assert set(snapshot["counters"]) == EXPECTED_COUNTERS
        assert all(count == 0 for count in snapshot["counters"].values())
        assert set(snapshot["item_latency"]) == LATENCY_SUMMARY_KEYS

    def test_uptime_and_snapshot_seq_are_monotonic(self):
        metrics = ServiceMetrics()
        first = metrics.snapshot()
        second = metrics.snapshot()
        assert first["snapshot_seq"] == 1
        assert second["snapshot_seq"] == 2
        assert second["uptime_seconds"] >= first["uptime_seconds"] >= 0.0

    def test_per_priority_windows_keyed_by_label(self):
        metrics = ServiceMetrics()
        metrics.record_latency(0.2, priority=Priority.INTERACTIVE)
        by_priority = metrics.snapshot()["latency_by_priority"]
        assert set(by_priority) == {"interactive", "batch"}
        for summary in by_priority.values():
            assert set(summary) == LATENCY_SUMMARY_KEYS
        assert by_priority["interactive"]["count"] == 1
        assert by_priority["batch"]["count"] == 0


class TestServiceSnapshotSchema:
    def test_full_service_snapshot_schema(self):
        service = ExplanationService(
            _StubEngine(), workers=1, admission=AdmissionController()
        )
        try:
            snapshot = service.metrics_snapshot()
            assert set(snapshot) == SERVICE_SNAPSHOT_KEYS
            assert set(snapshot["counters"]) == EXPECTED_COUNTERS
            assert set(snapshot["store"]) == STORE_KEYS
            assert set(snapshot["admission"]) == ADMISSION_KEYS
            assert snapshot["analyzer"] == {
                "entries": 0,
                "capacity": MEMO_CAPACITY,
                "hits": 0,
                "misses": 0,
                "evictions": 0,
            }
            assert snapshot["draining"] is False
            assert snapshot["faults"] == {}
            assert snapshot["workers"] == 1
            assert snapshot["queue_depth"] == 0
        finally:
            service.shutdown()

    def test_admission_is_null_when_not_configured(self):
        service = ExplanationService(_StubEngine(), workers=1)
        try:
            assert service.metrics_snapshot()["admission"] is None
        finally:
            service.shutdown()

    def test_executor_block_on_the_default_thread_tier(self):
        service = ExplanationService(_StubEngine(), workers=3)
        try:
            block = service.metrics_snapshot()["executor"]
            assert set(block) == EXECUTOR_KEYS
            assert block == {
                "kind": "thread",
                "workers": 3,
                "start_method": None,
                "tasks_dispatched": 0,
                "worker_respawns": 0,
                "index_snapshots": 0,
            }
        finally:
            service.shutdown()

    def test_executor_block_on_the_process_tier(self):
        service = ExplanationService(_StubEngine(), workers=2)
        try:
            service.configure_executor("process", workers=2)
            block = service.metrics_snapshot()["executor"]
            assert set(block) == EXECUTOR_KEYS
            assert block["kind"] == "process"
            assert block["workers"] == 2
            assert block["start_method"] is not None
        finally:
            service.shutdown()

    def test_switching_back_to_threads_restores_the_thread_block(self):
        service = ExplanationService(_StubEngine(), workers=2)
        try:
            service.configure_executor("process")
            service.configure_executor("thread")
            assert service.metrics_snapshot()["executor"]["kind"] == "thread"
            assert service.executor is None
        finally:
            service.shutdown()
