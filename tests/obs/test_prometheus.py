"""Pin the Prometheus exposition surface.

Exactly the way ``tests/service/test_metrics_schema.py`` pins the JSON
snapshot, this file pins the metric-name/label surface of
``GET /metrics?format=prometheus``: renaming a family is a deliberate
dashboard migration, never a refactoring accident.
"""

from __future__ import annotations

import re

import pytest

from repro.obs.prometheus import (
    METRIC_HELP,
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)

#: The pinned family-name surface. Adding, removing, or renaming a
#: metric must edit this list consciously.
PINNED_FAMILIES = [
    "repro_admission_enabled",
    "repro_admission_max_queue_depth",
    "repro_admission_rate_burst",
    "repro_admission_rate_limit_per_client",
    "repro_analyzer_memo_capacity",
    "repro_analyzer_memo_entries",
    "repro_analyzer_memo_evictions_total",
    "repro_analyzer_memo_hits_total",
    "repro_analyzer_memo_misses_total",
    "repro_cache_hit_rate",
    "repro_circuit_breaker_open",
    "repro_deadline_exceeded_total",
    "repro_draining",
    "repro_executor_index_snapshots_total",
    "repro_executor_tasks_dispatched_total",
    "repro_executor_worker_respawns_total",
    "repro_executor_workers",
    "repro_fault_events_total",
    "repro_faults_injected_total",
    "repro_item_latency_by_priority_seconds",
    "repro_item_latency_seconds",
    "repro_items_executed_total",
    "repro_items_failed_total",
    "repro_items_skipped_total",
    "repro_jobs_cancelled_total",
    "repro_jobs_completed_total",
    "repro_jobs_failed_total",
    "repro_jobs_submitted_total",
    "repro_jobs_tracked",
    "repro_metrics_snapshot_seq",
    "repro_queue_depth",
    "repro_requests_admitted_total",
    "repro_requests_rate_limited_total",
    "repro_requests_rejected_draining_total",
    "repro_requests_rejected_open_circuit_total",
    "repro_requests_shed_total",
    "repro_store_entries",
    "repro_store_evictions_total",
    "repro_store_expirations_total",
    "repro_store_hits_total",
    "repro_store_max_entries",
    "repro_store_misses_total",
    "repro_store_ttl_seconds",
    "repro_uptime_seconds",
    "repro_workers",
]

_WINDOW = {
    "count": 2,
    "mean_seconds": 0.25,
    "p50_seconds": 0.2,
    "p95_seconds": 0.4,
    "p99_seconds": 0.5,
}

#: A snapshot that exercises every optional branch of the renderer
#: (admission armed with every knob set, TTL store, injected faults).
FULL_SNAPSHOT = {
    "counters": {
        "jobs_submitted": 3,
        "jobs_completed": 2,
        "jobs_failed": 1,
        "jobs_cancelled": 0,
        "items_executed": 5,
        "items_failed": 1,
        "items_skipped": 0,
        "requests_admitted": 9,
        "requests_rate_limited": 1,
        "requests_shed": 0,
        "requests_rejected_open_circuit": 0,
        "requests_rejected_draining": 0,
        "deadline_exceeded": 0,
        "faults_injected": 2,
    },
    "item_latency": dict(_WINDOW),
    "latency_by_priority": {
        "interactive": dict(_WINDOW),
        "batch": dict(_WINDOW),
    },
    "uptime_seconds": 12.5,
    "snapshot_seq": 7,
    "store": {
        "entries": 4,
        "max_entries": 2048,
        "ttl_seconds": 60.0,
        "hits": 3,
        "misses": 5,
        "hit_rate": 0.375,
        "evictions": 1,
        "expirations": 2,
    },
    "analyzer": {
        "entries": 120,
        "capacity": 65536,
        "hits": 900,
        "misses": 130,
        "evictions": 10,
    },
    "cache_hit_rate": 0.375,
    "queue_depth": 1,
    "workers": 4,
    "admission": {
        "rate_limit_per_client": 10.0,
        "rate_burst": 20.0,
        "max_queue_depth": 32,
        "circuit_breaker": "open",
    },
    "draining": False,
    "faults": {"store.get": 1, "worker.execute": 1},
    "jobs_tracked": 2,
    "executor": {
        "kind": "process",
        "workers": 4,
        "start_method": "fork",
        "tasks_dispatched": 11,
        "worker_respawns": 1,
        "index_snapshots": 2,
    },
}


def _families(text: str) -> set[str]:
    names = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        names.add(re.sub(r"_(sum|count)$", "", name))
    return names


@pytest.fixture(scope="module")
def full_text() -> str:
    return render_prometheus(FULL_SNAPSHOT)


class TestPinnedSurface:
    def test_metric_help_is_pinned(self):
        assert sorted(METRIC_HELP) == PINNED_FAMILIES

    def test_full_snapshot_renders_every_family(self, full_text):
        assert _families(full_text) == set(PINNED_FAMILIES)

    def test_every_family_declares_help_and_type_once(self, full_text):
        for family, (kind, _help) in METRIC_HELP.items():
            help_lines = [
                line
                for line in full_text.splitlines()
                if line.startswith(f"# HELP {family} ")
            ]
            type_lines = [
                line
                for line in full_text.splitlines()
                if line == f"# TYPE {family} {kind}"
            ]
            assert len(help_lines) == 1, family
            assert len(type_lines) == 1, family

    def test_content_type_is_exposition_004(self):
        assert PROMETHEUS_CONTENT_TYPE == (
            "text/plain; version=0.0.4; charset=utf-8"
        )


class TestCounterCompleteness:
    """Property: every JSON counter appears in the text format."""

    def test_synthetic_counters_all_present(self, full_text):
        for name, value in FULL_SNAPSHOT["counters"].items():
            assert f"repro_{name}_total {value}" in full_text

    def test_live_snapshot_counters_all_present(self, bm25_engine):
        snapshot = bm25_engine.service().metrics_snapshot()
        text = render_prometheus(snapshot)
        for name, value in snapshot["counters"].items():
            family = f"repro_{name}_total"
            assert family in METRIC_HELP
            assert f"{family} {value:g}" in text or f"{family} {value}" in text


class TestRenderedValues:
    def test_uptime_and_seq(self, full_text):
        assert "repro_uptime_seconds 12.5" in full_text
        assert "repro_metrics_snapshot_seq 7" in full_text

    def test_booleans_render_as_01(self, full_text):
        assert "repro_draining 0" in full_text
        assert "repro_admission_enabled 1" in full_text
        assert "repro_circuit_breaker_open 1" in full_text

    def test_summaries_emit_quantiles_sum_count(self, full_text):
        assert 'repro_item_latency_seconds{quantile="0.5"} 0.2' in full_text
        assert "repro_item_latency_seconds_sum 0.5" in full_text
        assert "repro_item_latency_seconds_count 2" in full_text
        assert (
            'repro_item_latency_by_priority_seconds'
            '{priority="batch",quantile="0.99"} 0.5'
        ) in full_text

    def test_executor_block_renders_with_tier_labels(self, full_text):
        assert (
            'repro_executor_workers{kind="process",start_method="fork"} 4'
        ) in full_text
        assert "repro_executor_tasks_dispatched_total 11" in full_text
        assert "repro_executor_worker_respawns_total 1" in full_text
        assert "repro_executor_index_snapshots_total 2" in full_text

    def test_analyzer_memo_renders_size_and_counters(self, full_text):
        assert "repro_analyzer_memo_entries 120" in full_text
        assert "repro_analyzer_memo_capacity 65536" in full_text
        assert "repro_analyzer_memo_hits_total 900" in full_text
        assert "repro_analyzer_memo_misses_total 130" in full_text
        assert "repro_analyzer_memo_evictions_total 10" in full_text

    def test_thread_tier_omits_the_start_method_label(self):
        from repro.service.process import thread_executor_block

        snapshot = {**FULL_SNAPSHOT, "executor": thread_executor_block(4)}
        text = render_prometheus(snapshot)
        assert 'repro_executor_workers{kind="thread"} 4' in text
        assert "start_method" not in text

    def test_fault_sites_become_labels(self, full_text):
        assert 'repro_fault_events_total{site="store.get"} 1' in full_text
        assert 'repro_fault_events_total{site="worker.execute"} 1' in full_text

    def test_optional_sections_are_omitted_not_sentinelled(self):
        bare = {
            key: value
            for key, value in FULL_SNAPSHOT.items()
            if key not in ("admission",)
        }
        bare["admission"] = None
        bare["store"] = {**FULL_SNAPSHOT["store"], "ttl_seconds": None}
        bare["faults"] = {}
        text = render_prometheus(bare)
        assert "repro_admission_enabled 0" in text
        assert "repro_admission_rate_limit" not in text
        assert "repro_circuit_breaker_open" not in text
        assert "repro_store_ttl_seconds" not in text
        assert "repro_fault_events_total" not in text

    def test_label_values_are_escaped(self):
        snapshot = {**FULL_SNAPSHOT, "faults": {'we"ird\nsite\\x': 1}}
        text = render_prometheus(snapshot)
        assert r'site="we\"ird\nsite\\x"' in text

    def test_output_ends_with_newline(self, full_text):
        assert full_text.endswith("\n")
