"""Service-layer throughput — parallel batch + result store vs sequential.

PR 2's scoring sessions made a single explanation 8–112× cheaper; the
service layer turns that per-item speed into system throughput. This
benchmark runs one realistic batch workload (several strategies over
the demo top-k, with repeated requests, deterministically shuffled)
down both paths:

* **sequential** — a fresh engine's plain ``explain_batch`` (the
  pre-service serving path: every item computed in the request thread);
* **service** — a fresh engine's ``explain_batch(workers=4)``, i.e.
  the worker pool plus the version-keyed result store.

The acceptance target is **≥ 2× batch throughput at 4 workers** with a
**> 0 cache hit rate** on the repeated requests, and byte-identical
responses. Note the win is architectural, not GIL-defying: repeats are
answered from the store, and distinct items overlap queueing/bookkeeping
— exactly how the deployed demo absorbs repeated interactive queries.

Full runs write ``BENCH_service_throughput.json`` next to this file
(checked in). ``SERVICE_SMOKE=1`` (used by ``scripts/check.sh``) runs
the same workload once with a relaxed floor so a loaded CI box doesn't
flake the gate, and leaves the JSON untouched.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.datasets.covid import DEMO_QUERY, covid_corpus
from repro.eval.reporting import Table

K = 10
WORKERS = 4
#: Each distinct request appears this many times in the workload.
REPEATS = 4
SMOKE = os.environ.get("SERVICE_SMOKE") == "1"
#: Smoke mode only guards against regressions; the acceptance target is
#: asserted on full runs.
MIN_SPEEDUP = 1.2 if SMOKE else 2.0
JSON_PATH = Path(__file__).with_name("BENCH_service_throughput.json")

STRATEGIES = (
    ("document/sentence-removal", {}),
    ("query/augmentation", {"n": 2, "threshold": 2}),
    ("document/greedy", {}),
)


def _fresh_engine() -> CredenceEngine:
    return CredenceEngine(covid_corpus(), EngineConfig(ranker="bm25", seed=5))


def _workload() -> list[ExplainRequest]:
    """Distinct (doc, strategy) requests, each repeated REPEATS times,
    shuffled deterministically so repeats interleave like live traffic."""
    ranking = _fresh_engine().rank(DEMO_QUERY, K)
    doc_ids = [entry.doc_id for entry in ranking][:4]
    distinct = [
        ExplainRequest(DEMO_QUERY, doc_id, strategy=strategy, k=K, **knobs)
        for doc_id in doc_ids
        for strategy, knobs in STRATEGIES
    ]
    requests = distinct * REPEATS
    random.Random(13).shuffle(requests)
    return requests


def _canonical(responses) -> list[str]:
    items = []
    for response in responses:
        payload = response.to_dict()
        payload.pop("elapsed_seconds", None)
        items.append(json.dumps(payload, sort_keys=True))
    return items


def test_service_throughput_at_4_workers(capsys):
    requests = _workload()

    sequential_engine = _fresh_engine()
    start = time.perf_counter()
    sequential = sequential_engine.explain_batch(requests)
    sequential_seconds = time.perf_counter() - start

    service_engine = _fresh_engine()
    try:
        start = time.perf_counter()
        parallel = service_engine.explain_batch(requests, workers=WORKERS)
        service_seconds = time.perf_counter() - start
        store_stats = service_engine.service().store.stats()
        metrics = service_engine.service().metrics_snapshot()
    finally:
        service_engine.service().shutdown()

    assert _canonical(parallel) == _canonical(sequential), (
        "parallel responses diverged from the sequential path"
    )

    items = len(requests)
    sequential_throughput = items / sequential_seconds
    service_throughput = items / service_seconds
    speedup = service_throughput / sequential_throughput

    table = Table(
        ["path", "items", "total s", "items/s", "speedup"],
        title=(
            f"batch throughput: sequential vs service "
            f"({WORKERS} workers, x{REPEATS} repeated requests)"
        ),
    )
    table.add("sequential explain_batch", items,
              f"{sequential_seconds:.3f}", f"{sequential_throughput:.1f}", "-")
    table.add(f"service pool ({WORKERS} workers)", items,
              f"{service_seconds:.3f}", f"{service_throughput:.1f}",
              f"{speedup:.2f}x")
    table.add("store hit rate", "-", "-", "-",
              f"{100 * store_stats['hit_rate']:.0f}%")
    with capsys.disabled():
        print()
        print(table.render())

    assert store_stats["hits"] > 0, "repeated requests never hit the store"
    assert speedup >= MIN_SPEEDUP, (
        f"service throughput speedup {speedup:.2f}x is below the "
        f"{MIN_SPEEDUP}x target"
    )

    if not SMOKE:
        JSON_PATH.write_text(
            json.dumps(
                {
                    "workload": {
                        "items": items,
                        "distinct_items": items // REPEATS,
                        "repeats": REPEATS,
                        "strategies": [name for name, _ in STRATEGIES],
                        "ranker": "bm25",
                        "k": K,
                    },
                    "workers": WORKERS,
                    "sequential_seconds": round(sequential_seconds, 4),
                    "service_seconds": round(service_seconds, 4),
                    "sequential_items_per_second": round(
                        sequential_throughput, 2
                    ),
                    "service_items_per_second": round(service_throughput, 2),
                    "speedup": round(speedup, 2),
                    "store": store_stats,
                    "cache_hit_rate": metrics["cache_hit_rate"],
                    "min_speedup_target": MIN_SPEEDUP,
                    "note": "architectural speedup (store hits + "
                    "overlapped bookkeeping), not GIL-defying compute "
                    "scaling — for that see BENCH_process_tier.json "
                    "(executor=\"process\")",
                },
                indent=2,
            )
            + "\n"
        )
