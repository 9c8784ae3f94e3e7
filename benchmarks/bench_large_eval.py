"""Large-corpus evaluation: streaming ingest at scale + CF-quality gates.

Two claims are pinned here, following the repo's checked-in-benchmark
convention (``BENCH_large_eval.json`` records the numbers and the cores
they were measured on):

* **Streaming ingest is corpus-size-safe.** A 500k-document Zipfian
  corpus streams through :func:`repro.datasets.stream.stream_ingest`
  into a :class:`~repro.index.sharding.ShardedIndex` without ever
  materialising the corpus — peak RSS stays within a fixed allowance of
  the final resident index (no second copy of the collection appears).
  The index then round-trips through v3 packed persistence and serves
  explanations from the mmap-attached replica.
* **Counterfactual quality holds across the full grid.** Every
  (ranker × explainer strategy × search strategy) cell of a scaled
  study meets asserted floors: CF success rate, engine-rechecked
  fidelity, minimality (mean edit size), and bounded evaluations per
  explanation. Sequential and process-tier study runs are byte-
  identical (canonical JSON).

**Core-count honesty.** Quality floors are machine-independent and are
asserted unconditionally, in smoke and full mode alike. Throughput
floors are physics and are asserted only in full mode; the JSON records
``cores`` and ``target_asserted`` so a 1-core measurement is never
mistaken for a scaling claim.

Full runs (minutes) write ``BENCH_large_eval.json`` and the rendered
``EVAL_REPORT.md`` at the repo root. ``EVAL_SMOKE=1`` (used by
``scripts/check.sh``) shrinks both corpora to run in seconds, keeps
every quality floor and the cross-tier equivalence assertion, and
leaves both artifacts untouched. The per-cell quality table is printed
before the floors are asserted, so a failing gate always shows the
numbers that tripped it.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.core.engine import CredenceEngine
from repro.core.explain import ExplainRequest
from repro.datasets.stream import (
    ZipfianVocabulary,
    sample_stream_queries,
    stream_corpus,
    stream_ingest,
)
from repro.eval.harness import rankable_instances
from repro.eval.reporting import Table
from repro.eval.scaled import QualityFloors, StudySpec, run_scaled_study
from repro.index.sharding import ShardedIndex
from repro.index.storage import load_index, save_index

CORES = len(os.sched_getaffinity(0))
SMOKE = os.environ.get("EVAL_SMOKE") == "1"
JSON_PATH = Path(__file__).with_name("BENCH_large_eval.json")
REPORT_PATH = Path(__file__).resolve().parents[1] / "EVAL_REPORT.md"

# -- streaming-ingest scale section -----------------------------------------
SCALE_DOCS = 2_000 if SMOKE else 500_000
SCALE_CHUNK = 1_000 if SMOKE else 10_000
SCALE_SHARDS = 4
SCALE_VOCAB = 5_000 if SMOKE else 30_000
#: Queries draw from mid-frequency vocabulary ranks; the band must be
#: common enough that a top-k pool exists to demote documents out of.
SCALE_QUERY_BAND = (8, 200) if SMOKE else (32, 2048)
#: Single-core floor; measured ~3.7k docs/s, so 500/s flags a 7x regression.
MIN_DOCS_PER_SECOND = 500.0
#: Peak RSS may exceed the final resident index by at most this margin —
#: a materialised second copy of a 500k-doc corpus would blow well past it.
PEAK_RSS_ALLOWANCE = 0.25  # fraction of final RSS...
PEAK_RSS_FLOOR_MB = 256.0  # ...but never tighter than this absolute slack

# -- quality-grid section ----------------------------------------------------
STUDY_DOCS = 240 if SMOKE else 1_500
STUDY_VOCAB = 1_000 if SMOKE else 3_000
STUDY_QUERY_BAND = (8, 200) if SMOKE else (16, 600)
STUDY_RANKERS = ("bm25",) if SMOKE else ("bm25", "tfidf", "lm", "neural", "ltr")
STUDY_SEARCHES = ("greedy", "anytime") if SMOKE else (
    "exhaustive", "greedy", "beam", "anytime"
)
QUERY_COUNT = 3
PER_QUERY = 1 if SMOKE else 2
K = 5
THRESHOLD = 3
SAMPLES = 25
BUDGET = 400
MIN_FIDELITY = 0.95  # over cells that produced explanations; observed 1.0

#: Floors are per strategy family because the metrics mean different
#: things: instance counterfactuals *are* a corpus scan (evaluations are
#: bounded by the study corpus, not the edit budget) and carry no edit
#: size; edit-search strategies must respect the budget and stay minimal.
FLOOR_FAMILIES = (
    (
        ("document/greedy", "document/sentence-removal"),
        QualityFloors(
            min_success_rate=0.9, max_mean_size=3.0, max_mean_candidates=BUDGET
        ),
    ),
    (
        ("query/augmentation",),
        QualityFloors(
            min_success_rate=0.7, max_mean_size=3.0, max_mean_candidates=BUDGET
        ),
    ),
    (
        ("instance/cosine", "instance/doc2vec"),
        QualityFloors(min_success_rate=0.8, max_mean_candidates=STUDY_DOCS),
    ),
    (
        ("features/ltr",),
        QualityFloors(min_success_rate=0.8, max_mean_candidates=BUDGET),
    ),
)


def _update_json(section: str, payload: dict) -> None:
    data = {}
    if JSON_PATH.exists():
        data = json.loads(JSON_PATH.read_text())
    data["cores"] = CORES
    data["note"] = (
        "quality floors are asserted unconditionally; throughput floors "
        "only in full mode (target_asserted records which applied)"
    )
    data[section] = payload
    JSON_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _study_spec(queries: tuple[str, ...]) -> StudySpec:
    return StudySpec(
        queries=queries,
        rankers=STUDY_RANKERS,
        searches=STUDY_SEARCHES,
        per_query=PER_QUERY,
        k=K,
        threshold=THRESHOLD,
        samples=SAMPLES,
        budget=BUDGET,
        seed=31,
        doc2vec_dimension=16 if SMOKE else 24,
        doc2vec_epochs=5 if SMOKE else 8,
        neural_epochs=4 if SMOKE else 6,
    )


def _quality_violations(report) -> list[str]:
    violations: list[str] = []
    for strategies, floors in FLOOR_FAMILIES:
        violations.extend(report.violations(floors, strategies=strategies))
    for cell in report.ok_cells():
        # Fidelity is checked only where explanations exist: a cell that
        # found nothing is a success-rate violation, not a fidelity one.
        if cell.found and cell.fidelity < MIN_FIDELITY:
            violations.append(
                f"{cell.ranker}/{cell.strategy}/{cell.search}: fidelity "
                f"{cell.fidelity:.3f} below floor {MIN_FIDELITY}"
            )
    return violations


def _floors_payload() -> dict:
    payload = {
        strategies[0].split("/")[0]: floors.to_dict()
        for strategies, floors in FLOOR_FAMILIES
    }
    payload["min_fidelity"] = MIN_FIDELITY
    return payload


def test_streaming_ingest_at_scale(capsys):
    vocabulary = ZipfianVocabulary.build(SCALE_VOCAB)
    index = ShardedIndex(shard_count=SCALE_SHARDS)
    report = stream_ingest(
        index,
        stream_corpus(SCALE_DOCS, seed=29, vocabulary=vocabulary),
        chunk_size=SCALE_CHUNK,
    )
    assert len(index) == SCALE_DOCS
    assert report.documents == SCALE_DOCS

    # The bound that makes "streaming" a claim rather than a word: the
    # resident index is O(corpus), but the generator-to-ingest pipeline
    # must not additionally materialise the collection.
    allowance = max(PEAK_RSS_FLOOR_MB, report.rss_after_mb * PEAK_RSS_ALLOWANCE)
    assert report.peak_rss_mb <= report.rss_after_mb + allowance, (
        f"peak RSS {report.peak_rss_mb:.0f} MB exceeds resident index "
        f"{report.rss_after_mb:.0f} MB + {allowance:.0f} MB allowance"
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scale.v3"
        start = time.perf_counter()
        save_index(index, path)
        save_seconds = time.perf_counter() - start
        start = time.perf_counter()
        attached = load_index(path)
        attach_seconds = time.perf_counter() - start
        try:
            assert len(attached) == SCALE_DOCS
            # Scale proof: the mmap-attached replica serves real
            # explanations, not just lookups.
            engine = CredenceEngine.from_index(attached)
            queries = sample_stream_queries(
                2, vocabulary=vocabulary, seed=29, rank_band=SCALE_QUERY_BAND
            )
            instances = rankable_instances(engine, queries, k=K, per_query=1)
            assert instances
            for instance in instances:
                result = engine.explain(
                    ExplainRequest(
                        instance.query,
                        instance.doc_id,
                        strategy="document/greedy",
                        k=K,
                        search="greedy",
                        budget=BUDGET,
                    )
                ).result
                assert result.explanations, (
                    f"no explanation for {instance.query!r}/{instance.doc_id}"
                )
        finally:
            attached.close()

    table = Table(("metric", "value"), title="streaming ingest at scale")
    table.add("documents", SCALE_DOCS)
    table.add("shards", SCALE_SHARDS)
    table.add("chunk size", SCALE_CHUNK)
    table.add("elapsed (s)", f"{report.elapsed_seconds:.1f}")
    table.add("docs/s", f"{report.docs_per_second:.0f}")
    table.add("RSS before (MB)", f"{report.rss_before_mb:.0f}")
    table.add("RSS after (MB)", f"{report.rss_after_mb:.0f}")
    table.add("RSS peak (MB)", f"{report.peak_rss_mb:.0f}")
    table.add("v3 save (s)", f"{save_seconds:.1f}")
    table.add("v3 attach (s)", f"{attach_seconds:.3f}")
    with capsys.disabled():
        print()
        print(table.render())

    if not SMOKE:
        assert report.docs_per_second >= MIN_DOCS_PER_SECOND, (
            f"{report.docs_per_second:.0f} docs/s below the "
            f"{MIN_DOCS_PER_SECOND:.0f} single-core floor"
        )
        _update_json(
            "streaming_ingest",
            {
                "documents": SCALE_DOCS,
                "shards": SCALE_SHARDS,
                "chunk_size": SCALE_CHUNK,
                "vocabulary": SCALE_VOCAB,
                "elapsed_seconds": round(report.elapsed_seconds, 2),
                "docs_per_second": round(report.docs_per_second, 1),
                "rss_before_mb": round(report.rss_before_mb, 1),
                "rss_after_mb": round(report.rss_after_mb, 1),
                "peak_rss_mb": round(report.peak_rss_mb, 1),
                "peak_rss_allowance_mb": round(allowance, 1),
                "v3_save_seconds": round(save_seconds, 2),
                "v3_attach_seconds": round(attach_seconds, 3),
                "min_docs_per_second": MIN_DOCS_PER_SECOND,
                "target_asserted": not SMOKE,
                "scale_proof": (
                    f"{len(instances)} document/greedy explanations served "
                    "from the mmap-attached v3 replica"
                ),
            },
        )


def test_quality_grid_with_floors(capsys):
    vocabulary = ZipfianVocabulary.build(STUDY_VOCAB)
    documents = list(
        stream_corpus(
            STUDY_DOCS, seed=31, vocabulary=vocabulary, with_priors=True
        )
    )
    index = ShardedIndex.from_documents(documents, 2)
    queries = tuple(
        sample_stream_queries(
            QUERY_COUNT,
            vocabulary=vocabulary,
            seed=31,
            rank_band=STUDY_QUERY_BAND,
        )
    )
    spec = _study_spec(queries)

    start = time.perf_counter()
    report = run_scaled_study(index, spec)
    grid_seconds = time.perf_counter() - start

    # Print before asserting: a tripped floor must show its numbers.
    with capsys.disabled():
        print()
        print(report.render_table())

    expected_cells = (
        len(spec.rankers) * len(spec.resolved_strategies()) * len(spec.searches)
    )
    assert len(report.cells) == expected_cells
    ok_cells = report.ok_cells()
    assert ok_cells
    for cell in ok_cells:
        assert not cell.errors, (
            f"{cell.ranker}/{cell.strategy}/{cell.search}: "
            f"{[f.to_dict() for f in cell.failures]}"
        )

    violations = _quality_violations(report)
    assert not violations, "quality floors violated:\n" + "\n".join(violations)

    # Cross-tier determinism: the same study through the process tier is
    # byte-identical (canonical JSON, tier and timings excluded). A small
    # bm25 sub-grid keeps the second pass cheap.
    equiv_spec = replace(
        spec,
        rankers=("bm25",),
        strategies=("document/sentence-removal", "query/augmentation"),
        searches=("greedy", "beam"),
        per_query=1,
    )
    sequential = run_scaled_study(index, equiv_spec)
    process = run_scaled_study(
        index, replace(equiv_spec, executor="process")
    )
    assert {cell.tier for cell in process.cells} == {"process"}
    assert process.canonical_json() == sequential.canonical_json()

    if not SMOKE:
        unavailable = [
            f"{c.ranker}/{c.strategy}/{c.search}"
            for c in report.cells
            if c.status == "unavailable"
        ]
        _update_json(
            "quality_grid",
            {
                "spec": spec.to_dict(),
                "study_documents": STUDY_DOCS,
                "cells_total": len(report.cells),
                "cells_ok": len(ok_cells),
                "cells_unavailable": len(unavailable),
                "unavailable": unavailable,
                "floors": _floors_payload(),
                "violations": [],
                "grid_seconds": round(grid_seconds, 1),
                "min_success_rate_observed": round(
                    min(c.success_rate for c in ok_cells), 3
                ),
                "min_fidelity_observed": round(
                    min(c.fidelity for c in ok_cells if c.found), 3
                ),
                "max_mean_size_observed": round(
                    max(c.mean_size for c in ok_cells), 3
                ),
                "process_tier_equivalence": "byte-identical canonical JSON "
                "(sequential vs executor='process', bm25 sub-grid)",
                "target_asserted": True,
                "cells": report.comparable_dict()["cells"],
            },
        )
        _write_eval_report(report, grid_seconds)


def _write_eval_report(report, grid_seconds: float) -> None:
    ingest = {}
    if JSON_PATH.exists():
        ingest = json.loads(JSON_PATH.read_text()).get("streaming_ingest", {})
    lines = [
        "# Large-corpus evaluation report",
        "",
        "Generated by `python -m pytest benchmarks/bench_large_eval.py` "
        f"(full mode) on {CORES} core(s). Machine-readable numbers live in "
        "`benchmarks/BENCH_large_eval.json`; `EVAL_SMOKE=1` reruns the "
        "same gates on a tiny corpus in seconds.",
        "",
        "## Streaming ingest at scale",
        "",
    ]
    if ingest:
        lines += [
            f"- {ingest['documents']:,} synthetic Zipfian documents "
            f"(vocabulary {ingest['vocabulary']:,}) streamed into a "
            f"{ingest['shards']}-shard index in chunks of "
            f"{ingest['chunk_size']:,} — never materialising the corpus.",
            f"- {ingest['elapsed_seconds']:.1f} s end to end "
            f"({ingest['docs_per_second']:,.0f} docs/s; floor "
            f"{ingest['min_docs_per_second']:.0f}).",
            f"- Peak RSS {ingest['peak_rss_mb']:,.1f} MB vs "
            f"{ingest['rss_after_mb']:,.1f} MB resident index after ingest "
            f"(allowance {ingest['peak_rss_allowance_mb']:,.1f} MB): "
            "no second corpus copy appears.",
            f"- v3 packed save {ingest['v3_save_seconds']:.1f} s; mmap "
            f"attach {ingest['v3_attach_seconds']:.3f} s; "
            f"{ingest['scale_proof']}.",
        ]
    else:  # pragma: no cover - ingest section skipped or reordered
        lines.append("- (streaming-ingest section not recorded this run)")
    spec_dict = report.spec.to_dict()
    lines += [
        "",
        "## Counterfactual quality grid",
        "",
        f"{len(report.cells)} cells — rankers "
        f"{', '.join(spec_dict['rankers'])}; all "
        f"{len(report.spec.resolved_strategies())} explainer strategies; "
        f"search strategies {', '.join(spec_dict['searches'])}; "
        f"{STUDY_DOCS:,}-doc study corpus, k={spec_dict['k']}, "
        f"budget={spec_dict['budget']}, {grid_seconds:.0f} s sequential.",
        "",
        report.render_markdown(),
        "",
        "## Quality floors (asserted)",
        "",
    ]
    for strategies, floors in FLOOR_FAMILIES:
        parts = [
            f"{name.replace('_', ' ')} {value}"
            for name, value in floors.to_dict().items()
            if value is not None
        ]
        lines.append(f"- {', '.join(strategies)}: {'; '.join(parts)}")
    lines += [
        f"- engine-rechecked fidelity ≥ {MIN_FIDELITY} on every cell that "
        "produced explanations",
        "- sequential and process-tier runs byte-identical "
        "(canonical JSON)",
        "",
        "`features/ltr` cells are recorded as *unavailable* for rankers "
        "that expose no feature vector (everything but LTR); availability "
        "is part of the pinned grid, not an error.",
        "",
    ]
    REPORT_PATH.write_text("\n".join(lines))
