"""Doc-sync guard: the documentation cannot silently rot.

Four contracts, enforced so the docs added with the sharded backend
stay true as the public surface evolves:

1. every public symbol exported from ``repro/__init__.py`` has a
   docstring (callables/classes) **and** is mentioned somewhere in the
   documentation set;
2. the documentation set itself exists and is substantive (README,
   architecture guide, cookbook, API hub and its per-area pages);
3. every relative link between markdown documents resolves;
4. no document or example names a removed explain or persistence
   surface.
"""

import inspect
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The documentation set the public surface must be reflected in.
REQUIRED_DOCS = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/COOKBOOK.md",
    "docs/API.md",
    "docs/api/explanations.md",
    "docs/api/search.md",
    "docs/api/sessions.md",
    "docs/api/sharding.md",
    "docs/api/persistence.md",
    "docs/api/service.md",
    "docs/api/rest.md",
    "docs/api/cli.md",
    "docs/api/observability.md",
    "docs/api/eval.md",
)


def _doc_corpus() -> str:
    parts = []
    for name in REQUIRED_DOCS:
        path = REPO_ROOT / name
        if path.exists():
            parts.append(path.read_text(encoding="utf-8"))
    return "\n".join(parts)


@pytest.mark.parametrize("name", REQUIRED_DOCS)
def test_required_doc_exists_and_is_substantive(name):
    path = REPO_ROOT / name
    assert path.exists(), f"missing documentation file: {name}"
    assert len(path.read_text(encoding="utf-8")) > 800, (
        f"{name} is a stub; the doc-sync guard expects real content"
    )


@pytest.mark.parametrize(
    "symbol", [s for s in repro.__all__ if s != "__version__"]
)
def test_public_symbol_has_docstring_and_docs(symbol):
    value = getattr(repro, symbol)
    if inspect.isclass(value) or inspect.isfunction(value) or inspect.ismodule(value):
        assert (getattr(value, "__doc__", None) or "").strip(), (
            f"repro.{symbol} has no docstring"
        )
    assert symbol in _doc_corpus(), (
        f"repro.{symbol} is exported but never mentioned in the docs "
        f"({', '.join(REQUIRED_DOCS)})"
    )


def test_api_hub_documents_the_sharding_api():
    hub = (REPO_ROOT / "docs/API.md").read_text(encoding="utf-8")
    for needle in ("ShardedIndex", "add_documents", "shards=", "api/sharding.md"):
        assert needle in hub, f"docs/API.md no longer documents {needle!r}"


#: The execution-tier surface each document must keep describing.
EXECUTION_TIER_NEEDLES = {
    "docs/ARCHITECTURE.md": (
        "Execution tiers",
        "ProcessExecutor",
        "ProcessWorkerPool",
        "WorkerSpec",
        "index_snapshots",
        "WorkerProcessDied",
    ),
    "docs/api/service.md": (
        "Execution tiers",
        "configure_executor",
        'executor="process"',
        "ProcessExecutor",
        "RemoteReproError",
        "WorkerProcessDied",
        "tasks_dispatched",
        "BENCH_process_tier.json",
    ),
    "docs/api/cli.md": (
        "--workers",
        "--executor",
        "serve --executor process",
    ),
    "docs/api/rest.md": (
        "`executor`",
        "worker_respawns",
        "index_snapshots",
        "repro_executor_workers",
    ),
}


@pytest.mark.parametrize("name", sorted(EXECUTION_TIER_NEEDLES))
def test_docs_cover_the_execution_tiers(name):
    text = (REPO_ROOT / name).read_text(encoding="utf-8")
    missing = [n for n in EXECUTION_TIER_NEEDLES[name] if n not in text]
    assert not missing, (
        f"{name} no longer documents the execution-tier surface: {missing}"
    )


#: The evaluation-harness surface each document must keep describing.
EVAL_NEEDLES = {
    "docs/api/eval.md": (
        "StudySpec",
        "run_scaled_study",
        "QualityFloors",
        "recheck_explanation",
        "stream_corpus",
        "stream_ingest",
        "load_trec_covid",
        "EVAL_SMOKE=1",
        "BENCH_large_eval.json",
        "canonical_json",
    ),
    "docs/API.md": (
        "api/eval.md",
        "run_scaled_study",
    ),
    "docs/COOKBOOK.md": (
        "StudySpec",
        "run_scaled_study",
        "stream_corpus",
        "EVAL_SMOKE=1",
    ),
}


@pytest.mark.parametrize("name", sorted(EVAL_NEEDLES))
def test_docs_cover_the_eval_harness(name):
    text = (REPO_ROOT / name).read_text(encoding="utf-8")
    missing = [n for n in EVAL_NEEDLES[name] if n not in text]
    assert not missing, (
        f"{name} no longer documents the evaluation harness: {missing}"
    )


#: Surfaces that were removed: the explain surfaces folded into
#: ``engine.explain``, ``POST /explanations`` and ``explain --strategy``,
#: the JSON index formats, ``repro compact`` and ``shards=None`` (v3 is
#: the only format; every corpus is a ``ShardedIndex``), and the thread
#: and process ingest fan-outs (ingest has one serial path). No document
#: or example may name them again.
REMOVED_SURFACES = (
    "explain_document(",
    "explain_query(",
    "explain_instance_doc2vec",
    "explain_instance_cosine",
    "/explanations/document",
    "/explanations/query",
    "/explanations/instance",
    "explain-document",
    "explain-query",
    "explain-instance",
    "DocumentExplanationRequest",
    "QueryExplanationRequest",
    "InstanceExplanationRequest",
    "STRATEGY_ALIASES",
    "with_strategy",
    "parallel=",
    "--parallel",
    "repro compact",
    "cli compact",
    "detect_format",
    "FORMAT_CHOICES",
    'format="v3"',
    "--format v2",
    "shards=None",
    "AnalysisMemo",
    "bench_sharded_ingest",
    "BENCH_sharded_ingest",
    "SHARDED_INGEST_SMOKE",
    "ingest_workers",
    "analyze_in_processes",
    "analysis_pool",
    "analyze_partitions",
    "MAX_INGEST_WORKERS",
    "TokenMemo",
)


def _user_facing_files():
    yield REPO_ROOT / "README.md"
    yield from sorted((REPO_ROOT / "docs").rglob("*.md"))
    yield from sorted((REPO_ROOT / "examples").glob("*.py"))


def test_docs_and_examples_name_no_removed_surface():
    named = [
        f"{path.relative_to(REPO_ROOT)}: {needle}"
        for path in _user_facing_files()
        for needle in REMOVED_SURFACES
        if needle in path.read_text(encoding="utf-8")
    ]
    assert not named, f"removed surfaces are still documented: {named}"


_LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)(?:#[^)]*)?\)")


def _markdown_files():
    yield REPO_ROOT / "README.md"
    yield from (REPO_ROOT / "docs").rglob("*.md")


@pytest.mark.parametrize(
    "markdown", list(_markdown_files()), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_relative_links_resolve(markdown):
    text = markdown.read_text(encoding="utf-8")
    broken = []
    for match in _LINK.finditer(text):
        target = match.group(1).strip()
        if "://" in target or target.startswith("mailto:"):
            continue
        if not (markdown.parent / target).exists():
            broken.append(target)
    assert not broken, f"{markdown.name} has broken links: {broken}"


def test_examples_referenced_by_cookbook_exist():
    cookbook = (REPO_ROOT / "docs/COOKBOOK.md").read_text(encoding="utf-8")
    referenced = set(re.findall(r"([a-z_]+\.py)", cookbook))
    existing = {path.name for path in (REPO_ROOT / "examples").glob("*.py")}
    missing = {
        name for name in referenced
        if name not in existing and name not in {"check.sh"}
    }
    # every examples/ script must be covered, and no ghost scripts cited
    assert existing <= referenced, (
        f"cookbook does not cover: {sorted(existing - referenced)}"
    )
    assert not missing, f"cookbook cites missing scripts: {sorted(missing)}"
