"""Shared benchmark fixtures.

Every figure benchmark runs against the canonical demo engine (neural
retrieve-rerank pipeline over the synthetic COVID corpus, DEMO_SEED) so
printed artefacts line up with EVAL_REPORT.md. Engines are session-scoped
and must be treated as read-only.
"""

from __future__ import annotations

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.datasets.covid import covid_corpus, covid_training_queries
from repro.demo import DEMO_SEED, demo_engine


@pytest.fixture(scope="session")
def engine() -> CredenceEngine:
    """The paper's setup: BM25 retrieval >> neural rerank."""
    return demo_engine()


@pytest.fixture(scope="session")
def bm25_engine() -> CredenceEngine:
    """The BM25 baseline engine (same corpus, same seed)."""
    return demo_engine(ranker="bm25")


@pytest.fixture(scope="session")
def engines_by_ranker(engine, bm25_engine) -> dict[str, CredenceEngine]:
    """All four ranker choices over the same corpus (for ablation A4)."""
    corpus = covid_corpus()
    return {
        "neural": engine,
        "bm25": bm25_engine,
        "tfidf": CredenceEngine(corpus, EngineConfig(ranker="tfidf", seed=DEMO_SEED)),
        "lm": CredenceEngine(corpus, EngineConfig(ranker="lm", seed=DEMO_SEED)),
    }
