"""repro — a full reproduction of CREDENCE (ICDE 2023).

CREDENCE generates counterfactual explanations for black-box document
rankers: minimal sentence removals that demote a document, minimal query
augmentations that promote it, similar non-relevant instances, and
interactive build-your-own perturbations.

Quickstart — every explanation family goes through one call::

    from repro import ExplainRequest, demo_engine, DEMO_QUERY, FAKE_NEWS_DOC_ID

    engine = demo_engine()
    ranking = engine.rank(DEMO_QUERY, k=10)
    response = engine.explain(
        ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID,
                       strategy="document/sentence-removal")
    )
    for explanation in response:
        print(explanation.to_dict())

Strategies (``engine.available_strategies()``):
``document/sentence-removal``, ``document/greedy``,
``query/augmentation``, ``instance/doc2vec``, ``instance/cosine``, and
``features/ltr`` for feature-based rankers. Batch traffic goes through
``engine.explain_batch([...])``, which shares caches across items and
reports per-item latency — pass ``workers=N`` to fan it out across the
engine's explanation service (``engine.service()``: async jobs, a
bounded worker pool, and a version-keyed result store).

Every family runs on one counterfactual search kernel
(:mod:`repro.core.search`): pick the exploration strategy per request
with ``search="exhaustive" | "greedy" | "beam" | "anytime"`` plus
``beam_width``/``budget``/``deadline_ms`` — see docs/API.md
("Search strategies & budgets").

Corpora persist in one on-disk format, the packed v3 format
(:mod:`repro.index.persist`), which gives O(1) warm restarts and
read-only replicas::

    save_index(engine.index, "corpus.idx")
    engine = CredenceEngine.load("corpus.idx")   # attaches, no rebuild

See :mod:`repro.core` for the explainers and registry, :mod:`repro.api`
for the REST service, :mod:`repro.service` for the serving layer, and
docs/API.md for the request/response model.
"""

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest, ExplainResponse
from repro.core.registry import DEFAULT_REGISTRY, available_strategies
from repro.demo import (
    DEMO_K,
    DEMO_QUERY,
    DEMO_SEED,
    FAKE_NEWS_DOC_ID,
    NEAR_COPY_DOC_ID,
    demo_engine,
)
from repro.core.search import (
    SEARCH_STRATEGIES,
    AnytimeSearch,
    BeamSearch,
    ExhaustiveSearch,
    GreedySearch,
    SearchBudget,
)
from repro.errors import ReproError
from repro.index.document import Document
from repro.index.persist import ReplicaIndex, attach_packed
from repro.index.sharding import HashRouter, RoundRobinRouter, ShardedIndex
from repro.index.storage import load_index, save_index
from repro.service import (
    ExplainJob,
    ExplanationService,
    JobStatus,
    ResultStore,
)

__version__ = "1.0.0"

__all__ = [
    "CredenceEngine",
    "EngineConfig",
    "ExplainRequest",
    "ExplainResponse",
    "DEFAULT_REGISTRY",
    "available_strategies",
    "DEMO_K",
    "DEMO_QUERY",
    "DEMO_SEED",
    "FAKE_NEWS_DOC_ID",
    "NEAR_COPY_DOC_ID",
    "demo_engine",
    "SEARCH_STRATEGIES",
    "AnytimeSearch",
    "BeamSearch",
    "ExhaustiveSearch",
    "GreedySearch",
    "SearchBudget",
    "ReproError",
    "Document",
    "HashRouter",
    "ReplicaIndex",
    "RoundRobinRouter",
    "ShardedIndex",
    "attach_packed",
    "load_index",
    "save_index",
    "ExplainJob",
    "ExplanationService",
    "JobStatus",
    "ResultStore",
    "__version__",
]
