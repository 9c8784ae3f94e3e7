"""The explainer registry: named strategies over a `CredenceEngine`.

Strategies are registered by name with a decorator::

    @DEFAULT_REGISTRY.register(
        "document/sentence-removal",
        description="minimal sentence removals demoting the document",
    )
    def _build(engine):
        return _BoundExplainer(
            "document/sentence-removal",
            lambda r: engine.document_explainer.explain(
                r.query, r.doc_id, n=r.n, k=r.k
            ),
        )

and constructed *lazily, once per engine*: the first request for a
strategy runs its factory (which may train a Doc2Vec model or build a
vectorizer) and the instance is memoised against the engine, so repeated
requests — and every item of a batch — reuse the same heavy state.

A strategy may declare an availability predicate; ``features/ltr`` for
example only applies when the engine's ranker is an
:class:`~repro.ltr.ranker.LtrRanker`. Unknown names raise
:class:`~repro.errors.UnknownStrategyError`; registered-but-inapplicable
names raise :class:`~repro.errors.StrategyUnavailableError`.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.explain import Explainer, ExplainRequest
from repro.core.search import search_overrides
from repro.core.types import ExplanationSet
from repro.errors import (
    ConfigurationError,
    StrategyUnavailableError,
    UnknownStrategyError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.core.engine import CredenceEngine


@dataclass(frozen=True)
class StrategySpec:
    """One registered strategy: its factory plus metadata."""

    name: str
    factory: Callable[["CredenceEngine"], Explainer]
    description: str = ""
    available: Callable[["CredenceEngine"], str | None] | None = None
    """``None`` (always available) or a predicate returning ``None`` when
    applicable and a human-readable reason string when not."""

    def unavailable_reason(self, engine: "CredenceEngine") -> str | None:
        return None if self.available is None else self.available(engine)


class ExplainerRegistry:
    """Maps strategy names to explainer factories, memoised per engine."""

    def __init__(self):
        self._specs: dict[str, StrategySpec] = {}
        self._instances: "weakref.WeakKeyDictionary[CredenceEngine, dict[str, Explainer]]" = (
            weakref.WeakKeyDictionary()
        )
        # _cache_lock guards the memoisation dicts only (held briefly);
        # factories run under a per-(engine, strategy) lock instead, so
        # concurrent first requests for one strategy build a single
        # shared explainer without a slow factory (e.g. Doc2Vec
        # training) blocking construction of unrelated strategies.
        self._cache_lock = threading.Lock()
        self._key_locks: dict[tuple[int, str], threading.Lock] = {}

    # -- registration ---------------------------------------------------------

    def register(
        self,
        name: str,
        *,
        description: str = "",
        available: Callable[["CredenceEngine"], str | None] | None = None,
    ):
        """Decorator registering ``factory(engine) -> Explainer`` as ``name``."""
        if not name or not name.strip():
            raise ConfigurationError("strategy name must be non-empty")

        def decorate(factory: Callable[["CredenceEngine"], Explainer]):
            if name in self._specs:
                raise ConfigurationError(
                    f"strategy {name!r} is already registered"
                )
            self._specs[name] = StrategySpec(
                name=name,
                factory=factory,
                description=description,
                available=available,
            )
            return factory

        return decorate

    # -- introspection --------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        """Every registered strategy name, sorted."""
        return tuple(sorted(self._specs))

    def resolve(self, name: str) -> StrategySpec:
        """The spec registered as ``name``, raising on unknown names."""
        spec = self._specs.get(name)
        if spec is None:
            raise UnknownStrategyError(name, self.names())
        return spec

    def available_strategies(
        self, engine: "CredenceEngine | None" = None
    ) -> tuple[str, ...]:
        """Registered names, filtered to those applicable to ``engine``."""
        if engine is None:
            return self.names()
        return tuple(
            name
            for name in self.names()
            if self._specs[name].unavailable_reason(engine) is None
        )

    def describe(self, engine: "CredenceEngine | None" = None) -> list[dict]:
        """Introspection records for ``GET /strategies`` and the CLI."""
        records = []
        for name in self.names():
            spec = self._specs[name]
            record = {"name": name, "description": spec.description}
            if engine is not None:
                reason = spec.unavailable_reason(engine)
                record["available"] = reason is None
                if reason is not None:
                    record["unavailable_reason"] = reason
            records.append(record)
        return records

    # -- construction ---------------------------------------------------------

    def get(self, engine: "CredenceEngine", name: str) -> Explainer:
        """The memoised explainer for ``(engine, name)``, built on first use.

        Thread-safe: concurrent first requests for one (engine,
        strategy) build exactly one instance, and building it never
        blocks requests for other strategies or engines.
        """
        spec = self.resolve(name)
        key = (id(engine), name)
        with self._cache_lock:
            cache = self._instances.setdefault(engine, {})
            existing = cache.get(name)
            if existing is not None:
                return existing
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._cache_lock:
                existing = cache.get(name)
                if existing is not None:  # another thread built it
                    return existing
            reason = spec.unavailable_reason(engine)
            if reason is not None:
                raise StrategyUnavailableError(name, reason)
            instance = spec.factory(engine)
            with self._cache_lock:
                cache[name] = instance
                self._key_locks.pop(key, None)  # published; lock not needed
            return instance


def _search_kwargs(request: ExplainRequest) -> dict:
    """Per-request search overrides as explainer keyword arguments.

    A request naming no search options yields ``{}``, so the bound
    explainer runs its family default — byte-identical to the
    pre-kernel dispatch.
    """
    search, budget = search_overrides(request)
    kwargs = {}
    if search is not None:
        kwargs["search"] = search
    if budget is not None:
        kwargs["budget"] = budget
    return kwargs


@dataclass(frozen=True)
class _BoundExplainer:
    """Maps request fields onto one family's ``explain(...)`` arguments,
    exposing the uniform :class:`~repro.core.explain.Explainer` protocol."""

    strategy: str
    run: Callable[[ExplainRequest], ExplanationSet]

    def explain(self, request: ExplainRequest) -> ExplanationSet:
        return self.run(request)


def ltr_ranker_of(engine: "CredenceEngine"):
    """The engine's :class:`~repro.ltr.ranker.LtrRanker`, unwrapping the
    score cache, or ``None`` when the active ranker is not feature-based."""
    from repro.ltr.ranker import LtrRanker
    from repro.ranking.cache import ScoreCache

    ranker = engine.ranker
    if isinstance(ranker, ScoreCache):
        ranker = ranker.inner
    return ranker if isinstance(ranker, LtrRanker) else None


def _requires_ltr(engine: "CredenceEngine") -> str | None:
    if ltr_ranker_of(engine) is None:
        return "the engine's ranker is not an LtrRanker (no mutable features)"
    return None


#: The process-wide registry holding the built-in strategies. Plug-in
#: strategies register here too (or construct a private registry).
DEFAULT_REGISTRY = ExplainerRegistry()


@DEFAULT_REGISTRY.register(
    "document/sentence-removal",
    description=(
        "minimal sentence removals demoting the document beyond k "
        "(exhaustive size-major search, §II-C / Fig. 2)"
    ),
)
def _document_sentence_removal(engine: "CredenceEngine") -> Explainer:
    # Close over the explainer, not the engine: memoised instances are the
    # registry's WeakKeyDictionary *values*, so capturing the engine (the
    # key) would strongly reference it and pin it for process lifetime.
    explainer = engine.document_explainer
    return _BoundExplainer(
        "document/sentence-removal",
        lambda r: explainer.explain(
            r.query, r.doc_id, n=r.n, k=r.k, **_search_kwargs(r)
        ),
    )


@DEFAULT_REGISTRY.register(
    "document/greedy",
    description=(
        "grow-then-prune sentence removals for long documents "
        "(subset-minimal, single explanation)"
    ),
)
def _document_greedy(engine: "CredenceEngine") -> Explainer:
    from repro.core.greedy import GreedyDocumentExplainer

    explainer = GreedyDocumentExplainer(engine.ranker)
    return _BoundExplainer(
        "document/greedy",
        lambda r: explainer.explain(
            r.query, r.doc_id, n=r.n, k=r.k, **_search_kwargs(r)
        ),
    )


@DEFAULT_REGISTRY.register(
    "query/augmentation",
    description=(
        "minimal query augmentations raising the document to rank "
        "<= threshold (§II-D / Fig. 3)"
    ),
)
def _query_augmentation(engine: "CredenceEngine") -> Explainer:
    explainer = engine.query_explainer  # not `engine` — see sentence-removal
    return _BoundExplainer(
        "query/augmentation",
        lambda r: explainer.explain(
            r.query,
            r.doc_id,
            n=r.n,
            k=r.k,
            threshold=r.threshold,
            **_search_kwargs(r),
        ),
    )


@DEFAULT_REGISTRY.register(
    "instance/doc2vec",
    description=(
        "nearest non-relevant corpus documents in Doc2Vec space "
        "(§II-E / Fig. 4, 'Doc2Vec Nearest')"
    ),
)
def _instance_doc2vec(engine: "CredenceEngine") -> Explainer:
    from repro.core.instance_cf import Doc2VecNearestExplainer

    # Pass the model as a callable: the memoised explainer then re-reads
    # the engine's version-keyed doc2vec property per request, so corpus
    # mutations retrain instead of pinning a stale embedding space. It
    # holds the engine weakly — see sentence-removal.
    engine_ref = weakref.ref(engine)
    explainer = Doc2VecNearestExplainer(
        engine.ranker, lambda: engine_ref().doc2vec
    )
    return _BoundExplainer(
        "instance/doc2vec",
        lambda r: explainer.explain(
            r.query, r.doc_id, n=r.n, k=r.k, **_search_kwargs(r)
        ),
    )


@DEFAULT_REGISTRY.register(
    "instance/cosine",
    description=(
        "cosine-similar sampled non-relevant documents over BM25 "
        "score vectors (§II-E / Fig. 4, 'Cosine Sampled')"
    ),
)
def _instance_cosine(engine: "CredenceEngine") -> Explainer:
    from repro.core.instance_cf import CosineSampledExplainer

    explainer = CosineSampledExplainer(
        engine.ranker, engine.bm25_vectorizer, seed=engine.config.seed
    )
    return _BoundExplainer(
        "instance/cosine",
        lambda r: explainer.explain(
            r.query, r.doc_id, n=r.n, k=r.k, samples=r.samples,
            **_search_kwargs(r),
        ),
    )


@DEFAULT_REGISTRY.register(
    "features/ltr",
    description=(
        "minimal mutable-feature changes demoting the document beyond k "
        "(feature-based rankers only)"
    ),
    available=_requires_ltr,
)
def _features_ltr(engine: "CredenceEngine") -> Explainer:
    from repro.ltr.feature_cf import FeatureCounterfactualExplainer

    explainer = FeatureCounterfactualExplainer(ltr_ranker_of(engine))
    return _BoundExplainer(
        "features/ltr",
        lambda r: explainer.explain(
            r.query, r.doc_id, n=r.n, k=r.k, **_search_kwargs(r)
        ),
    )


def available_strategies(
    engine: "CredenceEngine | None" = None,
) -> tuple[str, ...]:
    """Module-level convenience over :data:`DEFAULT_REGISTRY`."""
    return DEFAULT_REGISTRY.available_strategies(engine)
