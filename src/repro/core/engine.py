"""`CredenceEngine`: corpus + ranker + all four explainers in one facade.

This is the object the REST layer, the examples, and the benchmarks talk
to — the Python equivalent of the running CREDENCE service in Fig. 1.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.embeddings.doc2vec import Doc2Vec, train_doc2vec
from repro.embeddings.vectorizers import Bm25Vectorizer
from repro.errors import ConfigurationError, ReproError
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.sharding import ShardedIndex
from repro.ranking.base import Ranker, Ranking
from repro.ranking.bm25 import Bm25Ranker
from repro.ranking.cache import ScoreCache
from repro.ranking.lm import DirichletLmRanker
from repro.ranking.neural import train_neural_ranker
from repro.ranking.pipeline import RetrieveRerankPipeline
from repro.ranking.tfidf import TfIdfRanker
from repro.core.builder import BuilderResult, CounterfactualBuilder
from repro.core.document_cf import CounterfactualDocumentExplainer
from repro.core.explain import ExplainRequest, ExplainResponse
from repro.core.perturbations import Perturbation
from repro.core.query_cf import CounterfactualQueryExplainer
from repro.core.registry import DEFAULT_REGISTRY, ExplainerRegistry
from repro.obs.trace import span as obs_span
from repro.topics.lda import train_lda
from repro.topics.summaries import TopicSummary, summarize_topics
from repro.utils.timing import timed
from repro.utils.validation import require, require_positive

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.service.scheduler import ExplanationService

logger = logging.getLogger(__name__)

#: Ranker factory names accepted by :class:`EngineConfig`.
RANKER_CHOICES = ("bm25", "tfidf", "lm", "neural")


@dataclass
class EngineConfig:
    """Configuration for :class:`CredenceEngine`.

    Attributes:
        ranker: one of :data:`RANKER_CHOICES`. ``"neural"`` trains the MLP
            cross-scorer (the monoT5 stand-in) behind a BM25 first stage.
        training_queries: weak-supervision queries for the neural ranker;
            required when ``ranker == "neural"``.
        rerank_depth: first-stage candidate depth for the neural pipeline.
        doc2vec_dimension / doc2vec_epochs: Doc2Vec training size.
        cache_scores: memoise ranker scorings (recommended: the
            counterfactual search re-scores unperturbed documents heavily).
        seed: a single seed that derives every stochastic component.
        shards: segment count of the
            :class:`~repro.index.sharding.ShardedIndex` the engine builds
            (default 1, a plain corpus) — scores and explanations are
            byte-identical for any count.
    """

    ranker: str = "neural"
    training_queries: tuple[str, ...] = ()
    rerank_depth: int = 50
    doc2vec_dimension: int = 64
    doc2vec_epochs: int = 100
    neural_epochs: int = 30
    use_semantic_channel: bool = False
    cache_scores: bool = True
    seed: int = 13
    shards: int = 1

    def __post_init__(self):
        if self.ranker not in RANKER_CHOICES:
            raise ConfigurationError(
                f"ranker must be one of {RANKER_CHOICES}, got {self.ranker!r}"
            )
        if self.ranker == "neural" and not self.training_queries:
            raise ConfigurationError(
                "the neural ranker needs training_queries for weak supervision"
            )
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ConfigurationError(
                f"shards must be an integer ≥ 1, got {self.shards!r}"
            )


class CredenceEngine:
    """The assembled CREDENCE system over one corpus.

    ``documents`` are ingested into a
    :class:`~repro.index.sharding.ShardedIndex` of ``config.shards``
    segments through its bulk ingest; :meth:`from_index` and
    :meth:`load` wrap an index that already exists instead.

    Ranker precedence: an explicitly passed ``ranker`` object always
    wins. When both ``config`` and ``ranker`` are given, the config's
    ``ranker``/``training_queries`` fields are ignored for ranker
    construction (a warning is logged); every other config field
    (seed, caching, Doc2Vec sizing) still applies.
    """

    def __init__(
        self,
        documents: list[Document] | None = None,
        config: EngineConfig | None = None,
        ranker: Ranker | None = None,
        registry: ExplainerRegistry | None = None,
        index=None,
    ):
        require(
            (documents is None) != (index is None),
            "provide exactly one of documents or index",
        )
        self.config = config or EngineConfig(
            ranker="bm25"
        )
        self.registry = registry or DEFAULT_REGISTRY
        if index is not None:
            # An already-built corpus: a live in-memory index, a packed
            # read-only view attached from a v3 save, or a replica. The
            # warm-restart path (:meth:`load`) comes through here.
            require(len(index) > 0, "index must be non-empty")
            self.index = index
        else:
            require(bool(documents), "documents must be non-empty")
            self.index = ShardedIndex.from_documents(
                documents, self.config.shards
            )
        #: True when the ranker is derived purely from ``EngineConfig``.
        #: The process tier requires this: worker processes rebuild the
        #: ranker from the config, which cannot capture an arbitrary
        #: explicitly-passed ranker object.
        self.ranker_from_config = ranker is None
        if ranker is not None:
            if config is not None:
                logger.warning(
                    "CredenceEngine got both an explicit ranker (%s) and a "
                    "config naming ranker=%r; the explicit ranker takes "
                    "precedence and the config's ranker field is ignored",
                    type(ranker).__name__,
                    config.ranker,
                )
            base_ranker = ranker
        else:
            base_ranker = self._build_ranker()
        self.ranker: Ranker = (
            ScoreCache(base_ranker) if self.config.cache_scores else base_ranker
        )
        self.document_explainer = CounterfactualDocumentExplainer(self.ranker)
        self.query_explainer = CounterfactualQueryExplainer(self.ranker)
        self.builder = CounterfactualBuilder(self.ranker)
        self.bm25_vectorizer = Bm25Vectorizer(self.index)
        self._doc2vec: Doc2Vec | None = None
        self._doc2vec_version = -1
        self._doc2vec_lock = threading.Lock()
        self._service: "ExplanationService | None" = None
        self._service_lock = threading.Lock()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_index(
        cls,
        index,
        config: EngineConfig | None = None,
        ranker: Ranker | None = None,
        registry: ExplainerRegistry | None = None,
    ) -> "CredenceEngine":
        """Assemble an engine around an already-built index.

        Accepts anything exposing the index read surface: a live
        :class:`~repro.index.sharding.ShardedIndex` or bare
        :class:`~repro.index.inverted.InvertedIndex`, a packed
        read-only view, or a
        :class:`~repro.index.persist.ReplicaIndex`.
        """
        return cls(config=config, ranker=ranker, registry=registry, index=index)

    @classmethod
    def load(
        cls,
        path,
        config: EngineConfig | None = None,
        ranker: Ranker | None = None,
        registry: ExplainerRegistry | None = None,
        mode: str = "auto",
    ) -> "CredenceEngine":
        """Warm-restart an engine from a saved v3 index at ``path``.

        The default ``mode="auto"`` *attaches* in O(1) — no
        re-analysis, no posting rebuild — and the index's ``version`` is
        the commit's content fingerprint, so version-keyed service
        results computed before a restart remain addressable after it.
        ``mode="memory"`` hydrates a mutable
        :class:`~repro.index.sharding.ShardedIndex` instead.
        """
        from repro.index.storage import load_index

        return cls.from_index(
            load_index(path, mode=mode),
            config=config,
            ranker=ranker,
            registry=registry,
        )

    def _build_ranker(self) -> Ranker:
        config = self.config
        if config.ranker == "bm25":
            return Bm25Ranker(self.index)
        if config.ranker == "tfidf":
            return TfIdfRanker(self.index)
        if config.ranker == "lm":
            return DirichletLmRanker(self.index)
        semantic_scorer = None
        if config.use_semantic_channel:
            from repro.embeddings.semantic import Word2VecSemanticScorer

            semantic_scorer = Word2VecSemanticScorer.train(
                self.index, seed=config.seed
            )
        neural = train_neural_ranker(
            self.index,
            list(config.training_queries),
            epochs=config.neural_epochs,
            semantic_scorer=semantic_scorer,
            seed=config.seed,
        )
        return RetrieveRerankPipeline(
            Bm25Ranker(self.index), neural, depth=config.rerank_depth
        )

    @property
    def doc2vec(self) -> Doc2Vec:
        """The Doc2Vec model, trained on first use (mirrors the demo's
        per-corpus offline embedding step) and keyed on the index's
        mutation ``version``: a corpus change retrains on next access,
        so instance explanations never see documents missing from (or
        deleted out of) the embedding space. Retraining is the offline
        step's cost — batch corpus mutations accordingly. Thread-safe:
        concurrent accesses train once per corpus version."""
        if self._doc2vec is None or self._doc2vec_version != self.index.version:
            with self._doc2vec_lock:
                version = self.index.version
                if self._doc2vec is None or self._doc2vec_version != version:
                    analyzed = {
                        document.doc_id: self.index.analyzer.analyze(
                            document.body
                        )
                        for document in self.index
                    }
                    self._doc2vec = train_doc2vec(
                        analyzed,
                        dimension=self.config.doc2vec_dimension,
                        epochs=self.config.doc2vec_epochs,
                        seed=self.config.seed,
                    )
                    self._doc2vec_version = version
        return self._doc2vec

    # -- ranking ---------------------------------------------------------------

    def rank(self, query: str, k: int = 10) -> Ranking:
        """The top-k ranking shown on the Explanations page.

        Ranking an empty index raises
        :class:`~repro.errors.IndexStateError`.
        """
        require_positive(k, "k")
        return self.ranker.rank(query, k)

    def document(self, doc_id: str) -> Document:
        return self.index.document(doc_id)

    # -- corpus management --------------------------------------------------------

    def add_documents(self, documents: Iterable[Document]) -> int:
        """Bulk-add documents to the corpus; returns the number added.

        The index analyzes the batch, then places it in input order,
        all-or-nothing. The index's mutation ``version`` advances, so
        every version-keyed cache (collection views, the service result
        store) invalidates automatically. Duplicate ids raise
        ``ValueError`` before anything mutates.
        """
        return self.index.add_documents(documents)

    def remove_document(self, doc_id: str) -> Document:
        """Remove a document from the corpus; returns it. Raises if absent."""
        return self.index.remove(doc_id)

    def index_info(self) -> dict:
        """Corpus layout and statistics (the ``GET /index`` payload)."""
        stats = self.index.stats()
        # A bare InvertedIndex is one unrouted segment; a live, packed or
        # replica corpus has a router and reports its layout.
        sharded = not isinstance(self.index, InvertedIndex)
        info = {
            "documents": stats.document_count,
            "unique_terms": stats.unique_terms,
            "total_terms": stats.total_terms,
            "average_document_length": stats.average_document_length,
            "version": self.index.version,
            "sharded": sharded,
        }
        if sharded:
            info["shards"] = self.index.shard_count
            info["router"] = self.index.router.name
            info["shard_documents"] = self.index.shard_sizes()
        storage_info = getattr(self.index, "storage_info", None)
        if storage_info is not None:
            info["storage"] = storage_info()
        return info

    # -- the unified explanation API ---------------------------------------------

    def explain(self, request: ExplainRequest) -> ExplainResponse:
        """Run one explanation request through the strategy registry::

            engine.explain(ExplainRequest(query, doc_id, strategy="query/augmentation"))

        The explainer for the strategy is built lazily on first use and
        memoised per engine. Returns a strategy-tagged
        :class:`ExplainResponse` with wall-clock timing; unknown
        strategies raise :class:`~repro.errors.UnknownStrategyError` and
        search failures propagate (``RankingError`` etc.).
        """
        explainer = self.registry.get(self, request.strategy)
        with obs_span("engine/explain", strategy=request.strategy) as span:
            with timed() as elapsed:
                result = explainer.explain(request)
            span.set(explanations=len(result.explanations))
        return ExplainResponse(
            strategy=request.strategy,
            query=request.query,
            doc_id=request.doc_id,
            result=result,
            elapsed_seconds=elapsed(),
        )

    def explain_batch(
        self,
        requests: Iterable[ExplainRequest],
        workers: int | None = None,
        executor: str | None = None,
    ) -> list[ExplainResponse]:
        """Run many explanation requests, amortising shared state.

        All items share this engine's analysis, score cache, and the
        memoised per-strategy explainers, so a batch over one query is
        substantially cheaper than cold single calls. Responses preserve
        request order and carry per-item latency; a failing item yields
        a response with :attr:`ExplainResponse.error` set instead of
        aborting the batch.

        ``workers`` and ``executor`` mean what they mean on
        :func:`repro.api.app.serve`. With both ``None`` the batch runs in
        this thread. Otherwise it fans out across the engine's
        :meth:`service` pool (``workers`` sizes it on first use;
        repeated requests hit the service's result store), on the
        ``executor`` tier when one is named: ``"thread"`` or
        ``"process"``, which dispatches items to worker processes that
        attach the v3 packed index via mmap and rebuild the ranker from
        :class:`EngineConfig`. Results are byte-identical to the
        sequential path on every tier.
        """
        if workers is not None or executor is not None:
            service = self.service(workers=workers)
            if executor is not None:
                service.configure_executor(executor, workers=workers)
            return service.run_batch(list(requests))
        responses: list[ExplainResponse] = []
        for request in requests:
            require(
                isinstance(request, ExplainRequest),
                "explain_batch items must be ExplainRequest instances",
            )
            with timed() as elapsed:
                try:
                    responses.append(self.explain(request))
                except ReproError as error:
                    responses.append(
                        ExplainResponse.from_error(request, error, elapsed())
                    )
        return responses

    # -- the explanation service (async jobs, pool, result store) ---------------

    def service(self, workers: int | None = None) -> "ExplanationService":
        """This engine's :class:`~repro.service.scheduler.ExplanationService`.

        Built lazily and memoised; thread-safe (concurrent first calls
        construct exactly one service). ``workers`` sizes the pool on
        the construction call; passing a different size later keeps the
        existing service and logs a warning — shut it down first
        (``engine.service().shutdown()`` then ``engine._service = None``
        is deliberate surgery, not an API).
        """
        if workers is not None:
            require_positive(workers, "workers")
        with self._service_lock:
            if self._service is None:
                from repro.service.scheduler import ExplanationService
                from repro.service.workers import DEFAULT_WORKERS

                self._service = ExplanationService(
                    self, workers=workers or DEFAULT_WORKERS
                )
            elif (
                workers is not None
                and workers != self._service.pool.worker_count
            ):
                logger.warning(
                    "engine.service(workers=%d) ignored: service already "
                    "built with %d workers",
                    workers,
                    self._service.pool.worker_count,
                )
            return self._service

    def available_strategies(self) -> tuple[str, ...]:
        """Strategy names applicable to this engine's ranker."""
        return self.registry.available_strategies(self)

    def build_counterfactual(
        self,
        query: str,
        doc_id: str,
        perturbations: list[Perturbation] | None = None,
        edited_body: str | None = None,
        k: int = 10,
    ) -> BuilderResult:
        """Build-your-own counterfactual (Fig. 5): scripted ops or free text."""
        if (perturbations is None) == (edited_body is None):
            raise ConfigurationError(
                "provide exactly one of perturbations or edited_body"
            )
        if edited_body is not None:
            return self.builder.rerank_edited(query, doc_id, edited_body, k)
        return self.builder.apply_and_rerank(query, doc_id, perturbations, k)

    # -- topics -------------------------------------------------------------------

    def topics(
        self, query: str, k: int = 10, num_topics: int = 5, terms_per_topic: int = 10
    ) -> TopicSummary:
        """Browse Topics: LDA over the current top-k documents (§III-C)."""
        ranking = self.rank(query, k)
        analyzed = {
            doc_id: self.index.analyzer.analyze(self.index.document(doc_id).body)
            for doc_id in ranking.doc_ids
        }
        model = train_lda(
            analyzed,
            num_topics=min(num_topics, max(1, len(analyzed))),
            iterations=150,
            seed=self.config.seed,
        )
        return summarize_topics(model, terms_per_topic)
