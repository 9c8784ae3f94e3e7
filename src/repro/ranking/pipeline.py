"""First-stage retrieval + neural reranking, the architecture in Fig. 1.

The demo ranks with "Pyserini BM25 retrieval → monoT5 rerank"; here the
same two-stage shape is :class:`RetrieveRerankPipeline`, itself a
:class:`Ranker` so the explainers remain oblivious to its structure.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.index.document import Document
from repro.ranking.base import Ranker, Ranking
from repro.ranking.session import ScoringSession
from repro.utils.validation import require_positive


class RetrieveRerankPipeline(Ranker):
    """Compose a candidate-generating ranker with a reranking scorer.

    ``rank(q, k)`` retrieves ``max(depth, k)`` candidates with the first
    stage, rescores each with the reranker, and returns the top ``k``.
    ``score_text`` delegates to the reranker, so perturbation checks see
    the reranker's (final-stage) behaviour — exactly what the user of the
    demo observes.
    """

    def __init__(self, first_stage: Ranker, reranker: Ranker, depth: int = 50):
        if first_stage.index is not reranker.index:
            raise ConfigurationError(
                "first stage and reranker must share one index"
            )
        require_positive(depth, "depth")
        super().__init__(first_stage.index)
        self.first_stage = first_stage
        self.reranker = reranker
        self.depth = depth

    @property
    def name(self) -> str:
        return f"{self.first_stage.name} >> {self.reranker.name}"

    def rank(self, query: str, k: int) -> Ranking:
        require_positive(k, "k")
        candidates = self.first_stage.rank(query, max(self.depth, k))
        documents = [self.index.document(doc_id) for doc_id in candidates.doc_ids]
        reranked = self.reranker.rank_candidates(query, documents)
        return reranked.top(min(k, len(reranked)))

    def score_text(self, query: str, body: str) -> float:
        return self.reranker.score_text(query, body)

    def rank_candidates(self, query: str, candidates: Sequence[Document]) -> Ranking:
        # Delegate to the reranker's own candidate ranking (as rank()
        # already does), so explicit-candidate scoring uses the same
        # conventions as retrieval-time reranking.
        return self.reranker.rank_candidates(query, candidates)

    def scoring_session(
        self, query: str, pool: Sequence[Document]
    ) -> ScoringSession:
        """Delegate to the final stage: perturbation checks see the
        reranker's behaviour, exactly like :meth:`score_text`."""
        return self.reranker.scoring_session(query, pool)
