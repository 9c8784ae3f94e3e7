"""Instance-based counterfactual explanations (§II-E, Fig. 4).

Instead of synthetic perturbations, return *actual corpus documents*: for
a relevant instance document, a valid explanation is a non-relevant
document (rank beyond k) with high similarity. Two variants from the
paper:

* **Doc2Vec Nearest** — embed documents with PV-DBOW Doc2Vec and return
  the ``n`` most cosine-similar non-relevant documents.
* **Cosine Sampled** — represent documents as per-term BM25-score vectors,
  sample ``s`` non-relevant documents (ideally ``n ≪ s``), and return the
  ``n`` with the highest cosine similarity.

Both compose an
:class:`~repro.core.search.problems.InstanceSelectionProblem` — every
scored non-relevant document is a valid counterfactual, so exhaustive
search reduces to top-``n`` selection — with the shared kernel, keeping
their accounting identical to the pre-kernel implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.embeddings.doc2vec import Doc2Vec
from repro.embeddings.similarity import cosine_similarity
from repro.embeddings.vectorizers import Bm25Vectorizer, _StatisticVectorizer
from repro.errors import RankingError
from repro.ranking.base import Ranker, Ranking
from repro.core.search import (
    ExhaustiveSearch,
    InstanceSelectionProblem,
    SearchBudget,
    SearchStrategy,
    UNLIMITED,
    resolve_strategy,
)
from repro.core.types import ExplanationSet, InstanceExplanation
from repro.utils.memo import Memo
from repro.utils.rng import default_rng
from repro.utils.validation import require, require_positive

#: (query, k) → (ranking, non-relevant ids) one explainer memoizes. The
#: searcher already remembers the ranking; the memo spares rebuilding
#: the non-relevant list, a walk over the corpus, when several
#: documents of one query are explained.
RETRIEVAL_CAPACITY = 32

#: BM25 document vectors one cosine explainer memoizes: above every
#: benchmark corpus (5,000 documents at most).
VECTOR_CAPACITY = 1 << 13


def _non_relevant_ids(
    ranker: Ranker, query: str, k: int
) -> tuple[Ranking, list[str]]:
    """(rank of instance pool, ids of documents ranked k+1 and below)."""
    ranking = ranker.rank(query, k)
    relevant = set(ranking.doc_ids)
    non_relevant = [
        doc_id for doc_id in ranker.index.doc_ids if doc_id not in relevant
    ]
    return ranking, non_relevant


def _select_instances(
    scored_documents,
    *,
    doc_id: str,
    query: str,
    k: int,
    method: str,
    evaluated: int,
    n: int,
    search: SearchStrategy | str | None,
    budget: SearchBudget | None,
) -> ExplanationSet[InstanceExplanation]:
    """Run top-``n`` selection over pre-scored candidates via the kernel."""
    problem = InstanceSelectionProblem(
        scored_documents,
        doc_id=doc_id,
        query=query,
        k=k,
        method=method,
        evaluated=evaluated,
    )
    strategy = resolve_strategy(search, default=ExhaustiveSearch())
    found, trace = strategy.search(
        problem, n, budget if budget is not None else UNLIMITED
    )
    return ExplanationSet.from_search(found, trace)


@dataclass
class Doc2VecNearestExplainer:
    """Method 1: nearest non-relevant documents in Doc2Vec space.

    ``model`` accepts either a trained :class:`Doc2Vec` or a zero-arg
    callable returning one. The registry passes the engine's
    version-keyed ``doc2vec`` property as a callable, so a memoised
    explainer re-reads the current model after corpus mutations instead
    of pinning the one it was built with.
    """

    ranker: Ranker
    model: "Doc2Vec | Callable[[], Doc2Vec]"
    _retrievals: Memo = field(init=False, repr=False)

    def __post_init__(self):
        self._retrievals = Memo(RETRIEVAL_CAPACITY, self.ranker.index)

    def _resolve_model(self) -> Doc2Vec:
        return self.model() if callable(self.model) else self.model

    def explain(
        self,
        query: str,
        doc_id: str,
        n: int = 1,
        k: int = 10,
        *,
        search: SearchStrategy | str | None = None,
        budget: SearchBudget | None = None,
    ) -> ExplanationSet[InstanceExplanation]:
        """The ``n`` most Doc2Vec-similar documents ranked beyond ``k``."""
        require_positive(n, "n")
        ranking, non_relevant = self._retrievals.get(
            (query, k), lambda key: _non_relevant_ids(self.ranker, *key)
        )
        if doc_id not in ranking:
            raise RankingError(
                f"document {doc_id!r} is not in the top-{k} for {query!r}"
            )
        model = self._resolve_model()
        if doc_id not in model:
            raise RankingError(f"document {doc_id!r} is not in the Doc2Vec model")
        eligible = {cand for cand in non_relevant if cand in model}
        excluded = set(model.doc_ids) - eligible
        # All eligible neighbours, in the model's similarity order; the
        # kernel's score-descending enumeration preserves it.
        neighbours = model.most_similar(
            doc_id, n=len(eligible), exclude=excluded
        )
        return _select_instances(
            neighbours,
            doc_id=doc_id,
            query=query,
            k=k,
            method="doc2vec_nearest",
            evaluated=len(eligible),
            n=n,
            search=search,
            budget=budget,
        )


@dataclass
class CosineSampledExplainer:
    """Method 2: cosine over BM25-score vectors of sampled non-relevant docs.

    Args:
        ranker: the black-box model ``M`` (supplies the corpus index).
        vectorizer: per-term collection-statistic vectorizer; defaults to
            BM25 vectors as in the paper.
        seed: sampling seed (sampling is the stochastic part of method 2).
    """

    ranker: Ranker
    vectorizer: _StatisticVectorizer | None = None
    seed: int | None = None
    _retrievals: Memo = field(init=False, repr=False)
    _vectors: Memo = field(init=False, repr=False)

    def __post_init__(self):
        if self.vectorizer is None:
            self.vectorizer = Bm25Vectorizer(self.ranker.index)
        self._retrievals = Memo(RETRIEVAL_CAPACITY, self.ranker.index)
        # BM25 vectors embed collection statistics, so mixing vectors
        # computed under different corpus states would skew similarities.
        self._vectors = Memo(VECTOR_CAPACITY, self.ranker.index)

    def _vector(self, doc_id: str) -> dict[str, float]:
        return self._vectors.get(doc_id, self.vectorizer.vector)

    def explain(
        self,
        query: str,
        doc_id: str,
        n: int = 1,
        k: int = 10,
        samples: int = 50,
        *,
        search: SearchStrategy | str | None = None,
        budget: SearchBudget | None = None,
    ) -> ExplanationSet[InstanceExplanation]:
        """Sample ``samples`` non-relevant documents; return the ``n`` most
        cosine-similar to the instance document."""
        require_positive(n, "n")
        require_positive(samples, "samples")
        require(
            n <= samples,
            "n must not exceed the sample count (the paper assumes n ≪ s)",
        )
        ranking, non_relevant = self._retrievals.get(
            (query, k), lambda key: _non_relevant_ids(self.ranker, *key)
        )
        if doc_id not in ranking:
            raise RankingError(
                f"document {doc_id!r} is not in the top-{k} for {query!r}"
            )
        rng = default_rng(self.seed)
        if len(non_relevant) > samples:
            chosen = rng.choice(len(non_relevant), size=samples, replace=False)
            sampled = [non_relevant[int(i)] for i in sorted(chosen)]
        else:
            sampled = non_relevant

        instance_vector = self._vector(doc_id)
        scored = [
            (candidate, cosine_similarity(instance_vector, self._vector(candidate)))
            for candidate in sampled
        ]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return _select_instances(
            scored,
            doc_id=doc_id,
            query=query,
            k=k,
            method="cosine_sampled",
            evaluated=len(sampled),
            n=n,
            search=search,
            budget=budget,
        )
