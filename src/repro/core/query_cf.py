"""Counterfactual query explanations by query augmentation (§II-D).

The algorithm, as specified in the paper:

1. Build candidate terms from the instance document, excluding terms
   already present in the query.
2. Score each candidate with TF-IDF — frequency in, and exclusivity to,
   the instance document among the ranked list ``D_M``.
3. Enumerate term subsets first by size ascending, then by summed TF-IDF
   descending; size-major order guarantees minimality.
4. For each subset, append the terms to the query, re-rank the original
   top-k documents under the augmented query, and accept if the instance
   document's rank reaches the threshold.
5. Stop once ``n`` valid explanations are found.

Candidate terms are kept in *surface form* (e.g. ``5G``, ``microchip``)
so augmented queries read like real user queries, while matching and
scoring run on analyzed terms.

Candidate generation lives in
:class:`~repro.core.search.candidates.QueryTermGenerator`, evaluation in
:class:`~repro.core.search.problems.QueryAugmentationProblem`; this
explainer composes them with a search strategy (exhaustive by default).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RankingError
from repro.index.document import Document
from repro.ranking.base import Ranker, Ranking
from repro.core.search import (
    ExhaustiveSearch,
    QueryAugmentationProblem,
    QueryTermGenerator,
    SearchBudget,
    SearchStrategy,
    resolve_strategy,
)
from repro.core.types import ExplanationSet, QueryAugmentationExplanation
from repro.utils.validation import require, require_positive


@dataclass
class CounterfactualQueryExplainer:
    """Finds minimal query augmentations that raise a document's rank.

    Args:
        ranker: the black-box model ``M``.
        max_terms: cap on how many terms one explanation may append.
        max_candidate_terms: only the highest-TF-IDF candidates enter the
            combinatorial search (bounds the subset space; the paper's
            ordering makes high-TF-IDF terms the ones explored anyway).
        max_evaluations: budget on augmented queries re-ranked.
        raise_on_budget: raise instead of returning partial results.
        search: default :class:`SearchStrategy` (or registered name) when
            a call does not pass one; ``None`` means exhaustive.
    """

    ranker: Ranker
    max_terms: int = 3
    max_candidate_terms: int = 30
    max_evaluations: int = 2000
    raise_on_budget: bool = False
    search: SearchStrategy | str | None = None

    def __post_init__(self):
        require_positive(self.max_terms, "max_terms")
        require_positive(self.max_candidate_terms, "max_candidate_terms")
        require_positive(self.max_evaluations, "max_evaluations")

    # -- retrieval ------------------------------------------------------------

    def _original_top_k(
        self, query: str, k: int
    ) -> tuple[Ranking, list[Document]]:
        """The original query's top-k ranking and its documents.

        A lexical ranker's searcher remembers the retrieval per query
        and index version, so verification loops that call this for
        every augmentation checked score the corpus once.
        """
        ranking = self.ranker.rank(query, k)
        documents = [
            self.ranker.index.document(ranked_id) for ranked_id in ranking.doc_ids
        ]
        return ranking, documents

    # -- candidate terms ------------------------------------------------------

    def candidate_terms(
        self, query: str, instance: Document, ranked_documents: list[Document]
    ) -> list[tuple[str, float]]:
        """Surface candidate terms from ``instance`` with TF-IDF scores.

        Excludes terms already in the query, deduplicates by analyzed
        form (keeping the first surface occurrence), and returns the top
        ``max_candidate_terms`` by score.
        """
        generator = self._term_generator(query, instance, ranked_documents)
        return [
            (candidate.edit, candidate.score)
            for candidate in generator.generate()
        ]

    def _term_generator(
        self, query: str, instance: Document, ranked_documents: list[Document]
    ) -> QueryTermGenerator:
        """The one §II-D candidate source shared by ``candidate_terms``
        (the public preview) and ``explain`` (the actual search)."""
        return QueryTermGenerator(
            self.ranker.index.analyzer,
            query,
            instance,
            tuple(ranked_documents),
            self.max_candidate_terms,
        )

    # -- main search ----------------------------------------------------------

    def explain(
        self,
        query: str,
        doc_id: str,
        n: int = 1,
        k: int = 10,
        threshold: int = 1,
        *,
        search: SearchStrategy | str | None = None,
        budget: SearchBudget | None = None,
    ) -> ExplanationSet[QueryAugmentationExplanation]:
        """Find up to ``n`` minimal query augmentations reaching ``threshold``.

        ``threshold`` is the target rank: 2 means "raise the document to
        rank ≤ 2 of the top-k", matching the demo's Fig. 3 usage.
        """
        require_positive(n, "n")
        require_positive(k, "k")
        require_positive(threshold, "threshold")
        require(threshold <= k, "threshold must be within the top-k")
        strategy = resolve_strategy(
            search if search is not None else self.search,
            default=ExhaustiveSearch(),
        )

        ranking, ranked_documents = self._original_top_k(query, k)
        if doc_id not in ranking:
            raise RankingError(
                f"document {doc_id!r} is not in the top-{k} for {query!r}"
            )
        original_rank = ranking.rank_of(doc_id)
        instance = self.ranker.index.document(doc_id)

        problem = QueryAugmentationProblem(
            self._term_generator(query, instance, ranked_documents),
            ranker=self.ranker,
            ranked_documents=ranked_documents,
            doc_id=doc_id,
            query=query,
            k=k,
            threshold=threshold,
            original_rank=original_rank,
            max_size=self.max_terms,
        )
        budget = (budget or SearchBudget()).with_defaults(
            max_evaluations=self.max_evaluations,
            raise_on_budget=self.raise_on_budget,
        )
        found, trace = strategy.search(problem, n, budget)
        return ExplanationSet.from_search(
            found, trace, physical_scorings=problem.physical_scorings
        )

    # -- verification ----------------------------------------------------------

    def rank_under_augmentation(
        self, query: str, doc_id: str, added_terms: tuple[str, ...], k: int = 10
    ) -> int | None:
        """Rank of ``doc_id`` among the original top-k under an augmentation.

        A lexical ranker's searcher remembers the original top-k
        retrieval, so a verification sweep over many augmentations pays
        for corpus retrieval once instead of once per call.
        """
        _, ranked_documents = self._original_top_k(query, k)
        augmented_query = " ".join([query, *added_terms])
        session = self.ranker.scoring_session(augmented_query, ranked_documents)
        return session.baseline().rank_of(doc_id)
