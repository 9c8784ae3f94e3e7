"""Shared machinery for lexical (similarity-based) rankers.

A :class:`LexicalRanker` ranks indexed documents through the
:class:`IndexSearcher` and scores *arbitrary* text by analysing it on the
fly and applying the same similarity with the index's collection
statistics. Substituted/perturbed documents are deliberately scored
against the *original* collection statistics — the same behaviour as the
demo, which re-ranks edited documents without re-indexing the corpus.

Collection statistics are read from the searcher's
:class:`~repro.index.similarity.CollectionView`, memoized per index
mutation :attr:`~repro.index.inverted.InvertedIndex.version`, so
repeated scorings never rebuild them; :class:`LexicalScoringSession`
additionally reuses the index's stored term vectors and per-sentence
term counters so counterfactual perturbations never re-tokenize
unchanged text.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection, Mapping, Sequence

from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexSearcher
from repro.index.similarity import CollectionView, Similarity
from repro.ranking.base import RankedDocument, Ranker, Ranking
from repro.ranking.session import IncrementalScoringSession
from repro.utils.validation import require_positive


class LexicalRanker(Ranker):
    """Ranker backed by an index similarity (BM25 / TF-IDF / LM)."""

    def __init__(self, index: InvertedIndex, similarity: Similarity):
        super().__init__(index)
        self.similarity = similarity
        self._searcher = IndexSearcher(index, similarity)

    def rank(self, query: str, k: int) -> Ranking:
        require_positive(k, "k")
        hits = self._searcher.search(query, k)
        return Ranking(
            [
                RankedDocument(doc_id=hit.doc_id, score=hit.score, rank=hit.rank)
                for hit in hits
            ]
        )

    def collection_view(self) -> CollectionView:
        """The searcher's memoized collection statistics."""
        return self._searcher.view

    def score_terms(
        self,
        query_terms: Sequence[str],
        doc_terms: Mapping[str, int],
        doc_length: int,
    ) -> float:
        """Score an already-analyzed document against analyzed query terms.

        This is the single scoring kernel behind :meth:`score_text` and
        :class:`LexicalScoringSession`: identical term order and float
        accumulation, so both paths produce bit-identical scores.
        """
        view = self._searcher.view
        field_stats = view.field_stats()
        needs_all = self.similarity.needs_all_query_terms()
        score = 0.0
        for term in query_terms:
            term_frequency = doc_terms.get(term, 0)
            if term_frequency == 0 and not needs_all:
                continue
            score += self.similarity.score(
                term_frequency, doc_length, view.term_stats(term), field_stats
            )
        return score

    def score_text(self, query: str, body: str) -> float:
        query_terms = self.index.analyzer.analyze(query)
        if not query_terms:
            return 0.0
        doc_terms = Counter(self.index.analyzer.analyze(body))
        doc_length = sum(doc_terms.values())
        return self.score_terms(query_terms, doc_terms, doc_length)

    def scoring_session(
        self, query: str, pool: Sequence[Document]
    ) -> "LexicalScoringSession":
        return LexicalScoringSession(self, query, pool)


class LexicalScoringSession(IncrementalScoringSession):
    """Incremental pool re-ranking for lexical rankers.

    Pool documents that live in the index are scored straight from the
    index's stored term vectors (no re-analysis at all); perturbed
    documents are scored from per-sentence term counters, so a
    sentence-removal candidate costs one counter subtraction instead of
    a full tokenize/stem pass over the surviving text.
    """

    def __init__(self, ranker: LexicalRanker, query: str, pool: Sequence[Document]):
        super().__init__(ranker, query, pool)
        self.ranker: LexicalRanker
        self._query_terms = ranker.index.analyzer.analyze(query)

    def _score_document(self, document: Document) -> float:
        if not self._query_terms:
            return 0.0
        counts, length = self._indexed_doc_counts(document)
        return self.ranker.score_terms(self._query_terms, counts, length)

    def _score_substituted(self, doc_id: str, body: str) -> float:
        if not self._query_terms:
            return 0.0
        counts = Counter(self.ranker.index.analyzer.analyze(body))
        return self.ranker.score_terms(
            self._query_terms, counts, sum(counts.values())
        )

    def _score_without_sentences(
        self, doc_id: str, removed: Collection[int]
    ) -> float:
        if not self._query_terms:
            return 0.0
        counts, length = self._counts_without_sentences(doc_id, removed)
        return self.ranker.score_terms(self._query_terms, counts, length)
