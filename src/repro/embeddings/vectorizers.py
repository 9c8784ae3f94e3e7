"""Collection-statistic document vectors (paper §II-E, method 2).

"We build numeric vector representations of each corpus document using
their BM25 scores, though any similar collection statistic (e.g., TF-IDF
scores) would suffice." Each document becomes a sparse vector over the
vocabulary where entry *t* is the BM25 (or TF-IDF) weight of term *t* in
that document; similarity between documents is cosine over these vectors.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import Mapping

from repro.index.inverted import InvertedIndex
from repro.index.similarity import (
    Bm25Similarity,
    CollectionView,
    FieldStats,
    TermStats,
    TfIdfSimilarity,
)

#: Sparse document vector: analyzed term → weight.
SparseVector = Mapping[str, float]


class _StatisticVectorizer(ABC):
    """Shared plumbing for per-term-weight document vectorizers."""

    def __init__(self, index: InvertedIndex):
        self.index = index
        self.view = CollectionView(index)

    @abstractmethod
    def _weight(
        self,
        term_frequency: int,
        document_length: int,
        term_stats: TermStats,
        field_stats: FieldStats,
    ) -> float:
        """Weight of one term occurrence profile."""

    def _vector_from_counts(
        self, counts: Counter[str], document_length: int
    ) -> dict[str, float]:
        view = self.view
        field_stats = view.field_stats()
        vector: dict[str, float] = {}
        for term, term_frequency in counts.items():
            weight = self._weight(
                term_frequency, document_length, view.term_stats(term), field_stats
            )
            if weight:
                vector[term] = weight
        return vector

    def vector(self, doc_id: str) -> dict[str, float]:
        """Sparse vector for an indexed document."""
        counts = self.index.term_vector(doc_id)
        return self._vector_from_counts(counts, sum(counts.values()))

    def vector_for_text(self, body: str) -> dict[str, float]:
        """Sparse vector for arbitrary text, using index statistics."""
        terms = self.index.analyzer.analyze(body)
        return self._vector_from_counts(Counter(terms), len(terms))

    def all_vectors(self) -> dict[str, dict[str, float]]:
        """Vectors for every indexed document."""
        return {doc_id: self.vector(doc_id) for doc_id in self.index.doc_ids}


class Bm25Vectorizer(_StatisticVectorizer):
    """Documents as vectors of per-term BM25 weights (the paper's choice)."""

    def __init__(self, index: InvertedIndex, k1: float = 0.9, b: float = 0.4):
        super().__init__(index)
        self._similarity = Bm25Similarity(k1=k1, b=b)

    def _weight(self, term_frequency, document_length, term_stats, field_stats):
        return self._similarity.score(
            term_frequency, document_length, term_stats, field_stats
        )


class TfIdfVectorizer(_StatisticVectorizer):
    """Documents as TF-IDF weight vectors (the paper's noted alternative)."""

    def __init__(self, index: InvertedIndex, sublinear_tf: bool = True):
        super().__init__(index)
        self._similarity = TfIdfSimilarity(sublinear_tf=sublinear_tf)

    def _weight(self, term_frequency, document_length, term_stats, field_stats):
        return self._similarity.score(
            term_frequency, document_length, term_stats, field_stats
        )
