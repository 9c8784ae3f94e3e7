"""Pluggable lexical similarities for ranked retrieval.

Each similarity scores one (term, document) pair given collection
statistics, exactly like Lucene's ``Similarity`` plug-point. The searcher
accumulates these term-at-a-time; the corpus-level rankers in
:mod:`repro.ranking` reuse the same formulas for scoring *arbitrary* text
(including perturbed documents that are not in the index).

Those statistics are read through a :class:`CollectionView`, the one
place that builds :class:`FieldStats` and :class:`TermStats` from an
index.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.utils.memo import Memo
from repro.utils.validation import require_non_negative, require_positive

#: Distinct terms one :class:`CollectionView` memoizes: above every
#: benchmark corpus's vocabulary (17,920 terms at most).
TERM_STATS_CAPACITY = 1 << 15


@dataclass(frozen=True)
class TermStats:
    """Collection statistics for a single term."""

    document_frequency: int
    collection_frequency: int


@dataclass(frozen=True)
class FieldStats:
    """Collection statistics for the indexed field."""

    document_count: int
    average_document_length: float
    total_terms: int


class CollectionView:
    """Field and per-term statistics of one index, memoized per version.

    Two memos keyed on ``index.version``, so repeated scorings never
    rebuild statistics and a corpus mutation refreshes them.
    """

    def __init__(self, index):
        self.index = index
        self._field = Memo(1, index)
        self._terms = Memo(TERM_STATS_CAPACITY, index)

    def field_stats(self) -> FieldStats:
        """Statistics of the indexed field as a whole."""
        return self._field.get(None, self._build_field_stats)

    def term_stats(self, term: str) -> TermStats:
        """Statistics of one analyzed term."""
        return self._terms.get(term, self._build_term_stats)

    def _build_field_stats(self, _key: None) -> FieldStats:
        stats = self.index.stats()
        return FieldStats(
            document_count=stats.document_count,
            average_document_length=stats.average_document_length,
            total_terms=stats.total_terms,
        )

    def _build_term_stats(self, term: str) -> TermStats:
        return TermStats(
            document_frequency=self.index.document_frequency(term),
            collection_frequency=self.index.collection_frequency(term),
        )


class Similarity(ABC):
    """Scores term occurrences; higher is more relevant."""

    @abstractmethod
    def score(
        self,
        term_frequency: int,
        document_length: int,
        term_stats: TermStats,
        field_stats: FieldStats,
    ) -> float:
        """Score one term's contribution to one document."""

    def needs_all_query_terms(self) -> bool:
        """True if absent terms still contribute (LM smoothing); the
        searcher then scores every query term against every candidate."""
        return False


@dataclass(frozen=True)
class Bm25Similarity(Similarity):
    """Okapi BM25 with Lucene's (+0.5 / +0.5, +1 inside log) idf.

    The idf variant is always positive, matching Lucene ≥ 4 (and hence
    Anserini's defaults: k1=0.9, b=0.4).
    """

    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        require_non_negative(self.k1, "k1")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")

    def idf(self, document_frequency: int, document_count: int) -> float:
        return math.log(
            1.0
            + (document_count - document_frequency + 0.5)
            / (document_frequency + 0.5)
        )

    def score(self, term_frequency, document_length, term_stats, field_stats):
        if term_frequency == 0 or term_stats.document_frequency == 0:
            return 0.0
        idf = self.idf(term_stats.document_frequency, field_stats.document_count)
        avgdl = field_stats.average_document_length or 1.0
        normalized = term_frequency * (self.k1 + 1.0) / (
            term_frequency
            + self.k1 * (1.0 - self.b + self.b * document_length / avgdl)
        )
        return idf * normalized


@dataclass(frozen=True)
class TfIdfSimilarity(Similarity):
    """Classic log-tf × smooth-idf, with optional length normalisation."""

    sublinear_tf: bool = True

    def idf(self, document_frequency: int, document_count: int) -> float:
        return math.log((1.0 + document_count) / (1.0 + document_frequency)) + 1.0

    def score(self, term_frequency, document_length, term_stats, field_stats):
        if term_frequency == 0 or term_stats.document_frequency == 0:
            return 0.0
        tf = (
            1.0 + math.log(term_frequency)
            if self.sublinear_tf
            else float(term_frequency)
        )
        return tf * self.idf(
            term_stats.document_frequency, field_stats.document_count
        )


@dataclass(frozen=True)
class DirichletSimilarity(Similarity):
    """Query-likelihood language model with Dirichlet smoothing.

    Scores are log-probabilities shifted to be comparable across documents
    of different lengths (the standard Zhai–Lafferty formulation).
    """

    mu: float = 1000.0

    def __post_init__(self):
        require_positive(self.mu, "mu")

    def needs_all_query_terms(self) -> bool:
        return True

    def score(self, term_frequency, document_length, term_stats, field_stats):
        if term_stats.collection_frequency == 0:
            return 0.0  # OOV terms are ignored, as in Anserini
        collection_probability = (
            term_stats.collection_frequency / max(field_stats.total_terms, 1)
        )
        numerator = term_frequency + self.mu * collection_probability
        denominator = document_length + self.mu
        return math.log(numerator / denominator)
