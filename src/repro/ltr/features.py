"""LETOR-style query–document feature vectors.

The first eight features are classic LETOR lexical-match statistics
computed from the index; the last three are *document priors* — the
"richer features (e.g., user preferences)" of the paper's future-work
remark. Priors live in document metadata (``popularity``, ``freshness``
in ``[0, 1]``) and are exactly the features a feature-space
counterfactual may legitimately mutate: they describe the document's
standing, not its text.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.similarity import (
    Bm25Similarity,
    CollectionView,
    DirichletSimilarity,
    FieldStats,
    TermStats,
)
from repro.utils.memo import Memo

LETOR_FEATURE_NAMES = (
    "sum_tf",
    "sum_normalized_tf",
    "sum_idf",
    "sum_tfidf",
    "bm25",
    "lm_dirichlet",
    "covered_term_ratio",
    "log_doc_length",
    # document priors (mutable, non-textual)
    "popularity",
    "freshness",
    "authority",
)

#: Features a counterfactual may change without touching the text.
MUTABLE_FEATURES = ("popularity", "freshness", "authority")

#: Prepared queries one extractor keeps: the query being scored.
PREPARED_CAPACITY = 1


@dataclass(frozen=True)
class LetorVector:
    """A named LETOR feature vector for one (query, document) pair."""

    values: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(LETOR_FEATURE_NAMES, self.values))

    def replace(self, changes: Mapping[str, float]) -> "LetorVector":
        """A copy with the named features overwritten."""
        unknown = set(changes) - set(LETOR_FEATURE_NAMES)
        if unknown:
            raise KeyError(f"unknown features: {sorted(unknown)}")
        updated = dict(self.as_dict())
        updated.update(changes)
        return LetorVector(tuple(updated[name] for name in LETOR_FEATURE_NAMES))


@dataclass(frozen=True)
class LetorPreparedQuery:
    """One query's analysis plus the statistics LETOR extraction needs."""

    query: str
    terms: tuple[str, ...]
    distinct: frozenset[str]
    term_stats: Mapping[str, TermStats]
    idf: Mapping[str, float]
    field_stats: FieldStats


class LetorFeatureExtractor:
    """Extracts :data:`LETOR_FEATURE_NAMES` for (query, document) pairs."""

    def __init__(self, index: InvertedIndex):
        self.index = index
        self._bm25 = Bm25Similarity()
        self._lm = DirichletSimilarity()
        self.view = CollectionView(index)
        self._prepared = Memo(PREPARED_CAPACITY, index)

    @property
    def dimension(self) -> int:
        return len(LETOR_FEATURE_NAMES)

    def priors(self, document: Document) -> tuple[float, float, float]:
        metadata = document.metadata
        return (
            float(metadata.get("popularity", 0.5)),
            float(metadata.get("freshness", 0.5)),
            float(metadata.get("authority", 0.5)),
        )

    # Backwards-compatible private alias (pre-session callers).
    _priors = priors

    def prepare(self, query: str) -> LetorPreparedQuery:
        """Analyze ``query`` once and snapshot its collection statistics.

        Memoized per (query, index version) so scoring sessions and
        repeated extractions share one analysis.
        """
        return self._prepared.get(query, self._prepare)

    def _prepare(self, query: str) -> LetorPreparedQuery:
        terms = tuple(self.index.analyzer.analyze(query))
        field_stats = self.view.field_stats()
        term_stats: dict[str, TermStats] = {}
        idf: dict[str, float] = {}
        for term in terms:
            if term in term_stats:
                continue
            stats = term_stats[term] = self.view.term_stats(term)
            idf[term] = math.log(
                (field_stats.document_count + 1.0)
                / (stats.document_frequency + 1.0)
            ) + 1.0
        return LetorPreparedQuery(
            query=query,
            terms=terms,
            distinct=frozenset(terms),
            term_stats=term_stats,
            idf=idf,
            field_stats=field_stats,
        )

    def extract(self, query: str, document: Document) -> LetorVector:
        """Feature vector for a corpus document (priors from metadata)."""
        return self._extract(query, document.body, self.priors(document))

    def extract_text(
        self, query: str, body: str, priors: tuple[float, float, float] = (0.5, 0.5, 0.5)
    ) -> LetorVector:
        """Feature vector for arbitrary text with explicit priors."""
        return self._extract(query, body, priors)

    def _extract(
        self, query: str, body: str, priors: tuple[float, float, float]
    ) -> LetorVector:
        doc_terms = self.index.analyzer.analyze(body)
        return self.extract_counts(
            self.prepare(query), Counter(doc_terms), len(doc_terms), priors
        )

    def extract_counts(
        self,
        prepared: LetorPreparedQuery,
        counts: Mapping[str, int],
        doc_length: int,
        priors: tuple[float, float, float],
    ) -> LetorVector:
        """The extraction kernel over an already-analyzed document.

        Shared by the one-shot path and the LTR scoring session, so both
        produce bit-identical vectors.
        """
        field_stats = prepared.field_stats

        sum_tf = 0.0
        sum_normalized_tf = 0.0
        sum_idf = 0.0
        sum_tfidf = 0.0
        bm25 = 0.0
        lm = 0.0
        covered = 0
        for term in prepared.terms:
            term_frequency = counts.get(term, 0)
            term_stats = prepared.term_stats[term]
            idf = prepared.idf[term]
            sum_tf += term_frequency
            if doc_length:
                sum_normalized_tf += term_frequency / doc_length
            sum_idf += idf
            sum_tfidf += term_frequency * idf
            bm25 += self._bm25.score(term_frequency, doc_length, term_stats, field_stats)
            lm += self._lm.score(term_frequency, doc_length, term_stats, field_stats)
        if prepared.distinct:
            covered = sum(1 for term in prepared.distinct if counts.get(term))

        values = (
            sum_tf,
            sum_normalized_tf,
            sum_idf,
            sum_tfidf,
            bm25,
            lm,
            covered / len(prepared.distinct) if prepared.distinct else 0.0,
            math.log1p(doc_length),
            *priors,
        )
        return LetorVector(values)
