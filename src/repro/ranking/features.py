"""Query–document feature extraction for the neural reranker.

The neural ranker is a *cross-scorer* like monoT5: it looks at a (query,
document) pair jointly and emits one relevance score. Its input is this
feature vector — a mixture of lexical-match evidence (BM25, TF-IDF, LM),
coverage statistics, and an optional semantic-similarity channel supplied
by an embedding model. The explainers never see these features; they
treat the ranker as a black box.

Extraction is factored into two reusable halves so the counterfactual
scoring sessions can amortize repeated work:

* :meth:`FeatureExtractor.prepare` analyzes the query once and snapshots
  field/term statistics (memoized per query and index version);
* :class:`AnalyzedDocument` captures everything extraction needs about a
  document's text (term list, counts, length, bigram set), memoized per
  corpus document body via :meth:`FeatureExtractor.document_data`.

``extract(query, body)`` simply composes the two, so the one-shot path
and the session path run the identical scoring kernel.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.similarity import (
    Bm25Similarity,
    CollectionView,
    DirichletSimilarity,
    FieldStats,
    TermStats,
    TfIdfSimilarity,
)
from repro.text.ngrams import ngrams
from repro.utils.memo import Memo

#: Signature of the optional semantic channel: (query, body) -> similarity.
SemanticScorer = Callable[[str, str], float]

#: Prepared queries one extractor keeps: the query being scored.
PREPARED_CAPACITY = 1

#: Corpus document analyses one extractor memoizes: above every
#: benchmark corpus (5,000 documents at most).
DOCUMENT_MEMO_CAPACITY = 1 << 13

FEATURE_NAMES = (
    "bm25",
    "tfidf",
    "lm_dirichlet",
    "coverage",
    "matched_terms",
    "match_density",
    "log_doc_length",
    "sum_idf_matched",
    "max_idf_matched",
    "bigram_matches",
    "semantic",
)


@dataclass(frozen=True)
class QueryDocumentFeatures:
    """A named view over one extracted feature vector."""

    values: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(FEATURE_NAMES, self.values))


@dataclass(frozen=True)
class PreparedQuery:
    """One query's analysis plus the collection statistics it needs.

    Snapshot semantics: term/field statistics are captured at
    preparation time, so every document scored against the same prepared
    query sees identical statistics (the unperturbed corpus, as the
    counterfactual search requires).
    """

    query: str
    terms: tuple[str, ...]
    distinct: frozenset[str]
    bigrams: frozenset[tuple[str, ...]]
    term_stats: Mapping[str, TermStats]
    idf: Mapping[str, float]
    field_stats: FieldStats


@dataclass(frozen=True)
class AnalyzedDocument:
    """A document body's analysis, sufficient for feature extraction."""

    terms: tuple[str, ...]
    counts: Mapping[str, int]
    length: int
    bigrams: frozenset[tuple[str, ...]]

    @classmethod
    def from_terms(cls, terms: Sequence[str]) -> "AnalyzedDocument":
        terms = tuple(terms)
        return cls(
            terms=terms,
            counts=Counter(terms),
            length=len(terms),
            bigrams=frozenset(ngrams(list(terms), 2)) if len(terms) > 1 else frozenset(),
        )


class FeatureExtractor:
    """Extracts :data:`FEATURE_NAMES` for (query, document-text) pairs."""

    def __init__(
        self,
        index: InvertedIndex,
        semantic_scorer: SemanticScorer | None = None,
    ):
        self.index = index
        self.semantic_scorer = semantic_scorer
        self._bm25 = Bm25Similarity()
        self._tfidf = TfIdfSimilarity()
        self._lm = DirichletSimilarity()
        self.view = CollectionView(index)
        self._prepared = Memo(PREPARED_CAPACITY, index)
        self._documents = Memo(DOCUMENT_MEMO_CAPACITY, index)

    @property
    def dimension(self) -> int:
        return len(FEATURE_NAMES)

    # -- prepared inputs -----------------------------------------------------

    def prepare(self, query: str) -> PreparedQuery:
        """Analyze ``query`` and snapshot its collection statistics."""
        return self._prepared.get(query, self._prepare)

    def _prepare(self, query: str) -> PreparedQuery:
        terms = tuple(self.index.analyzer.analyze(query))
        field_stats = self.view.field_stats()
        term_stats: dict[str, TermStats] = {}
        idf: dict[str, float] = {}
        for term in terms:
            if term in term_stats:
                continue
            stats = term_stats[term] = self.view.term_stats(term)
            idf[term] = self._bm25.idf(
                stats.document_frequency, field_stats.document_count
            )
        return PreparedQuery(
            query=query,
            terms=terms,
            distinct=frozenset(terms),
            bigrams=(
                frozenset(ngrams(list(terms), 2)) if len(terms) > 1 else frozenset()
            ),
            term_stats=term_stats,
            idf=idf,
            field_stats=field_stats,
        )

    def analyze_document(self, body: str) -> AnalyzedDocument:
        """Analyze arbitrary document text (no memoization)."""
        return AnalyzedDocument.from_terms(self.index.analyzer.analyze(body))

    def document_data(self, document: Document) -> AnalyzedDocument:
        """Memoized analysis of a corpus document (keyed by its body)."""
        return self._documents.get(document.body, self.analyze_document)

    # -- extraction ----------------------------------------------------------

    def extract_prepared(
        self, prepared: PreparedQuery, doc: AnalyzedDocument, body: str
    ) -> QueryDocumentFeatures:
        """The extraction kernel over prepared inputs.

        ``body`` is only consulted by the optional semantic channel; the
        lexical features come entirely from the analyzed views.
        """
        doc_terms = doc.counts
        doc_length = doc.length
        field_stats = prepared.field_stats

        bm25 = tfidf = lm = 0.0
        matched: set[str] = set()
        matched_tf = 0
        idfs: list[float] = []
        for term in prepared.terms:
            term_frequency = doc_terms.get(term, 0)
            term_stats = prepared.term_stats[term]
            bm25 += self._bm25.score(
                term_frequency, doc_length, term_stats, field_stats
            )
            tfidf += self._tfidf.score(
                term_frequency, doc_length, term_stats, field_stats
            )
            lm += self._lm.score(term_frequency, doc_length, term_stats, field_stats)
            if term_frequency > 0:
                matched.add(term)
                matched_tf += term_frequency
                idfs.append(prepared.idf[term])

        coverage = len(matched) / len(prepared.distinct) if prepared.distinct else 0.0
        density = matched_tf / doc_length if doc_length else 0.0
        bigram_matches = float(len(prepared.bigrams & doc.bigrams))

        semantic = (
            self.semantic_scorer(prepared.query, body)
            if self.semantic_scorer
            else 0.0
        )

        values = (
            bm25,
            tfidf,
            lm,
            coverage,
            float(len(matched)),
            density,
            math.log1p(doc_length),
            sum(idfs),
            max(idfs) if idfs else 0.0,
            bigram_matches,
            semantic,
        )
        return QueryDocumentFeatures(values)

    def extract(self, query: str, body: str) -> QueryDocumentFeatures:
        return self.extract_prepared(
            self.prepare(query), self.analyze_document(body), body
        )

    def extract_array(self, query: str, body: str) -> np.ndarray:
        return self.extract(query, body).as_array()
