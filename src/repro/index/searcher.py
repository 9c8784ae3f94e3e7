"""Ranked and boolean retrieval over an :class:`InvertedIndex`.

This is the Pyserini-searcher equivalent: analysed query → top-k hits
under a pluggable :class:`Similarity`. Term-at-a-time accumulation scores
only documents containing at least one query term; language-model
similarities (which smooth absent terms) fall back to scoring every
document. Results are ordered through the index's ``ordinals`` map
(doc id → insertion ordinal), so selecting the top k never walks the
corpus. Each searcher remembers its recent retrievals per query and
index version, so the explanations of a ranking just shown reuse it.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.errors import DocumentNotFoundError, IndexStateError
from repro.index.inverted import InvertedIndex
from repro.index.similarity import Bm25Similarity, CollectionView, Similarity
from repro.utils.memo import Memo
from repro.utils.validation import require_positive

#: Queries whose retrieval one searcher remembers (per index version).
RETRIEVAL_CAPACITY = 256


@dataclass(frozen=True)
class SearchHit:
    """One retrieval result: a document id, its score, and its 1-based rank."""

    doc_id: str
    score: float
    rank: int


class IndexSearcher:
    """Executes queries against an index with a configurable similarity."""

    def __init__(self, index: InvertedIndex, similarity: Similarity | None = None):
        self.index = index
        self.similarity = similarity or Bm25Similarity()
        self.view = CollectionView(index)
        #: query -> (depth, its top ``depth`` hits), for the index version.
        self._retrievals = Memo(RETRIEVAL_CAPACITY, index)

    # -- internals -----------------------------------------------------------

    def _score_sparse(self, query_terms: list[str]) -> dict[str, float]:
        """Term-at-a-time scores for documents matching ≥1 query term.

        Fans out over the index's segments (``shards``; a bare
        :class:`InvertedIndex` is its own one segment) — postings and
        document lengths are read from the owning segment directly, while
        term and field statistics stay *corpus-level* (the merged view) —
        and merges the per-segment accumulators. Every document lives on
        exactly one segment and its per-term contributions are summed in
        query order either way, so the merged scores are byte-identical
        for any segment count.
        """
        field_stats = self.view.field_stats()
        term_stats = {term: self.view.term_stats(term) for term in query_terms}
        accumulator: dict[str, float] = defaultdict(float)
        for shard in self.index.shards:
            for term in query_terms:
                postings = shard.postings(term)
                if postings is None:
                    continue
                stats = term_stats[term]
                for posting in postings:
                    try:
                        length = shard.document_length(posting.doc_id)
                    except DocumentNotFoundError:
                        continue  # removed since its posting was read
                    accumulator[posting.doc_id] += self.similarity.score(
                        posting.frequency, length, stats, field_stats
                    )
        return dict(accumulator)

    def _in_corpus_order(self, doc_ids: Iterable[str]) -> list[str]:
        """``doc_ids`` sorted by insertion ordinal; ids no longer indexed drop out."""
        ordinal = self.index.ordinals.get
        placed = [
            (position, doc_id)
            for doc_id in doc_ids
            if (position := ordinal(doc_id)) is not None
        ]
        return [doc_id for _, doc_id in sorted(placed)]

    def _score_dense(self, query_terms: list[str]) -> dict[str, float]:
        """Score every document against every query term (LM smoothing).

        Fans out per shard like :meth:`_score_sparse`; per-document term
        lookups hit the owning shard, statistics stay corpus-level.
        """
        field_stats = self.view.field_stats()
        term_stats = {term: self.view.term_stats(term) for term in query_terms}
        scores: dict[str, float] = {}
        for shard in self.index.shards:
            for doc_id in shard.doc_ids:
                try:
                    length = shard.document_length(doc_id)
                    total = 0.0
                    for term in query_terms:
                        total += self.similarity.score(
                            shard.term_frequency(term, doc_id),
                            length,
                            term_stats[term],
                            field_stats,
                        )
                except DocumentNotFoundError:
                    continue  # removed since doc_ids was read
                scores[doc_id] = total
        return scores

    # -- public API ----------------------------------------------------------

    def score_all(self, query: str) -> dict[str, float]:
        """Score the whole collection for ``query`` (analysed internally)."""
        if len(self.index) == 0:
            raise IndexStateError("cannot search an empty index")
        query_terms = self.index.analyzer.analyze(query)
        if self.similarity.needs_all_query_terms():
            return self._score_dense(query_terms)
        return self._score_sparse(query_terms)

    def search(self, query: str, k: int = 10) -> list[SearchHit]:
        """Return the top-``k`` hits for ``query``, best first.

        Ties are broken by insertion (index) order, so results are
        deterministic for a fixed corpus. Selection keeps the k best
        scored documents by (−score, insertion ordinal) in one pass
        with a k-sized heap, so it follows the matching postings and
        never walks ``doc_ids``. A document removed after scoring has
        no ordinal and drops out.

        A miss keeps one hit more than asked for, the k+1 pool that
        explaining a document of this ranking asks for next. A later
        call for the same query on the same index version is served
        from those hits when it asks for no more of them, or when fewer
        documents matched; under that order the first k of the top k+1
        are exactly the top k. Every call returns a new list.
        """
        require_positive(k, "k")
        _, hits = self._retrievals.get(
            query,
            lambda _: (k + 1, self._top(query, k + 1)),
            lambda kept: k <= kept[0] or len(kept[1]) < kept[0],
        )
        return hits[:k]

    def _top(self, query: str, depth: int) -> list[SearchHit]:
        """The top ``depth`` hits for ``query``, scored afresh."""
        scores = self.score_all(query)
        ordinal = self.index.ordinals.get
        ranked = [
            (-score, position, doc_id)
            for doc_id, score in scores.items()
            if (position := ordinal(doc_id)) is not None
        ]
        return [
            SearchHit(doc_id=doc_id, score=-negated, rank=rank)
            for rank, (negated, _, doc_id) in enumerate(
                heapq.nsmallest(depth, ranked), start=1
            )
        ]

    def search_phrase(self, phrase: str) -> list[str]:
        """Exact-phrase retrieval using positional postings.

        Returns ids of documents containing the analysed terms of
        ``phrase`` as consecutive positions, in corpus insertion order.
        Single-term phrases degrade to term lookup; empty analysis
        yields no results.
        """
        terms = self.index.analyzer.analyze(phrase)
        if not terms:
            return []
        first_postings = self.index.postings(terms[0])
        if first_postings is None:
            return []
        matches = []
        for posting in first_postings:
            doc_id = posting.doc_id
            starts = set(posting.positions)
            for offset, term in enumerate(terms[1:], start=1):
                postings = self.index.postings(term)
                entry = postings.get(doc_id) if postings else None
                if entry is None:
                    starts = set()
                    break
                positions = set(entry.positions)
                starts = {start for start in starts if start + offset in positions}
                if not starts:
                    break
            if starts:
                matches.append(doc_id)
        return self._in_corpus_order(matches)

    def search_boolean(self, query: str, mode: str = "and") -> list[str]:
        """Boolean retrieval: ids of documents matching all/any query terms,
        in corpus insertion order."""
        if mode not in {"and", "or"}:
            raise ValueError(f"mode must be 'and' or 'or', got {mode!r}")
        query_terms = self.index.analyzer.analyze(query)
        if not query_terms:
            return []
        doc_sets = []
        for term in set(query_terms):
            postings = self.index.postings(term)
            doc_sets.append({p.doc_id for p in postings} if postings else set())
        combined: set[str] = set.intersection(*doc_sets) if mode == "and" else set.union(*doc_sets)
        return self._in_corpus_order(combined)
