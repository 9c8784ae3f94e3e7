"""Score caching and invocation counting around a black-box ranker.

Counterfactual search re-scores the same (query, text) pairs often — the
unperturbed top-k documents are re-ranked against every candidate
perturbation. :class:`ScoreCache` memoises those scores;
:class:`CountingRanker` counts true ranker invocations, giving the
efficiency benchmarks their cost metric (ranker calls, the dominant cost
when the ranker is a neural model).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.index.document import Document
from repro.ranking.base import Ranker, Ranking
from repro.ranking.session import NaiveScoringSession, ScoringSession
from repro.utils.memo import Memo
from repro.utils.validation import require_positive


def _text_key(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


class CountingRanker(Ranker):
    """Transparent wrapper that counts scoring and ranking calls."""

    def __init__(self, inner: Ranker):
        super().__init__(inner.index)
        self.inner = inner
        self.score_calls = 0
        self.rank_calls = 0

    @property
    def name(self) -> str:
        return f"Counting({self.inner.name})"

    def reset(self) -> None:
        self.score_calls = 0
        self.rank_calls = 0

    def rank(self, query: str, k: int) -> Ranking:
        self.rank_calls += 1
        return self.inner.rank(query, k)

    def score_text(self, query: str, body: str) -> float:
        self.score_calls += 1
        return self.inner.score_text(query, body)

    # scoring_session deliberately stays the base-class naive fallback:
    # CountingRanker exists to measure true black-box invocations, so it
    # opts out of incremental reuse and counts one score_text per pool
    # document per candidate, exactly as before sessions existed.


class ScoreCache(Ranker):
    """Memoises ``score_text`` by (query, sha1(text)).

    The scores live in a :class:`~repro.utils.memo.Memo` of
    ``max_entries``: a full cache drops its oldest half, and since
    scores embed collection statistics (df, avgdl) the cache empties
    when the index's mutation ``version`` moves — a corpus add/remove
    must never serve pre-mutation scores. A score whose computation
    straddled a mutation is returned but not cached.

    Thread-safe: the wrapped ranker computes outside the memo's lock,
    so concurrent misses on different texts don't serialise. Two
    threads racing the same uncached key may both compute it —
    idempotent, so harmless.
    """

    def __init__(self, inner: Ranker, max_entries: int = 100_000):
        require_positive(max_entries, "max_entries")
        super().__init__(inner.index)
        self.inner = inner
        self.max_entries = max_entries
        self._scores = Memo(max_entries, inner.index)

    @property
    def name(self) -> str:
        return f"Cached({self.inner.name})"

    @property
    def hits(self) -> int:
        return self._scores.hits

    @property
    def misses(self) -> int:
        return self._scores.misses

    def rank(self, query: str, k: int) -> Ranking:
        return self.inner.rank(query, k)

    def score_text(self, query: str, body: str) -> float:
        return self._scores.get(
            (query, _text_key(body)),
            lambda _key: self.inner.score_text(query, body),
        )

    def scoring_session(
        self, query: str, pool: Sequence[Document]
    ) -> ScoringSession:
        """Delegate to the wrapped ranker's incremental session.

        An incremental session precomputes exactly the scores the cache
        would have memoised, so layering the cache inside it would only
        add hashing overhead. If the inner ranker has no incremental
        session (a third-party black box on the naive fallback), keep
        the naive session pointed at *this* ranker so every repeated
        pool scoring still goes through the cache.
        """
        session = self.inner.scoring_session(query, pool)
        if type(session) is NaiveScoringSession:
            return NaiveScoringSession(self, query, pool)
        return session

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
