"""Substituted-document re-ranking: the Builder's backend primitive.

"Behind the scenes, the edited document is substituted for the original,
then re-ranked alongside the other top k+1 documents" (§III-C). This
module implements that substitution and the per-document rank-movement
report rendered as coloured arrows in the demo UI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import RankingError
from repro.index.document import Document
from repro.ranking.base import Ranker, Ranking
from repro.ranking.session import ScoringSession


@dataclass(frozen=True)
class RankMovement:
    """How one document's rank changed after a substitution re-rank."""

    doc_id: str
    before: int | None  # None for the newly revealed k+1 document
    after: int
    #: "raised" | "lowered" | "unchanged" | "revealed"
    direction: str

    @staticmethod
    def of(doc_id: str, before: int | None, after: int) -> "RankMovement":
        if before is None:
            direction = "revealed"
        elif after < before:
            direction = "raised"
        elif after > before:
            direction = "lowered"
        else:
            direction = "unchanged"
        return RankMovement(doc_id, before, after, direction)


def candidate_pool(ranker: Ranker, query: str, k: int) -> list[Document]:
    """The top k+1 documents for ``query``, padded if retrieval runs dry.

    Sparse first stages only return documents matching at least one query
    term; when fewer than k+1 documents match, the pool is padded with
    unretrieved corpus documents (in stable corpus order) so a perturbed
    document always has a rank-(k+1) slot to fall into — matching the
    demo, where the corpus always exceeds the ranked list.
    """
    ranking = ranker.rank(query, k + 1)
    pool_size = min(k + 1, len(ranker.index))
    documents = [ranker.index.document(doc_id) for doc_id in ranking.doc_ids]
    if len(documents) < pool_size:
        retrieved = set(ranking.doc_ids)
        for doc_id in ranker.index.doc_ids:
            if len(documents) >= pool_size:
                break
            if doc_id not in retrieved:
                documents.append(ranker.index.document(doc_id))
    return documents


def rank_with_substitution(
    ranker: Ranker,
    query: str,
    candidates: Sequence[Document],
    replacement: Document,
    session: ScoringSession | None = None,
) -> Ranking:
    """Re-rank ``candidates`` with ``replacement`` swapped in by doc id.

    Driven by a :class:`~repro.ranking.session.ScoringSession`, so only
    the replacement document is re-scored. Callers that already hold a
    session for (query, candidates) — e.g. the Builder, which ranks the
    baseline first — pass it in to reuse the precomputed pool scores.

    Sessions substitute *text*, preserving the pool document's title and
    metadata (the ``Document.with_body`` contract every explainer uses).
    A replacement that changes more than its body — e.g. different
    metadata priors for a feature-based ranker — falls back to a full
    naive re-rank so its non-textual fields are honoured exactly as
    before.

    Raises :class:`RankingError` if the replacement's id is not among the
    candidates (a substitution must replace something).
    """
    original = next(
        (
            document
            for document in candidates
            if document.doc_id == replacement.doc_id
        ),
        None,
    )
    if original is None:
        raise RankingError(
            f"replacement {replacement.doc_id!r} does not match any candidate"
        )
    if replacement != original.with_body(replacement.body):
        # The replacement carries its own title/metadata: re-rank the
        # explicitly substituted pool so those fields are scored.
        substituted = [
            replacement if document.doc_id == replacement.doc_id else document
            for document in candidates
        ]
        return ranker.rank_candidates(query, substituted)
    if session is None:
        session = ranker.scoring_session(query, candidates)
    return session.ranking_with_substitution(replacement.doc_id, replacement.body)


def movements(before: Ranking, after: Ranking) -> list[RankMovement]:
    """Per-document movement report between two rankings (after-order)."""
    return [
        RankMovement.of(entry.doc_id, before.rank_of(entry.doc_id), entry.rank)
        for entry in after
    ]
