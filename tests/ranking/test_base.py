"""Tests for Ranking / RankedDocument."""

import pytest

from repro.errors import RankingError
from repro.ranking.base import RankedDocument, Ranking


def make_ranking(*doc_ids: str) -> Ranking:
    return Ranking(
        [
            RankedDocument(doc_id=doc_id, score=float(len(doc_ids) - i), rank=i + 1)
            for i, doc_id in enumerate(doc_ids)
        ]
    )


class TestRanking:
    def test_rank_of(self):
        ranking = make_ranking("a", "b", "c")
        assert ranking.rank_of("b") == 2
        assert ranking.rank_of("zz") is None

    def test_contiguous_ranks_enforced(self):
        with pytest.raises(RankingError):
            Ranking([RankedDocument("a", 1.0, 2)])

    def test_duplicate_docs_rejected(self):
        with pytest.raises(RankingError):
            Ranking(
                [
                    RankedDocument("a", 2.0, 1),
                    RankedDocument("a", 1.0, 2),
                ]
            )

    def test_from_scores_orders_descending(self):
        ranking = Ranking.from_scores([("a", 1.0), ("b", 3.0), ("c", 2.0)])
        assert ranking.doc_ids == ["b", "c", "a"]

    def test_from_scores_tie_break_is_input_order(self):
        ranking = Ranking.from_scores([("first", 1.0), ("second", 1.0)])
        assert ranking.doc_ids == ["first", "second"]

    def test_top(self):
        ranking = make_ranking("a", "b", "c")
        assert ranking.top(2).doc_ids == ["a", "b"]

    def test_entry_and_score(self):
        ranking = make_ranking("a", "b")
        assert ranking.entry("b").rank == 2
        assert ranking.score_of("a") == 2.0
        with pytest.raises(RankingError):
            ranking.entry("zz")

    def test_container_protocol(self):
        ranking = make_ranking("a", "b")
        assert "a" in ranking
        assert len(ranking) == 2
        assert ranking[0].doc_id == "a"

    def test_to_dicts(self):
        payload = make_ranking("a").to_dicts()
        assert payload == [{"doc_id": "a", "score": 1.0, "rank": 1}]
