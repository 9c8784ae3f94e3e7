"""Tests for postings lists."""

import copy
import dataclasses
import pickle

import pytest

from repro.index.postings import Posting, PostingsList


class TestPosting:
    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            Posting("d1", 0)

    def test_rejects_position_frequency_mismatch(self):
        with pytest.raises(ValueError):
            Posting("d1", 2, positions=(1,))

    def test_positions_optional(self):
        assert Posting("d1", 3).positions == ()

    def test_slotted_and_still_a_frozen_value(self):
        posting = Posting("d1", 2, (0, 5))
        assert not hasattr(posting, "__dict__")
        for twin in (
            pickle.loads(pickle.dumps(posting)),
            copy.copy(posting),
            copy.deepcopy(posting),
            Posting("d1", 2, (0, 5)),
        ):
            assert twin == posting
            assert hash(twin) == hash(posting)
        assert posting != Posting("d1", 2, (0, 6))
        assert len({posting, Posting("d1", 2, (0, 5))}) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            posting.frequency = 3


class TestPostingsList:
    def test_add_and_counters(self):
        postings = PostingsList("covid")
        postings.add(Posting("d1", 2, (0, 5)))
        postings.add(Posting("d2", 1, (3,)))
        assert postings.document_frequency == 2
        assert postings.collection_frequency == 3

    def test_duplicate_doc_rejected(self):
        postings = PostingsList("covid")
        postings.add(Posting("d1", 1, (0,)))
        with pytest.raises(ValueError):
            postings.add(Posting("d1", 1, (1,)))

    def test_remove(self):
        postings = PostingsList("covid")
        postings.add(Posting("d1", 1, (0,)))
        assert postings.remove("d1") is True
        assert postings.remove("d1") is False
        assert postings.document_frequency == 0

    def test_get_and_contains(self):
        postings = PostingsList("t")
        posting = Posting("d1", 1, (2,))
        postings.add(posting)
        assert postings.get("d1") == posting
        assert postings.get("d2") is None
        assert "d1" in postings
        assert "d2" not in postings

    def test_iteration(self):
        postings = PostingsList("t")
        postings.add(Posting("d1", 1, (0,)))
        postings.add(Posting("d2", 2, (1, 2)))
        assert [p.doc_id for p in postings] == ["d1", "d2"]
