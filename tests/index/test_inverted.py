"""Tests for the inverted index."""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DocumentNotFoundError
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.obs.trace import Trace, TraceContext, activate_context


class TestIndexBuild:
    def test_from_documents(self, tiny_docs):
        index = InvertedIndex.from_documents(tiny_docs)
        assert len(index) == len(tiny_docs)

    def test_duplicate_id_rejected(self):
        index = InvertedIndex()
        index.add(Document("d1", "text"))
        with pytest.raises(ValueError):
            index.add(Document("d1", "other"))

    def test_document_lookup(self, tiny_index, tiny_docs):
        assert tiny_index.document("d1") == tiny_docs[0]

    def test_missing_document_raises(self, tiny_index):
        with pytest.raises(DocumentNotFoundError):
            tiny_index.document("nope")

    def test_contains_and_iter(self, tiny_index):
        assert "d1" in tiny_index
        assert "zz" not in tiny_index
        assert {d.doc_id for d in tiny_index} == set(tiny_index.doc_ids)


class TestStatistics:
    def test_document_frequency(self, tiny_index):
        # 'covid' appears in d1, d2, d5 of the tiny corpus.
        assert tiny_index.document_frequency("covid") == 3

    def test_collection_frequency_counts_occurrences(self, tiny_index):
        assert tiny_index.collection_frequency("covid") >= tiny_index.document_frequency("covid")

    def test_unknown_term_zero(self, tiny_index):
        assert tiny_index.document_frequency("zzzz") == 0
        assert tiny_index.collection_frequency("zzzz") == 0

    def test_term_frequency(self, tiny_index):
        assert tiny_index.term_frequency("covid", "d5") == 2
        assert tiny_index.term_frequency("covid", "d4") == 0

    def test_document_length_positive(self, tiny_index):
        assert tiny_index.document_length("d1") > 0

    def test_term_vector_is_copy(self, tiny_index):
        vector = tiny_index.term_vector("d1")
        vector["covid"] = 999
        assert tiny_index.term_frequency("covid", "d1") != 999

    def test_stats_totals(self, tiny_index):
        stats = tiny_index.stats()
        assert stats.document_count == 6
        assert stats.total_terms == sum(
            tiny_index.document_length(d) for d in tiny_index.doc_ids
        )
        assert stats.average_document_length == pytest.approx(
            stats.total_terms / stats.document_count
        )

    def test_empty_index_stats(self):
        stats = InvertedIndex().stats()
        assert stats.document_count == 0
        assert stats.average_document_length == 0.0


class TestPositions:
    def test_positions_recorded(self, tiny_index):
        posting = tiny_index.postings("covid").get("d1")
        assert posting.frequency == len(posting.positions)

    def test_positions_index_term_sequence(self, tiny_index):
        terms = tiny_index.analyzer.analyze(tiny_index.document("d1").body)
        posting = tiny_index.postings("covid").get("d1")
        for position in posting.positions:
            assert terms[position] == "covid"

    def test_one_pass_yields_counts_and_positions(self):
        index = InvertedIndex()
        terms = ["b", "a", "b", "c", "b", "a"]
        counts = index.add_analyzed(Document("d", "unused"), terms)
        assert list(counts.items()) == list(Counter(terms).items())
        assert counts is index.term_frequencies("d")
        for term, frequency in counts.items():
            posting = index.postings(term).get("d")
            assert posting.frequency == frequency
            assert type(posting.positions) is tuple
            assert [terms[p] for p in posting.positions] == [term] * frequency
        assert index.postings("b").get("d").positions == (0, 2, 4)
        assert index.postings("c").get("d").positions == (3,)


class TestConcurrentPlacement:
    THREADS = 6  # more threads than cores
    ROUNDS = 20  # each round is a fresh race on a fresh index

    def test_racing_adds_keep_every_position(self):
        # Threads call add_analyzed directly, as the sharded backend and
        # replace() do. Every document is longer than any added before
        # it, so each add grows the shared position tuples while other
        # threads read them.
        bodies = [
            {
                f"t{thread}-{i}": " ".join(
                    f"w{(thread + j) % 7}"
                    for j in range(1 + thread + 8 * self.THREADS * i)
                )
                for i in range(15)
            }
            for thread in range(self.THREADS)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(self.ROUNDS):
                self._race(bodies)
        finally:
            sys.setswitchinterval(previous)

    def _race(self, bodies) -> None:
        index = InvertedIndex()
        barrier = threading.Barrier(self.THREADS, timeout=30)

        def add(thread: int) -> None:
            barrier.wait()
            for doc_id, body in bodies[thread].items():
                index.add_analyzed(Document(doc_id, body), body.split())

        threads = [
            threading.Thread(target=add, args=(thread,))
            for thread in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        for own in bodies:
            for doc_id, body in own.items():
                terms = body.split()
                for term in set(terms):
                    expected = tuple(p for p, t in enumerate(terms) if t == term)
                    assert index.postings(term).get(doc_id).positions == expected


class TestIngestSpan:
    def test_add_documents_opens_one_ingest_span(self):
        index = InvertedIndex()
        index.add(Document("seen", "covid outbreak"))
        trace = Trace("ingest")
        with activate_context(TraceContext(trace)):
            index.add_documents(
                [
                    Document("a", "covid vaccine"),
                    Document("b", "vaccine trial covid"),
                ]
            )
        (span,) = trace.spans
        assert span.name == "index/ingest"
        assert span.attributes == {"documents": 2, "new_tokens": 2}
        assert span.duration_ms is not None


class TestMutation:
    def test_remove_restores_stats(self, tiny_docs):
        index = InvertedIndex.from_documents(tiny_docs)
        before = index.stats()
        index.add(Document("extra", "covid covid covid everywhere"))
        index.remove("extra")
        after = index.stats()
        assert before == after

    def test_remove_missing_raises(self, tiny_index):
        with pytest.raises(DocumentNotFoundError):
            tiny_index.remove("missing")

    def test_remove_drops_empty_postings(self):
        index = InvertedIndex()
        index.add(Document("only", "unicorns"))
        index.remove("only")
        assert index.postings("unicorn") is None

    def test_replace_swaps_body(self, tiny_docs):
        index = InvertedIndex.from_documents(tiny_docs)
        previous = index.replace(Document("d4", "entirely new finance text"))
        assert previous.doc_id == "d4"
        assert "entir" in [t for t in index.terms()] or index.document_frequency("entir") == 1

    def test_failed_replace_keeps_document(self, tiny_docs):
        index = InvertedIndex.from_documents(tiny_docs)
        before = (index.document("d4"), len(index), index.version, index.doc_ids)
        with pytest.raises(TypeError):
            index.replace(Document("d4", None))
        after = (index.document("d4"), len(index), index.version, index.doc_ids)
        assert after == before

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.text(alphabet="abcde ", min_size=1, max_size=30), min_size=1, max_size=8))
    def test_add_remove_roundtrip_property(self, bodies):
        base = [Document(f"base{i}", body or "x") for i, body in enumerate(bodies[:-1])]
        index = InvertedIndex.from_documents(base)
        snapshot = {
            term: index.collection_frequency(term) for term in index.terms()
        }
        index.add(Document("volatile", bodies[-1] or "y"))
        index.remove("volatile")
        assert {
            term: index.collection_frequency(term) for term in index.terms()
        } == snapshot
