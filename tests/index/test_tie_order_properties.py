"""Tie order of ranked, phrase and boolean retrieval on every backend.

``IndexSearcher`` orders hits through the index's ``ordinals`` map
instead of walking ``doc_ids``. These properties pin that the two
agree: over random corpora with repeated bodies (so scores tie) and
random add / remove / replace / re-add histories, ``search(q, k)``
equals a reference that sorts ``score_all(q)`` by (−score, position in
``doc_ids``), and phrase and boolean results equal a reference built by
walking ``doc_ids``. The backends are a bare ``InvertedIndex``,
``ShardedIndex`` with 1 and 3 shards under both routers, and the packed
attach of the same corpus.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexSearcher
from repro.index.sharding import ShardedIndex, build_router
from repro.index.similarity import (
    Bm25Similarity,
    DirichletSimilarity,
    TfIdfSimilarity,
)
from repro.index.storage import load_index, save_index

#: Few distinct bodies, so most corpora hold exact duplicates.
BODIES = (
    "covid outbreak spreads",
    "covid outbreak spreads",
    "outbreak news today",
    "market stocks rally",
    "covid covid vaccine news",
    "news",
)
QUERIES = ("covid outbreak", "outbreak", "news covid", "stocks", "unicorn")
PHRASES = ("covid outbreak", "outbreak spreads", "covid", "covid vaccine news", "unicorn")
SIMILARITIES = (Bm25Similarity(), TfIdfSimilarity(), DirichletSimilarity())
IDS = tuple(f"d{i}" for i in range(8))

#: (shard count, router) of the in-memory sharded backends.
SHARDED = ((1, "hash"), (3, "hash"), (3, "round-robin"))

operations = st.lists(
    st.tuples(
        st.sampled_from(("add", "remove", "replace", "readd")),
        st.sampled_from(IDS),
        st.sampled_from(BODIES),
    ),
    max_size=16,
)
initial_bodies = st.lists(st.sampled_from(BODIES), min_size=1, max_size=len(IDS))

PROPERTY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _apply(index, history) -> None:
    """Replay an operation history; a step that does not apply is skipped."""
    for op, doc_id, body in history:
        present = doc_id in index
        if op == "add" and not present:
            index.add(Document(doc_id, body))
        elif op == "remove" and present:
            index.remove(doc_id)
        elif op == "replace" and present:
            index.replace(Document(doc_id, body))
        elif op == "readd":
            if present:
                index.remove(doc_id)
            index.add(Document(doc_id, body))


def _memory_backends(bodies, history) -> list:
    documents = [Document(IDS[i], body) for i, body in enumerate(bodies)]
    backends = [InvertedIndex.from_documents(documents)]
    for shard_count, router in SHARDED:
        backends.append(
            ShardedIndex.from_documents(
                documents, shard_count, router=build_router(router, shard_count)
            )
        )
    for index in backends:
        _apply(index, history)
    return backends


def _with_packed(bodies, history, check) -> None:
    """Run ``check(backends)`` over the in-memory backends plus the packed
    attach of the three-shard round-robin one."""
    backends = _memory_backends(bodies, history)
    if not len(backends[0]):
        return
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "corpus.idx"
        save_index(backends[-1], path)
        packed = load_index(path)
        try:
            check(backends + [packed])
        finally:
            packed.close()


def _reference_topk(index, searcher, query, k):
    order = index.doc_ids
    ranked = sorted(
        searcher.score_all(query).items(),
        key=lambda item: (-item[1], order.index(item[0])),
    )
    return [
        (doc_id, score, rank)
        for rank, (doc_id, score) in enumerate(ranked[:k], start=1)
    ]


def _phrase_reference(index, phrase):
    terms = index.analyzer.analyze(phrase)
    if not terms:
        return []

    def contains(doc_id):
        body = index.analyzer.analyze(index.document(doc_id).body)
        return any(
            body[start:start + len(terms)] == terms
            for start in range(len(body) - len(terms) + 1)
        )

    return [doc_id for doc_id in index.doc_ids if contains(doc_id)]


def _boolean_reference(index, query, mode):
    terms = set(index.analyzer.analyze(query))
    if not terms:
        return []
    test = all if mode == "and" else any
    return [
        doc_id
        for doc_id in index.doc_ids
        if test(index.term_frequency(term, doc_id) for term in terms)
    ]


class TestTieOrder:
    @PROPERTY_SETTINGS
    @given(bodies=initial_bodies, history=operations)
    def test_topk_matches_doc_ids_tie_order(self, bodies, history):
        def check(backends):
            expected_order = backends[0].doc_ids
            for index in backends:
                assert index.doc_ids == expected_order
                assert list(index.ordinals) == expected_order
                for similarity in SIMILARITIES:
                    searcher = IndexSearcher(index, similarity)
                    for query in QUERIES:
                        for k in (1, 2, len(index), len(index) + 1):
                            hits = [
                                (hit.doc_id, hit.score, hit.rank)
                                for hit in searcher.search(query, k)
                            ]
                            assert hits == _reference_topk(
                                index, searcher, query, k
                            )

        _with_packed(bodies, history, check)

    @PROPERTY_SETTINGS
    @given(bodies=initial_bodies, history=operations)
    def test_phrase_and_boolean_follow_doc_ids(self, bodies, history):
        def check(backends):
            for index in backends:
                searcher = IndexSearcher(index)
                for phrase in PHRASES:
                    assert searcher.search_phrase(phrase) == _phrase_reference(
                        index, phrase
                    )
                for query in QUERIES:
                    for mode in ("and", "or"):
                        assert searcher.search_boolean(
                            query, mode
                        ) == _boolean_reference(index, query, mode)

        _with_packed(bodies, history, check)

    @PROPERTY_SETTINGS
    @given(bodies=initial_bodies, history=operations)
    def test_ordinals_increase_along_doc_ids(self, bodies, history):
        for index in _memory_backends(bodies, history):
            ordinals = index.ordinals
            positions = [ordinals[doc_id] for doc_id in index.doc_ids]
            assert positions == sorted(set(positions))
