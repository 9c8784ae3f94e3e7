"""``IndexSearcher`` remembers retrievals without changing a single one.

A searcher keeps each query's top k+1 hits for the current index
version and serves later calls for at most that many hits from them.
These tests pin that the memo is invisible:

* over random interleavings of ``search(q, k)`` (k from 1 to 60,
  repeating queries) with add, remove and replace on 1- and 3-shard
  live indexes, every result equals a fresh searcher's hits, ranks and
  scores, and mutating a returned list changes no later result;
* four threads rank and explain while a writer adds and removes
  documents; every rank that ran between two writes equals a fresh
  search of that state, so a lost invalidation fails.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.errors import IndexStateError, ReproError
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexSearcher
from repro.index.sharding import ShardedIndex
from repro.index.similarity import Bm25Similarity, DirichletSimilarity

BODIES = (
    "covid outbreak spreads in the city",
    "covid outbreak spreads in the city",
    "outbreak news today. The city waits.",
    "market stocks rally",
    "covid covid vaccine news",
    "news of the vaccine trial",
    "the city council met today",
)
QUERIES = ("covid outbreak", "outbreak", "news covid", "city", "unicorn")
SIMILARITIES = (Bm25Similarity(), DirichletSimilarity())
IDS = tuple(f"d{i:02d}" for i in range(80))
INITIAL = tuple(Document(IDS[i], BODIES[i % len(BODIES)]) for i in range(64))

steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("search"), st.sampled_from(QUERIES), st.integers(1, 60)
        ),
        st.tuples(
            st.sampled_from(("add", "remove", "replace")),
            st.sampled_from(IDS),
            st.sampled_from(BODIES),
        ),
    ),
    max_size=40,
)


def _hits(hits):
    return [(hit.doc_id, hit.score, hit.rank) for hit in hits]


class TestEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shards=st.sampled_from((1, 3)),
        similarity=st.sampled_from(SIMILARITIES),
        history=steps,
    )
    def test_every_search_equals_a_fresh_searcher(
        self, shards, similarity, history
    ):
        index = ShardedIndex.from_documents(INITIAL, shards)
        searcher = IndexSearcher(index, similarity)
        for op, arg, value in history:
            if op == "search":
                fresh = IndexSearcher(index, similarity)
                if not len(index):
                    with pytest.raises(IndexStateError):
                        searcher.search(arg, value)
                    continue
                hits = searcher.search(arg, value)
                assert _hits(hits) == _hits(fresh.search(arg, value))
                hits.reverse()  # the caller owns the list it was handed
                hits.append(hits[0] if hits else None)
                continue
            present = arg in index
            if op == "add" and not present:
                index.add(Document(arg, value))
            elif op == "remove" and present:
                index.remove(arg)
            elif op == "replace" and present:
                index.replace(Document(arg, value))

    def test_repeats_are_served_from_the_kept_hits(self):
        index = ShardedIndex.from_documents(INITIAL, 3)
        searcher = IndexSearcher(index)
        first = searcher.search("covid outbreak", 10)
        first.clear()
        assert _hits(searcher.search("covid outbreak", 11)) == _hits(
            IndexSearcher(index).search("covid outbreak", 11)
        )
        stats = searcher._retrievals.stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)
        searcher.search("covid outbreak", 12)  # deeper: scored again
        searcher.search("covid outbreak", 11)  # still the first entry
        stats = searcher._retrievals.stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 2, 2)


# -- readers racing a writer ---------------------------------------------------

STRESS_SECONDS = 1.5
READERS = 4
K = 5
STRATEGIES = ("document/sentence-removal", "query/augmentation")


@pytest.mark.parametrize("backend", ("inverted", "sharded-3"))
def test_ranks_between_writes_equal_a_fresh_search(backend):
    documents = [Document(doc.doc_id, doc.body) for doc in INITIAL[:40]]
    index = (
        InvertedIndex.from_documents(documents)
        if backend == "inverted"
        else ShardedIndex.from_documents(documents, 3)
    )
    engine = CredenceEngine.from_index(
        index, EngineConfig(ranker="bm25", seed=5)
    )
    similarity = Bm25Similarity()

    def fresh_rankings():
        searcher = IndexSearcher(index, similarity)
        return {q: _hits(searcher.search(q, K)) for q in QUERIES}

    # writes[0] counts writes begun and writes[1] writes finished. A rank
    # that found them equal when it started, and writes[0] unchanged
    # when it returned, ran wholly on the corpus state whose fresh
    # rankings are ``expected[writes[1]]``.
    writes = [0, 0]
    expected = {0: fresh_rankings()}
    checked, mismatches, failures = [], [], []
    stop = threading.Event()

    def writer():
        try:
            for step in range(10_000):
                if stop.is_set():
                    return
                # Add a document, or remove the best hit of a query.
                top = expected[writes[1]][QUERIES[step % 3]]
                writes[0] += 1
                if step % 2 == 0 or not top:
                    body = BODIES[step % len(BODIES)]
                    index.add(Document(f"new-{step}", body))
                else:
                    index.remove(top[0][0])
                expected[writes[0]] = fresh_rankings()
                writes[1] = writes[0]
                time.sleep(0.002)
        except Exception as error:  # reported below
            failures.append(repr(error))

    def reader(slot):
        turn = slot
        try:
            while not stop.is_set():
                query = QUERIES[turn % len(QUERIES)]
                turn += 1
                state = writes[1]
                began_quiet = writes[0] == state
                ranking = engine.rank(query, K)
                if began_quiet and writes[0] == state:
                    got = [(e.doc_id, e.score, e.rank) for e in ranking]
                    checked.append(state)
                    if got != expected[state][query]:
                        mismatches.append((state, query, got))
                if len(ranking) > 1:
                    request = ExplainRequest(
                        query,
                        ranking.doc_ids[1],
                        strategy=STRATEGIES[turn % 2],
                        budget=20,
                    )
                    try:
                        engine.explain(request)
                    except ReproError:
                        pass  # a concurrent write removed or demoted it
        except Exception as error:  # reported below
            failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(READERS)
        ]
        for thread in threads:
            thread.start()
        time.sleep(STRESS_SECONDS)
        stop.set()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert mismatches == []
    assert writes[1] >= 5
    assert len(set(checked)) >= 3 and len(checked) >= 20
