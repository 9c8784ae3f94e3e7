"""Postings stored as two maps per term, not one object per posting.

* After a bulk ingest and a full collection, no ``Posting`` is alive and
  the collector tracks a bounded number of new objects: a few per
  document and per (segment, term), none per posting.
* Readers that build ``Posting`` values without the index lock (phrase
  and boolean search, ``get``, iteration) and ``export_snapshot`` run
  beside a writer that adds, replaces and removes documents: nothing
  raises, and every posting's positions match its frequency.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time

import pytest

from repro.datasets.stream import stream_corpus
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.postings import Posting
from repro.index.searcher import IndexSearcher
from repro.index.sharding import ShardedIndex

BUILDS = {
    "inverted": InvertedIndex.from_documents,
    "sharded-3": lambda documents: ShardedIndex.from_documents(documents, 3),
}


@pytest.mark.parametrize("backend", sorted(BUILDS))
def test_ingest_leaves_no_object_per_posting(backend):
    documents = list(stream_corpus(300, seed=11, vocabulary_size=3_000))
    gc.collect()
    before = {id(tracked) for tracked in gc.get_objects()}
    index = BUILDS[backend](documents)
    gc.collect()
    new = [tracked for tracked in gc.get_objects() if id(tracked) not in before]
    postings = sum(len(index.term_frequencies(d)) for d in index.doc_ids)
    segment_terms = sum(len(list(shard.terms())) for shard in index.shards)
    assert not [tracked for tracked in new if type(tracked) is Posting]
    # One term-frequency Counter per document; a postings list and its
    # positions map per (segment, term).
    assert len(new) <= 2 * (len(documents) + segment_terms) < postings


WORDS = ("alpha", "beta", "gamma", "delta")
STRESS_SECONDS = 0.6


def _body(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 12)))


def _check(posting: Posting) -> None:
    assert len(posting.positions) == posting.frequency, posting


@pytest.mark.parametrize("backend", sorted(BUILDS))
def test_readers_beside_a_writer_see_whole_postings(backend):
    rng = random.Random(7)
    index = BUILDS[backend](
        [Document(f"d{number}", _body(rng)) for number in range(30)]
    )
    searcher = IndexSearcher(index)
    stop = threading.Event()
    failures: list[str] = []
    reads = [0]

    def writer():
        rng = random.Random(11)
        try:
            for step in range(100_000):
                if stop.is_set():
                    return
                doc_id = f"d{rng.randrange(30)}"
                if doc_id not in index:
                    index.add(Document(doc_id, _body(rng)))
                elif step % 2:
                    index.replace(Document(doc_id, _body(rng)))
                else:
                    index.remove(doc_id)
        except Exception as error:  # reported below
            failures.append(repr(error))

    def reader(slot):
        rng = random.Random(slot)
        try:
            while not stop.is_set():
                term = rng.choice(WORDS)
                searcher.search_phrase(f"{term} {rng.choice(WORDS)}")
                searcher.search_boolean(f"{term} {rng.choice(WORDS)}", "or")
                postings = index.postings(term)
                if postings is not None:
                    for posting in postings:
                        _check(posting)
                    posting = postings.get(f"d{rng.randrange(30)}")
                    if posting is not None:
                        _check(posting)
                snapshot = index.export_snapshot()
                for shard in getattr(snapshot, "shard_snapshots", (snapshot,)):
                    for term_postings in shard.postings.values():
                        for posting in term_postings:
                            _check(posting)
                reads[0] += 1
        except Exception as error:  # reported below
            failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(slot,)) for slot in range(3)
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
    assert reads[0] >= 10
