"""A golden pin on the index that bulk ingest builds.

``export_snapshot()`` is everything the index holds: documents, lengths,
term-frequency vectors, postings, merged term rows, placements and
totals, each in the iteration order readers observe. The digest below
covers all of it, so a change to the ingest path that moves any value or
any order fails here, at one shard, at three, and after a v3 save is
hydrated back into memory.
"""

import hashlib

import pytest

from repro.datasets.stream import stream_corpus
from repro.index.persist import attach_packed
from repro.index.sharding import ShardedIndex
from repro.index.storage import save_index

#: shard count -> SHA-256 of the snapshot of a 300-document stream corpus.
PINNED = {
    1: "7b1adb9d2f4a43d036be0332ff074d1bb795d2370c6c35237182cc33861e1643",
    3: "55bcfd22dea8b303597a0a7ed8e946d40325e6396dedfdc40d60d91f88b3a15b",
}


def snapshot_digest(snapshot) -> str:
    """SHA-256 over every field of a ``ShardedSnapshot``, in order."""
    digest = hashlib.sha256()

    def line(*fields):
        digest.update(repr(fields).encode("utf-8"))
        digest.update(b"\n")

    for position, shard in enumerate(snapshot.shard_snapshots):
        line("shard", position, shard.total_terms, shard.version)
        for document in shard.documents:
            line(
                "document", document.doc_id, document.body, document.title,
                tuple(document.metadata.items()),
            )
        for doc_id, length in shard.doc_lengths.items():
            line("length", doc_id, length)
        for doc_id, counts in shard.term_freqs.items():
            line("tf", doc_id, tuple(counts.items()))
        for term, postings in shard.postings.items():
            line(
                "postings", term,
                tuple((p.doc_id, p.frequency, p.positions) for p in postings),
            )
    line("placements", snapshot.placements)
    line("merged", snapshot.merged_terms)
    line(
        "totals", snapshot.router, snapshot.cursor, snapshot.version,
        snapshot.document_count, snapshot.total_terms,
    )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def documents():
    return list(stream_corpus(300, seed=11, vocabulary_size=3_000))


@pytest.mark.parametrize("shards", sorted(PINNED))
def test_built_index_matches_the_pin(documents, shards):
    index = ShardedIndex.from_documents(documents, shard_count=shards)
    assert snapshot_digest(index.export_snapshot()) == PINNED[shards]


@pytest.mark.parametrize("shards", sorted(PINNED))
def test_hydrated_save_matches_the_pin(documents, shards, tmp_path):
    index = ShardedIndex.from_documents(documents, shard_count=shards)
    save_index(index, tmp_path / "corpus.idx")
    packed = attach_packed(tmp_path / "corpus.idx")
    try:
        hydrated = packed.hydrate()
    finally:
        packed.close()
    assert snapshot_digest(hydrated.export_snapshot()) == PINNED[shards]
