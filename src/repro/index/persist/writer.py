"""The v3 save path: snapshot → packed segments → manifest commit.

:func:`save_v3` turns a live :class:`~repro.index.sharding.ShardedIndex`
— or a bare :class:`~repro.index.inverted.InvertedIndex`, written as one
segment — into a new committed generation of the packed on-disk format.
Every generation has the same shape: one segment per shard, the
per-document placements, the router and its cursor, and the merged term
statistics. The sequence is the crash-safe protocol documented in
:mod:`repro.index.persist.manifest`: segments are written and fsynced
under generation-unique names first, one SQLite transaction publishes
the generation (the commit point), and only then are superseded
generations and orphaned segment files collected.

The committed generation carries a **content fingerprint** — a digest of
the analyzer configuration, the shard layout, and every segment's
checksum. Packed readers expose it as ``index.version``, which makes
version-keyed caches (the service's
:class:`~repro.service.store.ResultStore`, collection views, Doc2Vec
models) stable across process restarts: re-attaching the same commit
yields the same version, and saving an unchanged corpus again yields the
same fingerprint. A bare index and a one-shard
:class:`~repro.index.sharding.ShardedIndex` over the same documents
commit the same fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.index.inverted import InvertedIndex
from repro.index.sharding import ShardedIndex, ShardedSnapshot
from repro.index.persist.manifest import (
    LAYOUT,
    GenerationRecord,
    Manifest,
    SegmentRecord,
    encode_merged_terms,
    encode_placements,
    is_v3_manifest,
    segment_filename,
)
from repro.index.persist.segment import write_segment


def _fingerprint(
    analyzer_config: dict,
    router: str,
    cursor: int | None,
    segments: list[SegmentRecord],
    placements_blob: bytes,
    merged_blob: bytes,
) -> int:
    """Digest of everything that defines the committed index content.

    Segment checksums cover documents, postings, and orderings, so two
    saves of identical corpora produce identical fingerprints while any
    content difference — one position, one placement, one analyzer
    option — produces a different one. Truncated to 63 bits to stay a
    positive SQLite INTEGER.
    """
    digest = hashlib.sha1()
    digest.update(json.dumps(analyzer_config, sort_keys=True).encode("utf-8"))
    digest.update(f"|{LAYOUT}|{router}|{cursor}".encode("utf-8"))
    for segment in segments:
        digest.update(
            f"|{segment.shard}:{segment.bytes}:{segment.document_count}:"
            f"{segment.crc32}".encode("utf-8")
        )
    digest.update(placements_blob)
    digest.update(merged_blob)
    return int.from_bytes(digest.digest()[:8], "big") & ((1 << 63) - 1)


def _snapshot(index: InvertedIndex | ShardedIndex) -> ShardedSnapshot:
    """One atomic snapshot of ``index`` as segments behind a router.

    A bare :class:`InvertedIndex` is one segment: every placement is
    shard 0 and the merged statistics are its own postings statistics,
    in its postings order — exactly what a one-shard
    :class:`ShardedIndex` over the same documents records.
    """
    if isinstance(index, ShardedIndex):
        return index.export_snapshot()
    single = index.export_snapshot()
    return ShardedSnapshot(
        shard_snapshots=(single,),
        placements=tuple((document.doc_id, 0) for document in single.documents),
        merged_terms=tuple(
            (term, len(postings), sum(p.frequency for p in postings))
            for term, postings in single.postings.items()
        ),
        router="hash",
        cursor=None,
        version=single.version,
        document_count=len(single.documents),
        total_terms=single.total_terms,
    )


def save_v3(index: InvertedIndex | ShardedIndex, path: str | Path) -> GenerationRecord:
    """Commit ``index`` as a new generation of the packed v3 format.

    ``path`` becomes (or already is) the manifest; segments land next to
    it. Saving over an existing v3 index appends a generation and
    garbage-collects the previous one *after* the commit point — a
    concurrent reader attached to the old generation keeps a valid view
    (its mmap holds the unlinked segments open), and new attaches see
    the new generation. A path holding any other file is overwritten.

    Returns the committed :class:`GenerationRecord`.
    """
    path = Path(path)
    if path.exists() and not is_v3_manifest(path):
        path.unlink()
    manifest = Manifest.create(path)
    generation = manifest.next_generation()
    snapshot = _snapshot(index)

    segments: list[SegmentRecord] = []
    for shard, shard_snapshot in enumerate(snapshot.shard_snapshots):
        filename = segment_filename(path, generation, shard)
        size, crc = write_segment(shard_snapshot, path.parent / filename)
        segments.append(
            SegmentRecord(
                shard=shard,
                filename=filename,
                bytes=size,
                document_count=len(shard_snapshot.documents),
                crc32=crc,
            )
        )

    # Shard ids in global insertion order; doc ids are implied by the
    # per-shard segment doc tables (shard order is a subsequence of
    # global order).
    placements = tuple(shard for _, shard in snapshot.placements)
    analyzer_config = index.analyzer.to_config()
    record = GenerationRecord(
        generation=generation,
        shard_count=len(segments),
        router=snapshot.router,
        router_cursor=snapshot.cursor,
        analyzer_config=analyzer_config,
        document_count=snapshot.document_count,
        total_terms=snapshot.total_terms,
        unique_terms=len(snapshot.merged_terms),
        fingerprint=_fingerprint(
            analyzer_config,
            snapshot.router,
            snapshot.cursor,
            segments,
            encode_placements(placements),
            encode_merged_terms(snapshot.merged_terms),
        ),
        placements=placements,
        merged_terms=snapshot.merged_terms,
        segments=tuple(segments),
    )
    manifest.commit_generation(record)
    manifest.collect_garbage(generation)
    return record
