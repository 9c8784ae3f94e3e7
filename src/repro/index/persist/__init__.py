"""Durable index persistence: packed segments + a SQLite manifest.

The one on-disk index format (v3), built for warm restarts and read-only
replicas. It stores the index itself — postings, positions,
term-frequency vectors, documents — in mmap-packed binary segments, one
per shard, catalogued by a SQLite manifest, so a process attaches to a
committed index in O(1) and serves lookups straight from the page
cache. A plain :class:`~repro.index.inverted.InvertedIndex` is saved as
one segment, so every generation has the same shape.

Public surface:

* :func:`save_v3` — commit a live index as a new generation.
* :func:`attach_packed` / :class:`PackedShardedIndex` — O(1) read-only
  attach; :class:`PackedIndex` reads one segment of it.
* :class:`ReplicaIndex` / :class:`GenerationWatcher` — follow a
  writer's commits from any number of serving processes.
* :class:`Manifest` / :class:`GenerationRecord` / :func:`is_v3_manifest`
  — the catalogue layer, exposed for tooling and tests.

:mod:`repro.index.storage` (``save_index`` / ``load_index``) is the
entry point most callers use.
"""

from repro.index.persist.manifest import (
    GenerationRecord,
    Manifest,
    SegmentRecord,
    is_v3_manifest,
    segment_filename,
)
from repro.index.persist.packed import (
    PackedIndex,
    PackedShardedIndex,
    attach_packed,
)
from repro.index.persist.replica import (
    DEFAULT_WATCH_INTERVAL,
    GenerationWatcher,
    ReplicaIndex,
)
from repro.index.persist.segment import BLOCK_DOCS, Segment, write_segment
from repro.index.persist.writer import save_v3

__all__ = [
    "BLOCK_DOCS",
    "DEFAULT_WATCH_INTERVAL",
    "GenerationRecord",
    "GenerationWatcher",
    "Manifest",
    "PackedIndex",
    "PackedShardedIndex",
    "ReplicaIndex",
    "Segment",
    "SegmentRecord",
    "attach_packed",
    "is_v3_manifest",
    "save_v3",
    "segment_filename",
    "write_segment",
]
