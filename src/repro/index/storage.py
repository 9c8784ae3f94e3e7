"""Index persistence: one entry point over the one on-disk format (v3).

:func:`save_index` commits any live index — an
:class:`~repro.index.inverted.InvertedIndex` (written as one segment) or
a :class:`~repro.index.sharding.ShardedIndex` — as a new generation of
the packed format (:mod:`repro.index.persist`): mmap-packed binary
segments holding postings and documents, catalogued by a SQLite
manifest. :func:`load_index` *attaches* a read-only
:class:`~repro.index.persist.PackedShardedIndex` in O(1) — no JSON
parse, no re-analysis, no posting rebuild — or, with ``mode="memory"``,
hydrates a mutable :class:`~repro.index.sharding.ShardedIndex`.

A path that is not a v3 manifest (a JSON file, any other bytes) raises
:class:`~repro.errors.IndexFormatError` (a ``ReproError`` and a
``ValueError``); a missing path raises ``FileNotFoundError``.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import IndexFormatError
from repro.index.inverted import InvertedIndex
from repro.index.persist import attach_packed, save_v3
from repro.index.sharding import ShardedIndex


def save_index(index: InvertedIndex | ShardedIndex, path: str | Path) -> None:
    """Commit ``index`` to ``path`` as a new v3 generation.

    Crash-safe: segments are fsynced under generation-unique names
    before one SQLite transaction publishes them, and superseded
    generations are collected only after that commit — an interrupted
    save always leaves the previous save loadable. See
    :func:`repro.index.persist.save_v3`.
    """
    save_v3(index, path)


def load_index(path: str | Path, mode: str = "auto"):
    """Load an index previously written by :func:`save_index`.

    ``mode="auto"`` returns the read-only
    :class:`~repro.index.persist.PackedShardedIndex` attached in O(1)
    (warm restart); ``mode="memory"`` hydrates a mutable
    :class:`~repro.index.sharding.ShardedIndex` from the stored term
    sequences, with the saved placements, router and cursor.
    """
    if mode not in ("auto", "memory"):
        raise IndexFormatError(
            f"load mode must be 'auto' or 'memory', got {mode!r}"
        )
    path = Path(path)
    if not path.exists():
        # A missing path is an I/O condition, not a format one.
        raise FileNotFoundError(path)
    packed = attach_packed(path)
    if mode == "memory":
        try:
            return packed.hydrate()
        finally:
            packed.close()
    return packed
