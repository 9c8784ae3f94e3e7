"""The v3 manifest: a SQLite catalogue of committed index generations.

The manifest file *is* the index path a user saves to — segments live
next to it as ``<stem>-g<generation>.s<shard>.seg``. Every generation
has one layout: an ordered list of segments behind a router, where a
plain index is one segment. It records, per generation: the analyzer
configuration, the router and its cursor, per-document placements,
the merged term statistics, collection totals, a content-derived
fingerprint, and the segment files with their sizes and checksums.

Commit protocol (crash-safe by construction):

1. Segment files for the new generation are written and fsynced first,
   under names no existing generation references.
2. One SQLite transaction inserts the ``generations`` row and its
   ``segments`` rows. The transaction commit is the *only* commit point:
   before it, readers see the previous generation; after it, the new
   one. A crash anywhere leaves a loadable index.
3. Only after commit are superseded generations deleted and orphaned
   segment files garbage-collected.

The database runs in WAL mode so any number of read-only replica
processes can attach and poll while a writer commits — readers never
block the writer and vice versa.
"""

from __future__ import annotations

import contextlib
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import IndexFormatError
from repro.index.persist.varint import read_uvarint, write_uvarint

#: First bytes of every SQLite database file — the v3 detection probe.
SQLITE_MAGIC = b"SQLite format 3\x00"
FORMAT_VERSION = 3

#: The one generation layout: segments behind a router. Stored per row
#: so a manifest holding any other layout is rejected, not misread.
LAYOUT = "sharded"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS repro_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS generations (
    generation INTEGER PRIMARY KEY,
    committed_at REAL NOT NULL,
    layout TEXT NOT NULL,
    shard_count INTEGER NOT NULL,
    router TEXT,
    router_cursor INTEGER,
    analyzer TEXT NOT NULL,
    document_count INTEGER NOT NULL,
    total_terms INTEGER NOT NULL,
    unique_terms INTEGER NOT NULL,
    fingerprint INTEGER NOT NULL,
    placements BLOB,
    merged_terms BLOB
);
CREATE TABLE IF NOT EXISTS segments (
    generation INTEGER NOT NULL,
    shard INTEGER NOT NULL,
    filename TEXT NOT NULL,
    bytes INTEGER NOT NULL,
    document_count INTEGER NOT NULL,
    crc32 INTEGER NOT NULL,
    PRIMARY KEY (generation, shard)
);
"""


@dataclass(frozen=True)
class SegmentRecord:
    """One committed segment file (one shard of one generation)."""

    shard: int
    filename: str
    bytes: int
    document_count: int
    crc32: int


@dataclass(frozen=True)
class GenerationRecord:
    """Everything needed to attach one committed generation."""

    generation: int
    shard_count: int
    router: str
    router_cursor: int | None
    analyzer_config: dict
    document_count: int
    total_terms: int
    unique_terms: int
    fingerprint: int
    #: Shard id of every document, in global insertion order.
    placements: tuple[int, ...]
    #: (term, df, cf) in merged insertion order.
    merged_terms: tuple[tuple[str, int, int], ...]
    segments: tuple[SegmentRecord, ...] = field(default_factory=tuple)


def is_v3_manifest(path: str | Path) -> bool:
    """Probe whether ``path`` is a SQLite file (the v3 manifest format)."""
    try:
        with Path(path).open("rb") as handle:
            return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except OSError:
        return False


def encode_placements(placements) -> bytes:
    """Pack per-document shard ids (global insertion order) as varints."""
    out = bytearray()
    placements = list(placements)
    write_uvarint(out, len(placements))
    for shard in placements:
        write_uvarint(out, shard)
    return bytes(out)


def decode_placements(blob: bytes) -> tuple[int, ...]:
    count, offset = read_uvarint(blob, 0)
    placements = []
    for _ in range(count):
        shard, offset = read_uvarint(blob, offset)
        placements.append(shard)
    return tuple(placements)


def encode_merged_terms(merged_terms) -> bytes:
    """Pack the merged term order as (term, df, cf) varint records."""
    out = bytearray()
    merged_terms = list(merged_terms)
    write_uvarint(out, len(merged_terms))
    for term, df, cf in merged_terms:
        encoded = term.encode("utf-8")
        write_uvarint(out, len(encoded))
        out += encoded
        write_uvarint(out, df)
        write_uvarint(out, cf)
    return bytes(out)


def decode_merged_terms(blob: bytes) -> tuple[tuple[str, int, int], ...]:
    count, offset = read_uvarint(blob, 0)
    terms = []
    for _ in range(count):
        length, offset = read_uvarint(blob, offset)
        term = bytes(blob[offset:offset + length]).decode("utf-8")
        offset += length
        df, offset = read_uvarint(blob, offset)
        cf, offset = read_uvarint(blob, offset)
        terms.append((term, df, cf))
    return tuple(terms)


class Manifest:
    """Open handle on a v3 manifest database.

    Cheap to construct — connections are opened per operation, so one
    ``Manifest`` can be shared by a polling replica watcher without
    holding SQLite locks between polls.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, path: str | Path) -> "Manifest":
        """Initialise (or re-open) a manifest database at ``path``."""
        manifest = cls(path)
        manifest.path.parent.mkdir(parents=True, exist_ok=True)
        with manifest._connect() as connection:
            connection.executescript(_SCHEMA)
            connection.execute(
                "INSERT OR REPLACE INTO repro_meta (key, value) "
                "VALUES ('format_version', ?)",
                (str(FORMAT_VERSION),),
            )
        return manifest

    @classmethod
    def open(cls, path: str | Path) -> "Manifest":
        """Open an existing manifest, validating format and version."""
        path = Path(path)
        if not path.exists():
            raise IndexFormatError(f"no index manifest at {path}")
        if not is_v3_manifest(path):
            raise IndexFormatError(
                f"{path} is not a v3 index manifest (not a SQLite file)"
            )
        manifest = cls(path)
        try:
            with manifest._connect() as connection:
                row = connection.execute(
                    "SELECT value FROM repro_meta WHERE key = 'format_version'"
                ).fetchone()
        except sqlite3.Error as error:
            raise IndexFormatError(
                f"corrupt index manifest {path}: {error}"
            ) from None
        if row is None:
            raise IndexFormatError(
                f"{path} is a SQLite file but not a repro index manifest"
            )
        if int(row[0]) != FORMAT_VERSION:
            raise IndexFormatError(
                f"unsupported index format version {row[0]} in {path}"
            )
        return manifest

    @contextlib.contextmanager
    def _connect(self):
        """One transaction-scoped connection, **closed** on exit.

        ``with sqlite3.connect(...)`` alone only manages the transaction
        — the connection (and its file descriptor and POSIX locks) would
        linger until garbage collection. Closing deterministically
        matters here: replica processes are often forked, and an
        inherited manifest fd being collected in the child would drop
        the child's own advisory locks on the same file.
        """
        connection = sqlite3.connect(self.path, timeout=30.0)
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            with connection:
                yield connection
        finally:
            connection.close()

    # -- commits -------------------------------------------------------------

    def next_generation(self) -> int:
        with self._connect() as connection:
            row = connection.execute(
                "SELECT COALESCE(MAX(generation), 0) FROM generations"
            ).fetchone()
        return int(row[0]) + 1

    def commit_generation(self, record: GenerationRecord) -> None:
        """Atomically publish a generation — the v3 commit point.

        The caller has already written and fsynced every segment in
        ``record.segments``; this single transaction makes them the
        current index. ``synchronous=FULL`` forces the commit itself to
        durable storage (the payload is a few hundred bytes, so the
        extra fsync is immaterial next to segment writes).
        """
        with self._connect() as connection:
            connection.execute("PRAGMA synchronous=FULL")
            connection.execute(
                "INSERT INTO generations (generation, committed_at, layout,"
                " shard_count, router, router_cursor, analyzer,"
                " document_count, total_terms, unique_terms, fingerprint,"
                " placements, merged_terms)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.generation,
                    time.time(),
                    LAYOUT,
                    record.shard_count,
                    record.router,
                    record.router_cursor,
                    _dump_analyzer(record.analyzer_config),
                    record.document_count,
                    record.total_terms,
                    record.unique_terms,
                    record.fingerprint,
                    encode_placements(record.placements),
                    encode_merged_terms(record.merged_terms),
                ),
            )
            connection.executemany(
                "INSERT INTO segments (generation, shard, filename, bytes,"
                " document_count, crc32) VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (
                        record.generation,
                        segment.shard,
                        segment.filename,
                        segment.bytes,
                        segment.document_count,
                        segment.crc32,
                    )
                    for segment in record.segments
                ],
            )

    # -- reads ---------------------------------------------------------------

    def latest_generation_number(self) -> int | None:
        """The committed generation counter — the replica watch signal."""
        try:
            with self._connect() as connection:
                row = connection.execute(
                    "SELECT MAX(generation) FROM generations"
                ).fetchone()
        except sqlite3.Error as error:
            raise IndexFormatError(
                f"corrupt index manifest {self.path}: {error}"
            ) from None
        return None if row[0] is None else int(row[0])

    def latest_generation(self) -> GenerationRecord | None:
        try:
            with self._connect() as connection:
                row = connection.execute(
                    "SELECT generation, layout, shard_count, router,"
                    " router_cursor, analyzer, document_count, total_terms,"
                    " unique_terms, fingerprint, placements, merged_terms"
                    " FROM generations ORDER BY generation DESC LIMIT 1"
                ).fetchone()
                if row is None:
                    return None
                segment_rows = connection.execute(
                    "SELECT shard, filename, bytes, document_count, crc32"
                    " FROM segments WHERE generation = ? ORDER BY shard",
                    (row[0],),
                ).fetchall()
        except sqlite3.Error as error:
            raise IndexFormatError(
                f"corrupt index manifest {self.path}: {error}"
            ) from None
        if row[1] != LAYOUT or row[10] is None or row[11] is None:
            raise IndexFormatError(
                f"generation {row[0]} of {self.path} has an unsupported "
                f"layout ({row[1]!r}) or lacks its placements"
            )
        return GenerationRecord(
            generation=int(row[0]),
            shard_count=int(row[2]),
            router=row[3],
            router_cursor=None if row[4] is None else int(row[4]),
            analyzer_config=_load_analyzer(row[5]),
            document_count=int(row[6]),
            total_terms=int(row[7]),
            unique_terms=int(row[8]),
            fingerprint=int(row[9]),
            placements=decode_placements(row[10]),
            merged_terms=decode_merged_terms(row[11]),
            segments=tuple(
                SegmentRecord(
                    shard=int(shard),
                    filename=filename,
                    bytes=int(size),
                    document_count=int(docs),
                    crc32=int(crc),
                )
                for shard, filename, size, docs, crc in segment_rows
            ),
        )

    # -- garbage collection --------------------------------------------------

    def collect_garbage(self, keep_generation: int) -> list[str]:
        """Drop every generation except ``keep_generation``; remove files.

        Also sweeps *orphan* segment files — ``<stem>-g*.s*.seg`` files
        next to the manifest that no surviving generation references
        (e.g. segments of a save that crashed before its commit point).
        Returns the deleted filenames. Runs strictly after a successful
        commit, so a crash during GC leaves only harmless extra files.
        """
        with self._connect() as connection:
            connection.execute(
                "DELETE FROM segments WHERE generation != ?",
                (keep_generation,),
            )
            connection.execute(
                "DELETE FROM generations WHERE generation != ?",
                (keep_generation,),
            )
            keep = {
                filename
                for (filename,) in connection.execute(
                    "SELECT filename FROM segments"
                )
            }
        removed = []
        stem = self.path.name
        for candidate in self.path.parent.glob(f"{stem}-g*.s*.seg"):
            if candidate.name not in keep:
                try:
                    candidate.unlink()
                except OSError:
                    continue  # another process raced us; harmless
                removed.append(candidate.name)
        return removed


def segment_filename(manifest_path: str | Path, generation: int, shard: int) -> str:
    """Canonical name for one generation's shard segment file."""
    return f"{Path(manifest_path).name}-g{generation}.s{shard}.seg"


def _dump_analyzer(config: dict) -> str:
    import json

    return json.dumps(config, sort_keys=True)


def _load_analyzer(raw: str) -> dict:
    import json

    try:
        return json.loads(raw)
    except (TypeError, ValueError) as error:
        raise IndexFormatError(
            f"corrupt analyzer configuration in manifest: {error}"
        ) from None
