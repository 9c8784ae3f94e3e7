"""The v3 packed binary segment: one shard's corpus + postings on disk.

A segment is a single immutable file holding everything one
:class:`~repro.index.inverted.InvertedIndex` knows, laid out so a reader
can ``mmap`` it and answer any single lookup by decoding only the bytes
that lookup touches:

========================  ====================================================
header                    magic, counts, and absolute section offsets
doc-id offsets / blob     doc ids in **global insertion order** (UTF-8)
doc sorted permutation    ordinals sorted by id bytes → O(log n) id lookup
doc meta                  per doc: record offset within its block + length
term offsets / blob       terms in **postings insertion order** (UTF-8)
term sorted permutation   ordinals sorted by term bytes
postings offsets / blob   per term: varint-packed postings (see below)
block offsets / records   zlib-compressed blocks of document records
========================  ====================================================

Postings for one term are ``count`` followed by per-posting
``(doc-ordinal gap, frequency, position count, position deltas)`` — all
unsigned varints, with doc ordinals strictly increasing (postings
insertion order is a subsequence of global insertion order, since a
posting is created exactly when its document is added). Document
records (title, body, metadata JSON, and the term-frequency vector in
first-occurrence order) are grouped into fixed-size blocks and
zlib-compressed, which is what makes the packed file *smaller* than a
JSON dump of the same documents even though it additionally stores
postings and positions; a block decompresses lazily on first access to
any of its documents.

Insertion orders are preserved exactly because they are observable:
ranked ties, ``terms()`` iteration, and term-vector iteration all follow
them, and the save→load equivalence suite pins byte-identical results.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

from repro.errors import IndexFormatError
from repro.index.inverted import IndexSnapshot
from repro.index.persist.varint import (
    read_deltas,
    read_uvarint,
    write_deltas,
    write_uvarint,
)

MAGIC = b"RPROSEG3"
#: Bump when the segment byte layout changes incompatibly.
SEGMENT_FORMAT = 1
#: Documents per compressed record block: large enough for zlib to see
#: cross-document redundancy, small enough that one cold document read
#: decompresses only a few tens of kilobytes.
BLOCK_DOCS = 64

_HEADER = struct.Struct("<8sII3Q12Q")
_DOC_META = struct.Struct("<II")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


def _json_dumps(payload: dict) -> bytes:
    import json

    return json.dumps(payload, ensure_ascii=False, sort_keys=True).encode(
        "utf-8"
    )


def _string_table(values: list[bytes]) -> tuple[bytes, bytes, bytes]:
    """(offsets, blob, sorted permutation) sections for a string list."""
    offsets = bytearray()
    blob = bytearray()
    running = 0
    offsets += _U64.pack(0)
    for value in values:
        blob += value
        running += len(value)
        offsets += _U64.pack(running)
    order = sorted(range(len(values)), key=values.__getitem__)
    permutation = b"".join(_U32.pack(ordinal) for ordinal in order)
    return bytes(offsets), bytes(blob), permutation


def write_segment(snapshot: IndexSnapshot, path: str | Path) -> tuple[int, int]:
    """Serialise ``snapshot`` into a packed segment at ``path``.

    Crash-safe: the bytes land in a same-directory temp file which is
    fsynced and atomically renamed into place. Returns
    ``(bytes_written, crc32)`` for the manifest's segments table.
    """
    path = Path(path)
    documents = snapshot.documents
    doc_ids = [document.doc_id.encode("utf-8") for document in documents]
    ordinals = {document.doc_id: i for i, document in enumerate(documents)}
    terms = list(snapshot.postings)
    term_bytes = [term.encode("utf-8") for term in terms]
    term_ordinals = {term: i for i, term in enumerate(terms)}

    doc_id_offsets, doc_id_blob, doc_sorted = _string_table(doc_ids)
    term_offsets, term_blob, term_sorted = _string_table(term_bytes)

    # Postings: per term, gap-encoded doc ordinals with packed positions.
    postings_offsets = bytearray(_U64.pack(0))
    postings_blob = bytearray()
    for term in terms:
        plist = snapshot.postings[term]
        write_uvarint(postings_blob, len(plist))
        previous = None
        for posting in plist:
            ordinal = ordinals[posting.doc_id]
            if previous is not None and ordinal <= previous:
                raise IndexFormatError(
                    f"postings for {term!r} are not in insertion order"
                )
            gap = ordinal if previous is None else ordinal - previous
            previous = ordinal
            write_uvarint(postings_blob, gap)
            write_uvarint(postings_blob, posting.frequency)
            write_uvarint(postings_blob, len(posting.positions))
            write_deltas(postings_blob, posting.positions)
        postings_offsets += _U64.pack(len(postings_blob))

    # Document records, grouped into zlib blocks.
    doc_meta = bytearray()
    block_offsets = bytearray(_U64.pack(0))
    records_blob = bytearray()
    block = bytearray()
    for position, document in enumerate(documents):
        doc_meta += _DOC_META.pack(
            len(block), snapshot.doc_lengths[document.doc_id]
        )
        title = document.title.encode("utf-8")
        body = document.body.encode("utf-8")
        metadata = (
            _json_dumps(dict(document.metadata)) if document.metadata else b""
        )
        write_uvarint(block, len(title))
        block += title
        write_uvarint(block, len(body))
        block += body
        write_uvarint(block, len(metadata))
        block += metadata
        vector = snapshot.term_freqs[document.doc_id]
        write_uvarint(block, len(vector))
        for term, frequency in vector.items():
            write_uvarint(block, term_ordinals[term])
            write_uvarint(block, frequency)
        if (position + 1) % BLOCK_DOCS == 0:
            records_blob += zlib.compress(bytes(block), 6)
            block_offsets += _U64.pack(len(records_blob))
            block = bytearray()
    if block:
        records_blob += zlib.compress(bytes(block), 6)
        block_offsets += _U64.pack(len(records_blob))

    sections = [
        bytes(doc_id_offsets), doc_id_blob, doc_sorted, bytes(doc_meta),
        bytes(term_offsets), term_blob, term_sorted,
        bytes(postings_offsets), bytes(postings_blob),
        bytes(block_offsets), bytes(records_blob),
    ]
    offsets = []
    running = _HEADER.size
    for section in sections:
        offsets.append(running)
        running += len(section)
    header = _HEADER.pack(
        MAGIC, SEGMENT_FORMAT, BLOCK_DOCS,
        len(documents), len(terms), snapshot.total_terms,
        *offsets, running,
    )

    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    crc = zlib.crc32(header)
    with temp.open("wb") as handle:
        handle.write(header)
        for section in sections:
            handle.write(section)
            crc = zlib.crc32(section, crc)
        handle.flush()
        # Durable before the manifest can reference it: the manifest row
        # is the commit point, so the segment must already be on disk.
        os.fsync(handle.fileno())
    temp.replace(path)
    return running, crc


class Segment:
    """A read-only ``mmap`` view over one packed segment file.

    Opening parses the fixed-size header only — attach cost is
    independent of corpus size. Every accessor decodes just the bytes it
    needs from the mapping; the OS page cache shares those bytes between
    every process attached to the same file.
    """

    def __init__(self, path: str | Path):
        import mmap

        self.path = Path(path)
        try:
            handle = self.path.open("rb")
        except OSError as error:
            raise IndexFormatError(
                f"cannot open segment {self.path}: {error}"
            ) from None
        # The mapping keeps its own descriptor, so the file closes here
        # and a dropped segment leaks no file.
        with handle:
            try:
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (OSError, ValueError) as error:
                raise IndexFormatError(
                    f"cannot map segment {self.path}: {error}"
                ) from None
        self._view = memoryview(self._mmap)
        try:
            unpacked = _HEADER.unpack_from(self._view, 0)
        except struct.error:
            self.close()
            raise IndexFormatError(
                f"segment {self.path} is truncated (no header)"
            ) from None
        (magic, segment_format, self.block_docs,
         self.doc_count, self.term_count, self.total_terms,
         self._doc_id_offsets, self._doc_id_blob, self._doc_sorted,
         self._doc_meta, self._term_offsets, self._term_blob,
         self._term_sorted, self._postings_offsets, self._postings_blob,
         self._block_offsets, self._records, end) = unpacked
        if magic != MAGIC:
            self.close()
            raise IndexFormatError(
                f"{self.path} is not a v3 segment (bad magic)"
            )
        if segment_format != SEGMENT_FORMAT:
            self.close()
            raise IndexFormatError(
                f"unsupported segment format {segment_format} in {self.path}"
            )
        actual = len(self._mmap)
        if end != actual:
            self.close()
            raise IndexFormatError(
                f"segment {self.path} is truncated: header says {end} "
                f"bytes, file has {actual}"
            )
        self._blocks: dict[int, bytes] = {}

    def close(self) -> None:
        self._view.release()
        self._mmap.close()

    # -- string tables -------------------------------------------------------

    def _table_entry(self, offsets_at: int, blob_at: int, ordinal: int) -> bytes:
        start = _U64.unpack_from(self._view, offsets_at + 8 * ordinal)[0]
        end = _U64.unpack_from(self._view, offsets_at + 8 * ordinal + 8)[0]
        return bytes(self._view[blob_at + start:blob_at + end])

    def _table_find(
        self, offsets_at: int, blob_at: int, sorted_at: int,
        count: int, key: bytes,
    ) -> int | None:
        low, high = 0, count
        while low < high:
            mid = (low + high) // 2
            ordinal = _U32.unpack_from(self._view, sorted_at + 4 * mid)[0]
            entry = self._table_entry(offsets_at, blob_at, ordinal)
            if entry == key:
                return ordinal
            if entry < key:
                low = mid + 1
            else:
                high = mid
        return None

    def doc_id(self, ordinal: int) -> str:
        return self._table_entry(
            self._doc_id_offsets, self._doc_id_blob, ordinal
        ).decode("utf-8")

    def doc_ordinal(self, doc_id: str) -> int | None:
        return self._table_find(
            self._doc_id_offsets, self._doc_id_blob, self._doc_sorted,
            self.doc_count, doc_id.encode("utf-8"),
        )

    def term(self, ordinal: int) -> str:
        return self._table_entry(
            self._term_offsets, self._term_blob, ordinal
        ).decode("utf-8")

    def term_ordinal(self, term: str) -> int | None:
        return self._table_find(
            self._term_offsets, self._term_blob, self._term_sorted,
            self.term_count, term.encode("utf-8"),
        )

    # -- per-document data ---------------------------------------------------

    def doc_length(self, ordinal: int) -> int:
        return _DOC_META.unpack_from(
            self._view, self._doc_meta + _DOC_META.size * ordinal
        )[1]

    def _block(self, block_id: int) -> bytes:
        cached = self._blocks.get(block_id)
        if cached is None:
            start = _U64.unpack_from(
                self._view, self._block_offsets + 8 * block_id
            )[0]
            end = _U64.unpack_from(
                self._view, self._block_offsets + 8 * block_id + 8
            )[0]
            try:
                cached = zlib.decompress(
                    self._view[self._records + start:self._records + end]
                )
            except zlib.error as error:
                raise IndexFormatError(
                    f"corrupt record block {block_id} in {self.path}: {error}"
                ) from None
            self._blocks[block_id] = cached
        return cached

    def record(self, ordinal: int) -> tuple[str, str, dict, list[tuple[int, int]]]:
        """Decode one document record: (title, body, metadata, term vector).

        The term vector is ``[(term ordinal, frequency), ...]`` in
        first-occurrence order — exactly the iteration order of the
        in-memory ``Counter`` it round-trips.
        """
        import json

        block = self._block(ordinal // self.block_docs)
        offset = _DOC_META.unpack_from(
            self._view, self._doc_meta + _DOC_META.size * ordinal
        )[0]
        title_len, offset = read_uvarint(block, offset)
        title = block[offset:offset + title_len].decode("utf-8")
        offset += title_len
        body_len, offset = read_uvarint(block, offset)
        body = block[offset:offset + body_len].decode("utf-8")
        offset += body_len
        meta_len, offset = read_uvarint(block, offset)
        metadata = (
            json.loads(block[offset:offset + meta_len]) if meta_len else {}
        )
        offset += meta_len
        unique, offset = read_uvarint(block, offset)
        vector: list[tuple[int, int]] = []
        for _ in range(unique):
            term_ordinal, offset = read_uvarint(block, offset)
            frequency, offset = read_uvarint(block, offset)
            vector.append((term_ordinal, frequency))
        return title, body, metadata, vector

    # -- postings ------------------------------------------------------------

    def postings_count(self, term_ordinal: int) -> int:
        """A term's document frequency — one varint, no postings decode."""
        start = _U64.unpack_from(
            self._view, self._postings_offsets + 8 * term_ordinal
        )[0]
        count, _ = read_uvarint(self._view, self._postings_blob + start)
        return count

    def postings_entries(
        self, term_ordinal: int
    ) -> list[tuple[int, int, tuple[int, ...]]]:
        """Decode one term's postings: [(doc ordinal, freq, positions)]."""
        start = _U64.unpack_from(
            self._view, self._postings_offsets + 8 * term_ordinal
        )[0]
        offset = self._postings_blob + start
        view = self._view
        count, offset = read_uvarint(view, offset)
        entries: list[tuple[int, int, tuple[int, ...]]] = []
        ordinal = 0
        for position in range(count):
            gap, offset = read_uvarint(view, offset)
            ordinal = gap if position == 0 else ordinal + gap
            frequency, offset = read_uvarint(view, offset)
            pos_count, offset = read_uvarint(view, offset)
            positions, offset = read_deltas(view, offset, pos_count)
            entries.append((ordinal, frequency, tuple(positions)))
        return entries
