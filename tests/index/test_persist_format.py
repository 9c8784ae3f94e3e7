"""Unit tests for the v3 packed persistence format.

Covers the layers bottom-up: the varint codec, segment write/read
round-trips, the SQLite manifest and its commit protocol, rejection of
anything that is not a v3 index, the one generation shape (segments
behind a router, whatever was saved), round-trips of placements,
router cursor and analyzer, and the read-only contract of attached
packed views.
"""

import contextlib
import json
import sqlite3
import threading

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.errors import IndexFormatError, ReadOnlyIndexError, ReproError
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.persist import (
    Manifest,
    PackedShardedIndex,
    Segment,
    attach_packed,
    is_v3_manifest,
    save_v3,
    segment_filename,
    write_segment,
)
from repro.index.persist.manifest import (
    decode_merged_terms,
    decode_placements,
    encode_merged_terms,
    encode_placements,
)
from repro.index.persist.varint import (
    read_deltas,
    read_uvarint,
    write_deltas,
    write_uvarint,
)
from repro.index.searcher import IndexSearcher
from repro.index.sharding import RoundRobinRouter, ShardedIndex
from repro.index.storage import load_index, save_index
from repro.text.analyzer import Analyzer


def _documents():
    return [
        Document("doc-a", "Covid outbreak overwhelmed the hospital wards."),
        Document(
            "doc-b",
            "Markets rallied; earnings beat the report again and again.",
            title="Earnings",
            metadata={"source": "wire", "year": 2021},
        ),
        Document("doc-c", "Hospital staff reported a second covid outbreak."),
        Document("doc-d", "   "),  # empty after analysis
        Document("doc-e", "Café schließt: outbreak of flu in the café."),
    ]


def _index():
    return InvertedIndex.from_documents(_documents())


def _many_documents(count):
    return [
        Document(f"doc-{i:02d}", f"Virus report {i}: the ward {i % 4} story.")
        for i in range(count)
    ]


@contextlib.contextmanager
def _loaded(path, mode):
    """``load_index(path, mode)``, closing an attached view afterwards."""
    index = load_index(path, mode=mode)
    try:
        yield index
    finally:
        if isinstance(index, PackedShardedIndex):
            index.close()


class TestVarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 300, 2**21, 2**35, 2**63 - 1]
    )
    def test_round_trip(self, value):
        out = bytearray()
        write_uvarint(out, value)
        decoded, offset = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_compactness(self):
        out = bytearray()
        write_uvarint(out, 127)
        assert len(out) == 1
        out = bytearray()
        write_uvarint(out, 128)
        assert len(out) == 2

    def test_truncated_raises(self):
        out = bytearray()
        write_uvarint(out, 2**21)
        with pytest.raises(IndexFormatError):
            read_uvarint(bytes(out[:-1]), 0)

    def test_deltas_round_trip(self):
        values = [3, 4, 10, 11, 500, 501]
        out = bytearray()
        write_deltas(out, values)
        decoded, offset = read_deltas(bytes(out), 0, len(values))
        assert list(decoded) == values
        assert offset == len(out)


class TestSegment:
    def test_round_trip_preserves_everything(self, tmp_path):
        index = _index()
        path = tmp_path / "one.seg"
        size, crc = write_segment(index.export_snapshot(), path)
        assert size == path.stat().st_size
        segment = Segment(path)
        try:
            # Documents in insertion order, with titles and metadata.
            ids = [segment.doc_id(i) for i in range(len(index))]
            assert ids == [d.doc_id for d in index]
            title, body, metadata, freqs = segment.record(
                segment.doc_ordinal("doc-b")
            )
            original = index.document("doc-b")
            assert (title, body, metadata) == (
                original.title,
                original.body,
                original.metadata,
            )
            # Term-frequency pairs replay the first-occurrence order.
            vector = index.term_frequencies("doc-b")
            assert [
                (segment.term(ordinal), freq) for ordinal, freq in freqs
            ] == list(vector.items())
            # Postings with positions survive byte-exactly.
            for term in index.terms():
                ordinal = segment.term_ordinal(term)
                entries = segment.postings_entries(ordinal)
                postings = index.postings(term)
                assert segment.postings_count(ordinal) == len(entries)
                assert [
                    (segment.doc_id(doc), freq, positions)
                    for doc, freq, positions in entries
                ] == [
                    (p.doc_id, p.frequency, p.positions) for p in postings
                ]
            # Empty-after-analysis documents keep zero length.
            assert segment.doc_length(segment.doc_ordinal("doc-d")) == 0
        finally:
            segment.close()

    def test_unknown_lookups(self, tmp_path):
        path = tmp_path / "one.seg"
        write_segment(_index().export_snapshot(), path)
        segment = Segment(path)
        try:
            assert segment.doc_ordinal("nope") is None
            assert segment.term_ordinal("nope") is None
        finally:
            segment.close()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.seg"
        path.write_bytes(b"NOTASEG!" + b"\x00" * 200)
        with pytest.raises(IndexFormatError):
            Segment(path)

    def test_truncated_segment_rejected(self, tmp_path):
        path = tmp_path / "one.seg"
        write_segment(_index().export_snapshot(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(IndexFormatError):
            Segment(path)


class TestManifest:
    def test_placement_codec(self):
        placements = (0, 3, 1, 1, 0, 2)
        assert decode_placements(encode_placements(placements)) == placements

    def test_merged_terms_codec(self):
        merged = (("covid", 3, 7), ("café", 1, 2), ("ward", 2, 2))
        assert decode_merged_terms(encode_merged_terms(merged)) == merged

    def test_open_rejects_non_sqlite(self, tmp_path):
        path = tmp_path / "nope.idx"
        path.write_text("{}")
        with pytest.raises(IndexFormatError):
            Manifest.open(path)

    def test_open_rejects_missing(self, tmp_path):
        with pytest.raises(IndexFormatError):
            Manifest.open(tmp_path / "absent.idx")

    def test_open_rejects_foreign_sqlite(self, tmp_path):
        path = tmp_path / "foreign.db"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE unrelated (x INTEGER)")
        with pytest.raises(IndexFormatError):
            Manifest.open(path)

    def test_open_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.idx"
        Manifest.create(path)
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE repro_meta SET value = '99'"
                " WHERE key = 'format_version'"
            )
        with pytest.raises(IndexFormatError, match="format version"):
            Manifest.open(path)

    def test_generation_counter_and_gc(self, tmp_path):
        path = tmp_path / "corpus.idx"
        index = _index()
        first = save_v3(index, path)
        assert first.generation == 1
        assert is_v3_manifest(path)
        old_segments = [
            path.with_name(s.filename) for s in first.segments
        ]
        assert all(p.exists() for p in old_segments)
        index.add(Document("doc-f", "A fresh covid report."))
        second = save_v3(index, path)
        assert second.generation == 2
        # Superseded generation's files are swept after the new commit.
        assert not any(p.exists() for p in old_segments)
        assert Manifest.open(path).latest_generation_number() == 2

    def test_segment_filename_shape(self):
        assert segment_filename("corpus.idx", 3, 1) == "corpus.idx-g3.s1.seg"


class TestFormatDetection:
    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "absent.idx")

    def test_garbage_is_format_error(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"\x89PNG not an index either")
        with pytest.raises(IndexFormatError) as excinfo:
            load_index(path)
        # The contract: a library-typed error, also a ValueError.
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ValueError)

    def test_v1_json_file_is_format_error(self, tmp_path):
        """The JSON formats are gone: a v1 payload is not an index."""
        path = tmp_path / "corpus.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "analyzer": _index().analyzer.to_config(),
                    "documents": [d.to_dict() for d in _documents()],
                }
            )
        )
        with pytest.raises(IndexFormatError, match="not a v3 index"):
            load_index(path)
        with pytest.raises(IndexFormatError):
            load_index(path, mode="memory")

    @pytest.mark.parametrize("mode", ["auto", "memory"])
    def test_future_format_version_is_format_error(self, tmp_path, mode):
        path = tmp_path / "corpus.idx"
        save_index(_index(), path)
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE repro_meta SET value = '99'"
                " WHERE key = 'format_version'"
            )
        with pytest.raises(IndexFormatError, match="format version"):
            load_index(path, mode=mode)

    def test_load_rejects_unknown_mode(self, tmp_path):
        path = tmp_path / "corpus.idx"
        save_index(_index(), path)
        with pytest.raises(IndexFormatError, match="mode"):
            load_index(path, mode="streaming")

    def test_other_generation_layout_is_format_error(self, tmp_path):
        path = tmp_path / "corpus.idx"
        save_index(_index(), path)
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE generations SET layout = 'single'")
        with pytest.raises(IndexFormatError, match="layout"):
            load_index(path)

    def test_corrupt_placement_is_format_error(self, tmp_path):
        path = tmp_path / "corpus.idx"
        save_index(ShardedIndex.from_documents(_documents(), 2), path)
        record = Manifest.open(path).latest_generation()
        # One extra document placed on shard 1, which its segment lacks.
        corrupt = encode_placements(record.placements + (1,))
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE generations SET placements = ?", (corrupt,))
        with pytest.raises(IndexFormatError, match="places documents"):
            load_index(path)
        with pytest.raises(IndexFormatError):
            load_index(path, mode="memory")


class TestOneShape:
    """Every save is segments behind a router, whatever was saved."""

    @pytest.mark.parametrize(
        "build",
        [
            _index,
            lambda: ShardedIndex.from_documents(_documents(), 1),
            lambda: ShardedIndex.from_documents(_documents(), 4),
        ],
        ids=["bare-inverted", "one-shard", "four-shards"],
    )
    def test_attach_and_hydrate_types(self, tmp_path, build):
        index = build()
        path = tmp_path / "corpus.idx"
        save_index(index, path)
        attached = load_index(path)
        try:
            assert isinstance(attached, PackedShardedIndex)
            assert attached.shard_count == getattr(index, "shard_count", 1)
            assert attached.doc_ids == index.doc_ids
        finally:
            attached.close()
        hydrated = load_index(path, mode="memory")
        assert isinstance(hydrated, ShardedIndex)
        assert hydrated.doc_ids == index.doc_ids
        sharded = isinstance(index, ShardedIndex)
        assert hydrated.shard_sizes() == (
            index.shard_sizes() if sharded else [len(index)]
        )
        assert hydrated.stats() == index.stats()
        assert list(hydrated.terms()) == list(index.terms())

    def test_bare_index_saves_like_one_shard(self, tmp_path):
        bare = save_v3(_index(), tmp_path / "bare.idx")
        one = save_v3(
            ShardedIndex.from_documents(_documents(), 1), tmp_path / "one.idx"
        )
        assert bare.fingerprint == one.fingerprint
        assert bare.placements == one.placements == (0,) * len(_documents())
        assert bare.merged_terms == one.merged_terms
        assert (bare.router, bare.router_cursor) == ("hash", None)


class TestRoundTrip:
    """Documents, statistics, placements, router state and analyzer
    survive save → load in both modes."""

    @pytest.mark.parametrize("mode", ["auto", "memory"])
    def test_documents_preserved(self, tmp_path, tiny_index, mode):
        path = tmp_path / "corpus.idx"
        save_index(tiny_index, path)
        with _loaded(path, mode) as loaded:
            assert loaded.doc_ids == tiny_index.doc_ids
            for document in tiny_index:
                assert loaded.document(document.doc_id) == document

    @pytest.mark.parametrize("mode", ["auto", "memory"])
    def test_statistics_preserved(self, tmp_path, tiny_index, mode):
        path = tmp_path / "corpus.idx"
        save_index(tiny_index, path)
        with _loaded(path, mode) as loaded:
            assert loaded.stats() == tiny_index.stats()
            for term in tiny_index.terms():
                assert loaded.document_frequency(
                    term
                ) == tiny_index.document_frequency(term)

    @pytest.mark.parametrize("mode", ["auto", "memory"])
    def test_search_results_preserved(self, tmp_path, tiny_index, mode):
        path = tmp_path / "corpus.idx"
        save_index(tiny_index, path)
        expected = IndexSearcher(tiny_index).search("covid outbreak", k=5)
        with _loaded(path, mode) as loaded:
            hits = IndexSearcher(loaded).search("covid outbreak", k=5)
            assert [(h.doc_id, h.score) for h in hits] == [
                (h.doc_id, h.score) for h in expected
            ]

    @pytest.mark.parametrize("mode", ["auto", "memory"])
    def test_hash_router_placements_survive_round_trip(self, tmp_path, mode):
        index = ShardedIndex.from_documents(_many_documents(17), shard_count=4)
        path = tmp_path / "hash.idx"
        save_index(index, path)
        assert len(list(tmp_path.glob("hash.idx-g1.s*.seg"))) == 4
        with _loaded(path, mode) as loaded:
            assert loaded.router.name == "hash"
            assert loaded.shard_sizes() == index.shard_sizes()
            for doc_id in index.doc_ids:
                assert loaded.shard_of(doc_id) == index.shard_of(doc_id)
            assert loaded.analyzer.to_config() == index.analyzer.to_config()

    def test_round_robin_placements_survive_memory_round_trip(self, tmp_path):
        index = ShardedIndex.from_documents(
            _many_documents(17),
            shard_count=3,
            router=RoundRobinRouter(3),
        )
        path = tmp_path / "rr.idx"
        save_index(index, path)
        loaded = load_index(path, mode="memory")
        assert loaded.router.name == "round-robin"
        for doc_id in index.doc_ids:
            assert loaded.shard_of(doc_id) == index.shard_of(doc_id)
        # The restored router resumes the cycle where the saved one left off.
        loaded.add(Document("rr-next", "a fresh virus story"))
        index.add(Document("rr-next", "a fresh virus story"))
        assert loaded.shard_of("rr-next") == index.shard_of("rr-next")

    def test_round_robin_cursor_survives_removals(self, tmp_path):
        # The cycle position cannot be derived from surviving documents:
        # after a removal the persisted cursor must drive the next add.
        documents = _many_documents(3)
        index = ShardedIndex.from_documents(
            documents, shard_count=2, router=RoundRobinRouter(2)
        )
        index.remove(documents[1].doc_id)
        path = tmp_path / "rr-removed.idx"
        save_index(index, path)
        attached = load_index(path)
        try:
            assert attached.router.cursor == index.router.cursor
        finally:
            attached.close()
        loaded = load_index(path, mode="memory")
        assert loaded.router.cursor == index.router.cursor
        loaded.add(Document("after-reload", "a fresh virus story"))
        index.add(Document("after-reload", "a fresh virus story"))
        assert loaded.shard_of("after-reload") == index.shard_of("after-reload")

    def test_save_concurrent_with_mutation_is_consistent(self, tmp_path):
        """A save racing corpus mutation must commit one coherent
        generation: placements, segments and merged terms from the same
        instant, so the load neither raises nor drops documents."""
        index = ShardedIndex.from_documents(_many_documents(20), shard_count=3)
        stop = threading.Event()

        def mutate():
            position = 0
            while not stop.is_set():
                index.add(Document(f"churn-{position}", "a rolling virus story"))
                if position >= 3:
                    index.remove(f"churn-{position - 3}")
                position += 1

        writer = threading.Thread(target=mutate, daemon=True)
        writer.start()
        try:
            for round_number in range(10):
                path = tmp_path / f"race-{round_number}.idx"
                save_index(index, path)
                loaded = load_index(path, mode="memory")
                assert len(loaded) >= 20
                assert len(loaded.doc_ids) == len(loaded)
                assert sum(loaded.shard_sizes()) == len(loaded)
                assert loaded.stats().unique_terms == len(list(loaded.terms()))
        finally:
            stop.set()
            writer.join(timeout=10)

    @pytest.mark.parametrize("mode", ["auto", "memory"])
    def test_every_analyzer_config_field_round_trips(self, tmp_path, mode):
        analyzer = Analyzer(
            lowercase=False, remove_stopwords=False, stem=False,
            min_token_length=3,
        )
        index = InvertedIndex.from_documents(_documents(), analyzer)
        path = tmp_path / "surface.idx"
        save_index(index, path)
        loaded = load_index(path, mode=mode)
        assert loaded.analyzer.to_config() == analyzer.to_config()
        assert loaded.analyzer.stem is False
        assert loaded.analyzer.min_token_length == 3
        # Runtime-only analyzer state never leaks into the manifest.
        stored = Manifest.open(path).latest_generation().analyzer_config
        assert stored == analyzer.to_config()
        assert "stopwords" not in stored and "_stemmer" not in stored

    def test_saved_manifest_carries_every_analyzer_field(
        self, tmp_path, tiny_index
    ):
        path = tmp_path / "corpus.idx"
        save_index(tiny_index, path)
        stored = Manifest.open(path).latest_generation().analyzer_config
        assert stored == tiny_index.analyzer.to_config()
        assert {
            "lowercase", "remove_stopwords", "stem", "min_token_length"
        } <= set(stored)
        # Runtime-only state never leaks into the manifest.
        assert "stopwords" not in stored and "_stemmer" not in stored

    def _rewrite_analyzer(self, path, config):
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE generations SET analyzer = ?", (json.dumps(config),)
            )

    def test_missing_analyzer_keys_fall_back_to_defaults(self, tmp_path):
        path = tmp_path / "sparse.idx"
        save_index(_index(), path)
        self._rewrite_analyzer(path, {"stem": False})
        loaded = load_index(path, mode="memory")
        assert loaded.analyzer.stem is False
        assert loaded.analyzer.lowercase is True  # field default

    def test_unknown_analyzer_keys_are_rejected(self, tmp_path):
        """A manifest written by a newer analyzer must not load lossily."""
        path = tmp_path / "future.idx"
        save_index(_index(), path)
        config = _index().analyzer.to_config()
        config["bigram_shingles"] = True
        self._rewrite_analyzer(path, config)
        with pytest.raises(ValueError, match="bigram_shingles"):
            load_index(path)

    def test_resaving_narrower_collects_stale_segments(self, tmp_path):
        path = tmp_path / "corpus.idx"
        save_index(ShardedIndex.from_documents(_documents(), 4), path)
        save_index(ShardedIndex.from_documents(_documents(), 2), path)
        assert len(list(tmp_path.glob("corpus.idx-g*.seg"))) == 2
        assert load_index(path, mode="memory").shard_count == 2

    def test_parent_directories_created(self, tmp_path):
        nested = tmp_path / "deep" / "dir" / "corpus.idx"
        save_index(_index(), nested)
        assert is_v3_manifest(nested)
        assert load_index(nested, mode="memory").doc_ids == _index().doc_ids


class TestReadOnlyContract:
    @pytest.fixture()
    def packed(self, tmp_path):
        path = tmp_path / "corpus.idx"
        save_v3(_index(), path)
        view = attach_packed(path)
        yield view
        view.close()

    def test_attach_returns_packed_view(self, packed):
        assert isinstance(packed, PackedShardedIndex)
        assert packed.shard_count == 1
        assert packed.storage_info()["format"] == "v3"
        assert packed.storage_info()["generation"] == 1
        assert packed.storage_info()["bytes_on_disk"] > 0

    def test_mutations_raise(self, packed):
        extra = Document("doc-z", "new text")
        with pytest.raises(ReadOnlyIndexError):
            packed.add(extra)
        with pytest.raises(ReadOnlyIndexError):
            packed.add_documents([extra])
        with pytest.raises(ReadOnlyIndexError):
            packed.remove("doc-a")
        with pytest.raises(ReadOnlyIndexError):
            packed.replace(extra)
        # ReadOnlyIndexError is a ReproError, so service layers catch it.
        assert issubclass(ReadOnlyIndexError, ReproError)

    def test_engine_ingest_into_packed_index_is_read_only(self, tmp_path):
        path = tmp_path / "corpus.idx"
        save_v3(_index(), path)
        engine = CredenceEngine.load(path, config=EngineConfig(ranker="bm25"))
        try:
            with pytest.raises(ReadOnlyIndexError):
                engine.add_documents([Document("doc-z", "new text")])
        finally:
            engine.index.close()

    def test_sharded_attach_and_mutation(self, tmp_path):
        path = tmp_path / "sharded.idx"
        save_v3(ShardedIndex.from_documents(_documents(), 2), path)
        view = attach_packed(path)
        try:
            assert isinstance(view, PackedShardedIndex)
            assert view.shard_count == 2
            with pytest.raises(ReadOnlyIndexError):
                view.add(Document("doc-z", "new text"))
        finally:
            view.close()


class TestVersionFingerprint:
    def test_stable_across_re_save_and_re_attach(self, tmp_path):
        index = _index()
        first_path = tmp_path / "a.idx"
        second_path = tmp_path / "b.idx"
        save_v3(index, first_path)
        save_v3(index, second_path)
        a1 = attach_packed(first_path)
        a2 = attach_packed(first_path)
        b = attach_packed(second_path)
        try:
            # Same content → same fingerprint, across paths and attaches.
            assert a1.version == a2.version == b.version
        finally:
            for view in (a1, a2, b):
                view.close()

    def test_changes_with_content(self, tmp_path):
        index = _index()
        path = tmp_path / "a.idx"
        save_v3(index, path)
        before = attach_packed(path)
        old_version = before.version
        before.close()
        index.add(Document("doc-f", "A fresh covid report."))
        save_v3(index, path)
        after = attach_packed(path)
        try:
            assert after.version != old_version
        finally:
            after.close()


class TestHydration:
    def test_memory_mode_round_trips_mutable(self, tmp_path):
        index = _index()
        path = tmp_path / "corpus.idx"
        save_index(index, path)
        hydrated = load_index(path, mode="memory")
        assert isinstance(hydrated, ShardedIndex)
        assert hydrated.shard_count == 1
        assert [d.doc_id for d in hydrated] == [d.doc_id for d in index]
        assert list(hydrated.terms()) == list(index.terms())
        for term in index.terms():
            assert [
                (p.doc_id, p.frequency, p.positions)
                for p in hydrated.postings(term)
            ] == [
                (p.doc_id, p.frequency, p.positions)
                for p in index.postings(term)
            ]
        # Hydrated indexes are mutable again.
        hydrated.add(Document("doc-z", "more covid text"))
        assert "doc-z" in hydrated

    def test_sharded_memory_mode_restores_layout(self, tmp_path):
        sharded = ShardedIndex.from_documents(_documents(), 3)
        path = tmp_path / "sharded.idx"
        save_index(sharded, path)
        hydrated = load_index(path, mode="memory")
        assert isinstance(hydrated, ShardedIndex)
        assert hydrated.shard_count == 3
        for document in sharded:
            assert hydrated.shard_of(document.doc_id) == sharded.shard_of(
                document.doc_id
            )
        assert list(hydrated.terms()) == list(sharded.terms())
