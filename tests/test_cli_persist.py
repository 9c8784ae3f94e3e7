"""CLI coverage for the persistence surface.

``index --save`` (always v3), the removed ``--format``/``compact`` and
``index --workers/--executor`` surface, and the exit-2 contract for
corrupt index files. All in-process through ``main([...])``.
"""

import json

import pytest

from repro.cli import main
from repro.datasets.loaders import save_jsonl
from repro.index.persist import PackedShardedIndex, is_v3_manifest
from repro.index.storage import load_index


def _build(tmp_path, tiny_docs, out_path, *extra):
    corpus = tmp_path / "docs.jsonl"
    save_jsonl(tiny_docs, corpus)
    return main(
        [
            "index",
            "--corpus", str(corpus),
            "--save", str(out_path),
            "--json",
            *extra,
        ]
    )


class TestIndexSaveFormats:
    def test_default_format_is_v3(self, capsys, tmp_path, tiny_docs):
        out_path = tmp_path / "built.idx"
        code = _build(tmp_path, tiny_docs, out_path)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["format"] == "v3"
        assert is_v3_manifest(out_path)
        loaded = load_index(out_path)
        try:
            # --shards 1 (the default) is a one-shard index.
            assert isinstance(loaded, PackedShardedIndex)
            assert loaded.shard_count == 1
            assert len(loaded) == len(tiny_docs)
        finally:
            loaded.close()

    def test_sharded_v3_save(self, capsys, tmp_path, tiny_docs):
        out_path = tmp_path / "built.idx"
        code = _build(tmp_path, tiny_docs, out_path, "--shards", "2")
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["shards"] == 2
        loaded = load_index(out_path)
        try:
            assert isinstance(loaded, PackedShardedIndex)
            assert loaded.shard_count == 2
        finally:
            loaded.close()


class TestRemovedSurfaces:
    def test_format_flag_is_gone(self, tmp_path, tiny_docs):
        with pytest.raises(SystemExit):
            _build(tmp_path, tiny_docs, tmp_path / "x.idx", "--format", "v3")

    def test_compact_command_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["compact", str(tmp_path / "a.idx"), str(tmp_path / "b.idx")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flag", [("--workers", "2"), ("--executor", "process")],
        ids=["workers", "executor"],
    )
    def test_ingest_fan_out_flags_are_gone(self, tmp_path, tiny_docs, flag):
        with pytest.raises(SystemExit) as excinfo:
            _build(tmp_path, tiny_docs, tmp_path / "x.idx", *flag)
        assert excinfo.value.code == 2


class TestCorruptInputExitCodes:
    def test_serve_replica_corrupt_index_exits_2(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.idx"
        bogus.write_text("not sqlite")
        code = main(["serve", "--replica", str(bogus), "--port", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_serve_replica_legacy_json_index_exits_2(
        self, capsys, tmp_path, tiny_docs
    ):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "documents": [d.to_dict() for d in tiny_docs],
                }
            )
        )
        code = main(["serve", "--replica", str(legacy), "--port", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "not a v3 index" in captured.err
