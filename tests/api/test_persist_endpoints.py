"""REST coverage for the persistence surface.

``POST /index/save`` (always v3), the layout and ``storage`` block in
``GET /index``, and the 400-not-500 contract for read-only
(replica/packed) engines.
"""

import pytest

from repro.api.app import build_router
from repro.api.client import InProcessClient
from repro.core.engine import CredenceEngine, EngineConfig
from repro.index.persist import is_v3_manifest
from repro.index.storage import save_index
from tests.core.test_search_equivalence import _corpus


@pytest.fixture()
def live_client():
    engine = CredenceEngine(_corpus(), EngineConfig(ranker="bm25", seed=5))
    return InProcessClient(build_router(engine)), engine


@pytest.fixture()
def packed_client(tmp_path):
    live = CredenceEngine(_corpus(), EngineConfig(ranker="bm25", seed=5))
    path = tmp_path / "corpus.idx"
    save_index(live.index, path)
    engine = CredenceEngine.load(path, config=EngineConfig(ranker="bm25", seed=5))
    return InProcessClient(build_router(engine)), engine


class TestIndexSaveRoute:
    def test_save_v3_default(self, live_client, tmp_path):
        client, engine = live_client
        path = tmp_path / "saved.idx"
        response = client.post("/index/save", {"path": str(path)})
        assert response.status == 201
        assert response.payload == {"saved_to": str(path), "format": "v3"}
        assert is_v3_manifest(path)

    def test_format_field_is_400(self, live_client, tmp_path):
        client, _ = live_client
        response = client.post(
            "/index/save",
            {"path": str(tmp_path / "x.idx"), "format": "v3"},
        )
        assert response.status == 400
        assert "format" in response.payload["detail"]

    def test_unwritable_path_is_400(self, live_client, tmp_path):
        client, _ = live_client
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("plain file")
        response = client.post(
            "/index/save", {"path": str(blocker / "x.idx")}
        )
        assert response.status == 400

    def test_read_only_engine_is_400(self, packed_client, tmp_path):
        client, _ = packed_client
        response = client.post(
            "/index/save", {"path": str(tmp_path / "copy.idx")}
        )
        assert response.status == 400
        assert "read-only" in response.payload["detail"]


class TestIndexInfoStorage:
    def test_live_engine_has_no_storage_block(self, live_client):
        client, _ = live_client
        assert "storage" not in client.get("/index").payload

    def test_default_engine_is_one_shard(self, live_client):
        client, engine = live_client
        payload = client.get("/index").payload
        assert payload["sharded"] is True
        assert payload["shards"] == 1
        assert payload["shard_documents"] == [payload["documents"]]

    def test_packed_engine_reports_storage(self, packed_client):
        client, engine = packed_client
        payload = client.get("/index").payload
        assert payload["storage"]["format"] == "v3"
        assert payload["storage"]["generation"] == 1
        assert payload["storage"]["bytes_on_disk"] > 0
        assert payload["version"] == engine.index.version

    def test_mutating_read_only_index_is_400(self, packed_client):
        client, _ = packed_client
        response = client.post(
            "/index/documents",
            {"documents": [{"doc_id": "x", "body": "new covid doc"}]},
        )
        assert response.status == 400
        assert "read-only" in response.payload["detail"]
        assert client.delete("/index/documents/doc-00").status == 400
