"""Tests for the live HTTP server (sockets, threading, JSON wire format)
and its transport: kept-alive connections, one write per response, idle
timeouts, malformed framing, and ``HttpClient``'s per-thread connection."""

import http.client
import json
import logging
import socket
import threading
import time
from urllib.parse import quote

import pytest

from repro.api import http as api_http
from repro.api.app import build_router, serve
from repro.api.client import HttpClient, InProcessClient, RetryPolicy
from repro.api.http import ApiServer, Router, StreamingResponse
from repro.datasets.covid import FAKE_NEWS_DOC_ID

QUERY = "covid outbreak"


@pytest.fixture(scope="module")
def server(module_engine):
    server = serve(module_engine, port=0)  # ephemeral port
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture(scope="module")
def live(server):
    with HttpClient(server.url) as client:
        yield client


@pytest.fixture(scope="module")
def module_engine():
    from repro.core.engine import CredenceEngine, EngineConfig
    from repro.datasets.covid import covid_corpus

    return CredenceEngine(covid_corpus(), EngineConfig(ranker="bm25", seed=5))


class TestLiveServer:
    def test_health_over_http(self, live):
        response = live.get("/health")
        assert response.status == 200
        assert response.payload["status"] == "ok"

    def test_rank_over_http(self, live):
        response = live.post("/rank", {"query": QUERY, "k": 5})
        assert response.status == 200
        assert len(response.payload["ranking"]) == 5

    def test_error_status_over_http(self, live):
        response = live.post("/rank", {"query": ""})
        assert response.status == 400
        assert response.payload["error"] == "BadRequestError"

    def test_not_found_over_http(self, live):
        assert live.get("/missing/route").status == 404

    def test_builder_over_http(self, live):
        response = live.post(
            "/builder/rerank",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "k": 10,
                "perturbations": [{"type": "remove_term", "term": "covid"}],
            },
        )
        assert response.status == 200
        assert "rank_after" in response.payload

    def test_an_emptied_index_is_a_400_over_http(self):
        from repro.core.engine import CredenceEngine, EngineConfig
        from repro.datasets.covid import covid_corpus

        engine = CredenceEngine(
            covid_corpus()[:8], EngineConfig(ranker="bm25", seed=5)
        )
        server = serve(engine, port=0)
        client = HttpClient(server.url)
        try:
            ranked = client.post("/rank", {"query": QUERY, "k": 3})
            doc_id = ranked.payload["ranking"][0]["doc_id"]
            for removed in list(engine.index.doc_ids):
                assert client.delete(f"/index/documents/{removed}").status == 200
            for path, body in (
                ("/rank", {"query": QUERY, "k": 3}),
                ("/explanations", {"query": QUERY, "doc_id": doc_id}),
            ):
                response = client.post(path, body)
                assert response.status == 400, path
                assert response.payload["detail"] == "cannot search an empty index"
                assert response.headers.get("connection") != "close"
        finally:
            client.close()
            server.stop()

    def test_concurrent_requests(self, live):
        import concurrent.futures

        def fetch(_):
            return live.post("/rank", {"query": QUERY, "k": 3}).status

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            statuses = list(pool.map(fetch, range(8)))
        assert statuses == [200] * 8


# -- transport -----------------------------------------------------------------


def _wait_until(condition, seconds: float = 1.0) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class _CountingServer:
    """A bare :class:`ApiServer` that records every POST to ``/count`` and
    every connection it accepts."""

    def __init__(self, prefix: str = ""):
        self.calls: list = []
        self.accepted: list = []
        router = Router()
        for method in ("GET", "DELETE"):
            router.add(method, f"{prefix}/ping", lambda request: {"ok": True})
        router.add("POST", f"{prefix}/count", self._count)
        router.add("POST", f"{prefix}/fail", self._fail)
        router.add("POST", f"{prefix}/stream", self._stream)
        self.api = ApiServer(router)
        accept = self.api._server.process_request

        def process_request(request, client_address):
            self.accepted.append(client_address)
            accept(request, client_address)

        self.api._server.process_request = process_request

    def _count(self, request):
        self.calls.append(request.body)
        return {"calls": len(self.calls)}

    def _fail(self, request):
        self.calls.append(request.body)
        raise RuntimeError("a route bug")

    def _stream(self, request):
        return StreamingResponse(
            200, ({"event": "progress", "step": step} for step in range(3))
        )

    def __enter__(self) -> "_CountingServer":
        self.api.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.api.stop()


def _read_until_closed(sock: socket.socket) -> bytes:
    reply = b""
    while chunk := sock.recv(65536):
        reply += chunk
    return reply


class TestKeptAliveConnections:
    def test_sequential_requests_on_one_connection_do_not_stall(self, server):
        # A body written apart from its headers waits out the client's
        # delayed ACK: about 44 ms a request, 2.2 s for these 50.
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        body = json.dumps({"query": QUERY, "k": 5})
        try:
            started = time.perf_counter()
            for _ in range(50):
                connection.request("POST", "/rank", body)
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            assert time.perf_counter() - started < 1.0
        finally:
            connection.close()

    def test_one_connection_per_calling_thread(self):
        with _CountingServer() as counting, HttpClient(
            counting.api.url
        ) as client:
            for _ in range(3):
                assert client.get("/ping").status == 200
                assert client.post("/count", {}).status == 200
                assert client.delete("/ping").status == 200
            assert len(counting.accepted) == 1

            def calls():
                for _ in range(3):
                    assert client.post("/count", {}).status == 200

            threads = [threading.Thread(target=calls) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5)
                assert not thread.is_alive()
            assert len(counting.calls) == 9
            assert len(counting.accepted) == 3

    def test_a_thread_s_connection_closes_when_the_thread_ends(self):
        with _CountingServer() as counting, HttpClient(
            counting.api.url
        ) as client:
            sockets = []

            def call():
                assert client.get("/ping").status == 200
                sockets.append(client._idle().connection.sock)

            thread = threading.Thread(target=call)
            thread.start()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert sockets[0].fileno() == -1  # closed as the thread ended
            assert client.get("/ping").status == 200
            kept = client._idle().connection
            assert kept.sock is not None
        assert kept.sock is None  # closed by leaving the with block

    def test_stop_closes_kept_alive_connections(self):
        before = threading.active_count()
        with _CountingServer() as counting:
            connection = http.client.HTTPConnection(
                *counting.api.address, timeout=5
            )
            connection.request("GET", "/ping")
            assert connection.getresponse().read()
            started = time.monotonic()
        assert time.monotonic() - started < 2.0  # stop() with a client idle
        try:
            with pytest.raises(ConnectionError):
                connection.request("GET", "/ping")
                connection.getresponse()
        finally:
            connection.close()
        assert _wait_until(lambda: threading.active_count() <= before)

    @pytest.mark.parametrize(
        "sent",
        [
            b"",
            b"GET /ping HTTP/1.1\r\nHost: x\r\n",
            b"POST /count HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
        ],
        ids=["nothing", "half-headers", "half-body"],
    )
    def test_idle_connection_is_closed_and_frees_its_thread(
        self, monkeypatch, sent
    ):
        monkeypatch.setattr(api_http, "IDLE_TIMEOUT_SECONDS", 0.2)
        with _CountingServer() as counting:
            before = threading.active_count()
            with socket.create_connection(
                counting.api.address, timeout=5
            ) as sock:
                sock.sendall(sent)
                assert _read_until_closed(sock) == b""
            assert _wait_until(lambda: threading.active_count() <= before)
            assert counting.calls == []

    def test_client_replaces_a_connection_closed_while_idle(self, monkeypatch):
        monkeypatch.setattr(api_http, "IDLE_TIMEOUT_SECONDS", 0.2)
        with _CountingServer() as counting, HttpClient(
            counting.api.url, retry=RetryPolicy(max_attempts=1)
        ) as client:
            before = threading.active_count()
            assert client.post("/count", {"n": 1}).status == 200
            # the server closes the idle connection and its thread exits
            assert _wait_until(lambda: threading.active_count() <= before)
            assert client.post("/count", {"n": 2}).status == 200
            assert counting.calls == [{"n": 1}, {"n": 2}]  # each ran once
            assert len(counting.accepted) == 2


class TestRouteFailures:
    def test_unmapped_route_error_is_one_500_that_closes(self, caplog):
        # A connection dropped with no status line looks like an idle
        # close to a kept-alive client, which would send the POST again.
        with _CountingServer() as counting, HttpClient(
            counting.api.url
        ) as client:
            assert client.post("/count", {"n": 1}).status == 200
            with caplog.at_level(logging.ERROR, logger="repro.api.http"):
                failed = client.post("/fail", {"n": 2})  # on a reused connection
            assert failed.status == 500
            assert failed.headers["connection"] == "close"
            assert failed.payload["error"] == "ApiError"
            assert counting.calls == [{"n": 1}, {"n": 2}]  # the POST ran once
            (record,) = [r for r in caplog.records if r.name == "repro.api.http"]
            assert record.exc_info[0] is RuntimeError
            assert client.post("/count", {"n": 3}).status == 200
            assert len(counting.accepted) == 2  # a fresh connection after the 500


class TestStop:
    def test_stop_returns_promptly_on_an_idle_server(self):
        # serve_forever's default poll is 0.5 s; stop() must not wait it out.
        timings = []
        for _ in range(3):
            server = ApiServer(Router()).start()
            started = time.perf_counter()
            server.stop()
            timings.append(time.perf_counter() - started)
        assert min(timings) < 0.1


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "framing",
        [
            b"Content-Length: -1",
            b"Content-Length: abc",
            b"Content-Length: 1_0",
            b"Transfer-Encoding: chunked",
        ],
    )
    def test_unknown_body_length_is_a_clean_400_that_closes(self, framing):
        with _CountingServer() as counting:
            with socket.create_connection(
                counting.api.address, timeout=2
            ) as sock:
                sock.sendall(
                    b"POST /count HTTP/1.1\r\nHost: x\r\n"
                    + framing
                    + b"\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
                )
                reply = _read_until_closed(sock)
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 ")
            assert b"\r\nconnection: close" in head.lower()
            assert json.loads(body)["error"] == "BadRequestError"
            assert counting.calls == []

    def test_undecodable_body_is_a_clean_400_on_a_kept_connection(self):
        with _CountingServer() as counting:
            connection = http.client.HTTPConnection(
                *counting.api.address, timeout=2
            )
            try:
                connection.request("POST", "/count", b"\xff\xfe\x00")
                refused = connection.getresponse()
                assert refused.status == 400
                assert json.loads(refused.read())["error"] == "BadRequestError"
                connection.request("POST", "/count", b"{}")
                assert connection.getresponse().status == 200
            finally:
                connection.close()
            assert len(counting.accepted) == 1


    @pytest.mark.parametrize(
        "sent, status",
        [
            (b"PUT /ping HTTP/1.1\r\nHost: x\r\n\r\n", 501),
            (b"PATCH /ping HTTP/1.1\r\nHost: x\r\n\r\n", 501),
            (b"OPTIONS /ping HTTP/1.1\r\nHost: x\r\n\r\n", 501),
            (b"HEAD /ping HTTP/1.1\r\nHost: x\r\n\r\n", 501),
            # exactly what the server reads before it refuses, so no
            # unread byte turns its close into a reset
            (b"GET /" + b"a" * (65537 - 5), 414),
        ],
        ids=["put", "patch", "options", "head", "65537-byte-request-line"],
    )
    def test_the_standard_library_s_refusals_answer_in_json(self, sent, status):
        with _CountingServer() as counting:
            with socket.create_connection(
                counting.api.address, timeout=2
            ) as sock:
                sock.sendall(sent)
                reply = _read_until_closed(sock)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert b"\r\ncontent-type: application/json" in head.lower()
        assert b"\r\nconnection: close" in head.lower()
        if sent.startswith(b"HEAD "):
            assert body == b""  # a response to HEAD has no body
        else:
            assert json.loads(body)["error"] == "BadRequestError"


class TestPathParameters:
    """Path parameters are percent-decoded after the match, and ``;`` is
    part of a segment."""

    IDS = ("a", "a;v2", "a b", "café", "x/y")

    @pytest.fixture(params=["http", "in-process"])
    def client(self, request):
        from repro.core.engine import CredenceEngine, EngineConfig
        from repro.datasets.covid import covid_corpus

        engine = CredenceEngine(
            covid_corpus()[:8], EngineConfig(ranker="bm25", seed=5)
        )
        if request.param == "in-process":
            yield InProcessClient(build_router(engine))
            return
        server = serve(engine, port=0)
        try:
            with HttpClient(server.url) as client:
                yield client
        finally:
            server.stop()

    def test_each_id_round_trips_percent_encoded(self, client):
        documents = [
            {"doc_id": doc_id, "body": f"a covid story, number {n}"}
            for n, doc_id in enumerate(self.IDS)
        ]
        assert client.post("/index/documents", {"documents": documents}).status == 201
        assert client.get("/documents/a;v2").payload["doc_id"] == "a;v2"
        kept = list(self.IDS)
        for doc_id in reversed(self.IDS):  # "a;v2" goes before "a"
            removed = client.delete(f"/index/documents/{quote(doc_id, safe='')}")
            assert (removed.status, removed.payload["removed"]) == (200, doc_id)
            kept.remove(doc_id)
            assert client.get(f"/documents/{quote(doc_id, safe='')}").status == 404
            for other in kept:
                found = client.get(f"/documents/{quote(other, safe='')}")
                assert (found.status, found.payload["doc_id"]) == (200, other)


class TestHttpClientStream:
    def _body(self, **overrides) -> dict:
        return {
            "query": QUERY,
            "doc_id": FAKE_NEWS_DOC_ID,
            "strategy": "document/sentence-removal",
            "k": 10,
            **overrides,
        }

    def test_progress_then_a_result_equal_to_the_sync_route(self, live):
        chunks = list(live.post_stream("/explanations/stream", self._body()))
        assert [chunk["event"] for chunk in chunks[:-1]] == (
            ["progress"] * (len(chunks) - 1)
        )
        assert chunks[-1]["event"] == "result"
        synced = live.post("/explanations", self._body())
        assert synced.status == 200
        assert chunks[-1]["response"] == synced.payload

    def test_pre_stream_refusal_is_one_rejected_chunk(self, live):
        chunks = list(live.post_stream("/explanations/stream", {}))
        assert len(chunks) == 1
        assert chunks[0]["event"] == "rejected"
        assert chunks[0]["status"] == 400
        assert chunks[0]["error"] == "BadRequestError"

    def test_stream_holds_the_connection_until_exhausted(self):
        with _CountingServer() as counting, HttpClient(
            counting.api.url
        ) as client:
            stream = client.post_stream("/stream")
            assert next(stream) == {"event": "progress", "step": 0}
            # the stream's connection is busy: this call opens its own
            assert client.post("/count", {}).status == 200
            assert [chunk["step"] for chunk in stream] == [1, 2]
            assert len(counting.accepted) == 2
            # after a fully read stream, calls reuse the idle connection
            steps = [chunk["step"] for chunk in client.post_stream("/stream")]
            assert steps == [0, 1, 2]
            assert client.post("/count", {}).status == 200
            assert len(counting.accepted) == 2

    def test_closing_a_stream_early_leaves_the_client_usable(self):
        with _CountingServer() as counting, HttpClient(
            counting.api.url
        ) as client:
            stream = client.post_stream("/stream")
            assert next(stream)["step"] == 0
            stream.close()  # closes its connection too
            assert client.post("/count", {}).status == 200
            assert client.post("/count", {}).status == 200
            assert len(counting.calls) == 2
            assert len(counting.accepted) == 2


class TestBaseUrl:
    def test_https_base_url_builds_an_https_connection(self):
        connection = HttpClient("https://example.invalid:8443/api")._connect()
        assert isinstance(connection, http.client.HTTPSConnection)
        assert (connection.host, connection.port) == ("example.invalid", 8443)

    def test_path_prefix_in_base_url_is_kept(self):
        with _CountingServer(prefix="/api/v1") as counting, HttpClient(
            counting.api.url + "/api/v1/"
        ) as client:
            assert client.get("/ping").status == 200
            assert client.post("/count", {}).status == 200
            assert len(counting.calls) == 1
