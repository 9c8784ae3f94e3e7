"""Tables of how both ends of the REST transport handle HTTP/1.1 heads.

The server table sends raw request bytes and records, for each row, the
statuses answered and whether the server then closed the connection (a
second request on the same socket goes unanswered). The client table
points :class:`HttpClient` at a raw-socket server that answers with
scripted bytes, and records what the client refuses to send.
"""

import email.parser
import http.client
import socket
import threading

import pytest

from repro.api.client import HttpClient, RetryPolicy
from repro.api.http import ApiServer, Router, StreamingResponse

PROBE = b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.fixture(scope="module")
def api():
    router = Router()
    router.add("GET", "/ping", lambda request: {"ok": True})
    router.add("POST", "/count", lambda request: {"body": request.body})
    server = ApiServer(router).start()
    try:
        yield server
    finally:
        server.stop()


def _read_status(reader) -> int | None:
    """Read one response; its status, or None when the server sent no
    status line (it closed, or answered with a bare body)."""
    try:
        line = reader.readline()
    except ConnectionResetError:
        return None
    if not line.startswith(b"HTTP/"):
        return None
    length = 0
    while (field := reader.readline()) not in (b"\r\n", b""):
        name, _, value = field.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    reader.read(length)
    return int(line.split()[1])


def _exchange(address, request: bytes, after_continue: bytes | None):
    """Send ``request``; return the statuses answered and whether the
    connection was closed after them."""
    statuses = []
    with socket.create_connection(address, timeout=5) as sock, sock.makefile(
        "rb"
    ) as reader:
        sock.sendall(request)
        if after_continue is not None:
            statuses.append(_read_status(reader))
            sock.sendall(after_continue)
        statuses.append(_read_status(reader))
        try:
            sock.sendall(PROBE)
        except (BrokenPipeError, ConnectionResetError):
            return tuple(statuses), True
        return tuple(statuses), _read_status(reader) is None


def _fields(count: int) -> bytes:
    return b"".join(b"X-Field-%d: v\r\n" % n for n in range(count))


# (request, body sent after a 100 Continue, (statuses, closes))
SERVER_ROWS = {
    "mixed-case-names": (
        b"POST /count HTTP/1.1\r\nhOsT: x\r\ncOnTeNt-LeNgTh: 2\r\n\r\n{}",
        None,
        ((200,), False),
    ),
    "repeated-field": (
        b"GET /ping HTTP/1.1\r\nHost: x\r\nX-Tag: a\r\nX-Tag: b\r\n\r\n",
        None,
        ((200,), False),
    ),
    "101-fields": (
        b"GET /ping HTTP/1.1\r\n" + _fields(101) + b"\r\n",
        None,
        ((431,), True),
    ),
    "65537-byte-line": (
        b"GET /ping HTTP/1.1\r\nX-Long: " + b"a" * (65537 - 10) + b"\r\n\r\n",
        None,
        ((431,), True),
    ),
    "line-without-colon": (
        b"GET /ping HTTP/1.1\r\nHost: x\r\nNo colon here\r\n\r\n",
        None,
        ((200,), False),
    ),
    # RFC 9112 §5.2 lets a server refuse obs-fold with a 400.
    "obs-fold": (
        b"GET /ping HTTP/1.1\r\nHost: x\r\nX-Tag: a\r\n  b\r\n\r\n",
        None,
        ((400,), True),
    ),
    "http-1.0": (
        b"GET /ping HTTP/1.0\r\n\r\n",
        None,
        ((200,), True),
    ),
    "http-1.0-keep-alive": (
        b"GET /ping HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        None,
        ((200,), False),
    ),
    "http-1.1-connection-close": (
        b"GET /ping HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        None,
        ((200,), True),
    ),
    # HTTP/0.9 is not served: every answer has a status line.
    "http-2.0": (
        b"GET /ping HTTP/2.0\r\n\r\n",
        None,
        ((505,), True),
    ),
    "two-word-request-line": (
        b"GET /ping\r\n\r\n",
        None,
        ((400,), True),
    ),
    "expect-100-continue": (
        b"POST /count HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
        b"Content-Length: 2\r\n\r\n",
        b"{}",
        ((100, 200), False),
    ),
    # RFC 9112 §3.2.2: a server accepts the absolute form of a target.
    "absolute-form-target": (
        b"POST http://x/count HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
        None,
        ((200,), False),
    ),
}


@pytest.mark.parametrize("row", SERVER_ROWS)
def test_server_answers_each_head(api, row):
    request, after_continue, expected = SERVER_ROWS[row]
    assert _exchange(api.address, request, after_continue) == expected


class _ScriptedServer:
    """A raw-socket server that answers each request with the next of
    ``responses`` and closes the connection after one marked to close."""

    def __init__(self, responses: list[tuple[bytes, bool]]):
        self.responses = iter(responses)
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        while True:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return  # the listener was closed
            self.accepted += 1
            with connection, connection.makefile("rb") as reader:
                while self._read_request(reader):
                    response, close = next(self.responses)
                    connection.sendall(response)
                    if close:
                        break

    @staticmethod
    def _read_request(reader) -> bool:
        if not reader.readline():
            return False
        length = 0
        while (field := reader.readline()) not in (b"\r\n", b""):
            name, _, value = field.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        reader.read(length)
        return True

    def __enter__(self) -> "_ScriptedServer":
        self.thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self.listener.close()
        self.thread.join(timeout=5)


#: The second call of every row: a JSON 200 that closes, so no row leaves
#: a kept-alive connection behind.
LAST = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 8\r\nConnection: close\r\n\r\n{\"n\": 2}",
    True,
)

#: The first call of every row but the refusals: a POST with a body.
POST = ("/count", None)

#: A JSON 200 that keeps the connection open, its body after the head.
OK_HEAD = b"200 OK\r\nContent-Type: application/json\r\nContent-Length: 8\r\n"

# (the first call's path and headers, the first response) -> its status,
# its payload and the connections accepted over both calls; or the error
# the first call raises and the connections accepted
CLIENT_ROWS = {
    "connection-close": (
        POST,
        (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 8\r\nConnection: close\r\n\r\n{\"n\": 1}",
            True,
        ),
        (200, {"n": 1}, 2),
    ),
    "body-to-eof": (
        POST,
        (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n"
            b"{\"n\": 1, \"to\": \"eof\"}",
            True,
        ),
        (200, {"n": 1, "to": "eof"}, 2),
    ),
    "no-content": (
        POST,
        (b"HTTP/1.1 204 No Content\r\n\r\n", False),
        (204, "", 1),
    ),
    "chunked-over-two-chunks": (
        POST,
        (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"4\r\n{\"n\"\r\n4\r\n: 1}\r\n0\r\n\r\n",
            False,
        ),
        (200, {"n": 1}, 1),
    ),
    "100-continue-then-200": (
        POST,
        (b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 " + OK_HEAD + b"\r\n{\"n\": 1}", False),
        (200, {"n": 1}, 1),
    ),
    "http-1.0": (
        POST,
        (b"HTTP/1.0 " + OK_HEAD + b"\r\n{\"n\": 1}", True),
        (200, {"n": 1}, 2),
    ),
    "http-1.0-keep-alive": (
        POST,
        (b"HTTP/1.0 " + OK_HEAD + b"Connection: keep-alive\r\n\r\n{\"n\": 1}", False),
        (200, {"n": 1}, 1),
    ),
    "body-shorter-than-its-length": (
        POST,
        (b"HTTP/1.1 " + OK_HEAD + b"\r\n{\"n\"", True),
        (http.client.IncompleteRead, 1),
    ),
    "status-not-a-number": (
        POST,
        (b"HTTP/1.1 abc OK\r\n\r\n", True),
        (http.client.BadStatusLine, 1),
    ),
    # Refused before any connection opens, as http.client refuses them.
    "cr-lf-in-a-header-value": (
        ("/count", {"X-Tag": "a\r\nX-Injected: 1"}),
        LAST,
        (ValueError, 0),
    ),
    "space-in-the-path": (("/co unt", None), LAST, (http.client.InvalidURL, 0)),
}


@pytest.mark.parametrize("row", CLIENT_ROWS)
def test_client_reads_each_response(row):
    (path, headers), first, expected = CLIENT_ROWS[row]
    with _ScriptedServer([first, LAST]) as scripted, HttpClient(
        scripted.url, retry=RetryPolicy(max_attempts=1)
    ) as client:
        try:
            response = client.post(path, {"n": 1}, headers=headers)
        except Exception as error:  # noqa: BLE001 - the row names the type
            got = (type(error), scripted.accepted)
        else:
            second = client.post("/count", {"n": 2})
            assert second.status == 200 and second.payload == {"n": 2}
            got = (response.status, response.payload, scripted.accepted)
    assert got == expected


def test_neither_end_reads_a_head_with_the_email_package(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a head went through the email package")

    monkeypatch.setattr(http.client, "parse_headers", refuse)
    monkeypatch.setattr(email.parser.Parser, "parsestr", refuse)
    router = Router()
    router.add("GET", "/ping", lambda request: {"ok": True})
    router.add("POST", "/count", lambda request: {"body": request.body})
    steps = [{"step": 0}, {"step": 1}]
    router.add("POST", "/stream", lambda request: StreamingResponse(200, steps))
    with ApiServer(router) as server, HttpClient(
        server.url, retry=RetryPolicy(max_attempts=1)
    ) as client:
        assert client.get("/ping").payload == {"ok": True}
        assert client.post("/count", {"n": 1}).payload == {"body": {"n": 1}}
        assert list(client.post_stream("/stream")) == steps
        raw = b"POST /count HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"
        assert _exchange(server.address, raw, None) == ((200,), False)


def test_the_client_sends_nothing_through_http_client_s_request_path(
    monkeypatch,
):
    def refuse(*args, **kwargs):
        raise AssertionError("a request went through http.client")

    monkeypatch.setattr(http.client.HTTPConnection, "request", refuse)
    monkeypatch.setattr(http.client.HTTPConnection, "getresponse", refuse)
    monkeypatch.setattr(http.client.HTTPResponse, "begin", refuse)
    router = Router()
    for method in ("GET", "DELETE"):
        router.add(method, "/ping", lambda request: {"ok": request.method})
    router.add("POST", "/count", lambda request: {"body": request.body})
    steps = [{"step": 0}, {"step": 1}]
    router.add("POST", "/stream", lambda request: StreamingResponse(200, steps))
    with ApiServer(router) as server, HttpClient(
        server.url, retry=RetryPolicy(max_attempts=1)
    ) as client:
        assert client.get("/ping").payload == {"ok": "GET"}
        assert client.post("/count", {"n": 1}).payload == {"body": {"n": 1}}
        assert client.delete("/ping").payload == {"ok": "DELETE"}
        assert list(client.post_stream("/stream")) == steps
        assert client.post("/count").payload == {"body": None}


def test_conflicting_content_lengths_are_refused_before_any_route_runs():
    # RFC 9112 §6.3: read with either length, the rest of this body would
    # be taken for a second request (here a GET of /x).
    calls = []
    router = Router()
    router.add("POST", "/count", lambda request: calls.append(request.body) or {})
    post = b"POST /count HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
    with ApiServer(router) as server:
        smuggled = b"Content-Length: 33\r\n\r\n{}GET /x HTTP/1.1\r\nHost: x\r\n\r\n"
        assert _exchange(server.address, post + smuggled, None) == ((400,), True)
        assert calls == []
        repeated = b"Content-Length: 2\r\n\r\n{}"  # identical copies merge
        assert _exchange(server.address, post + repeated, None) == ((200,), False)
        assert calls == [{}]
