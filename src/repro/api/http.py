"""A minimal JSON-REST substrate on the standard library.

Provides path-pattern routing (``/documents/{doc_id}``), JSON body
parsing, structured error mapping for :class:`repro.errors.ApiError`,
and a threading HTTP server. Deliberately small: the demo's backend is a
thin REST facade over the engine, and this substrate keeps that facade
testable without third-party frameworks.
"""

from __future__ import annotations

import http.client
import json
import logging
import re
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Callable, Iterable
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import ApiError, BadRequestError, NotFoundError
from repro.obs.trace import new_request_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Request:
    """A parsed HTTP request.

    ``headers`` keys are lower-cased on ingestion (HTTP header names are
    case-insensitive; handlers read e.g. ``x-client-id`` directly).
    """

    method: str
    path: str
    path_params: dict[str, str] = field(default_factory=dict)
    query_params: dict[str, str] = field(default_factory=dict)
    body: Any = None
    headers: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        # Normalise header keys here, not in each transport, so the
        # in-process client and the socket server agree on lookups.
        object.__setattr__(
            self,
            "headers",
            {key.lower(): value for key, value in self.headers.items()},
        )


@dataclass(frozen=True)
class HttpResponse:
    """A JSON response with a status code and optional extra headers
    (e.g. ``Retry-After`` on a 429/503 refusal)."""

    status: int
    payload: Any
    headers: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class StreamingResponse:
    """An NDJSON streaming response: one JSON object per chunk.

    Returned by handlers that emit progress while work runs
    (``POST /explanations/stream``). Over real HTTP the chunks go out
    with ``Transfer-Encoding: chunked``, one ``\\n``-terminated JSON
    line per chunk, flushed as produced; the in-process client just
    iterates them.
    """

    status: int
    chunks: Iterable[Any]
    headers: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class TextResponse:
    """A plain-text response (Prometheus exposition is text, not JSON)."""

    status: int
    text: str
    headers: dict[str, str] = field(default_factory=dict)
    content_type: str = "text/plain; charset=utf-8"


Handler = Callable[[Request], Any]

Response = HttpResponse | StreamingResponse | TextResponse

_PARAM_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def _compile_pattern(pattern: str) -> re.Pattern[str]:
    regex = _PARAM_RE.sub(r"(?P<\1>[^/]+)", re.escape(pattern).replace(r"\{", "{").replace(r"\}", "}"))
    return re.compile(f"^{regex}$")


@dataclass(frozen=True)
class _Route:
    method: str
    pattern: re.Pattern[str]
    handler: Handler


class Router:
    """Maps (method, path) to handlers and dispatches requests.

    With a :class:`~repro.obs.tracer.Tracer` attached, every dispatch —
    including 404s, 405s, and error mappings — runs under a request
    trace and every response (streaming included) carries an
    ``X-Request-Id`` header: the client's own (``X-Request-Id`` request
    header) when present, a fresh id otherwise. Implementing the
    contract here, below every route, is what lets the lint test assert
    that no endpoint can opt out of request-id propagation.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self._routes: list[_Route] = []
        self.tracer = tracer

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        """Register ``handler`` for ``method`` on a ``/path/{param}`` pattern."""
        self._routes.append(
            _Route(method.upper(), _compile_pattern(pattern), handler)
        )

    def get(self, pattern: str):
        """Decorator form of :meth:`add` for GET."""
        return self._decorator("GET", pattern)

    def post(self, pattern: str):
        """Decorator form of :meth:`add` for POST."""
        return self._decorator("POST", pattern)

    def delete(self, pattern: str):
        """Decorator form of :meth:`add` for DELETE."""
        return self._decorator("DELETE", pattern)

    def _decorator(self, method: str, pattern: str):
        def register(handler: Handler) -> Handler:
            self.add(method, pattern, handler)
            return handler

        return register

    def dispatch(self, request: Request) -> Response:
        """Route and execute ``request``, mapping errors to status codes.

        An :class:`~repro.errors.ApiError` that knows extra headers
        (``to_headers`` — e.g. ``Retry-After`` on 429/503) gets them
        attached to the error response.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return self._dispatch(request)
        request_id = request.headers.get("x-request-id") or new_request_id()
        with tracer.trace(
            f"{request.method} {request.path}", request_id=request_id
        ) as trace:
            response = self._dispatch(request)
            trace.set(status=response.status)
        headers = dict(response.headers)
        headers.setdefault("X-Request-Id", request_id)
        return replace(response, headers=headers)

    def _dispatch(self, request: Request) -> Response:
        matched_path = False
        for route in self._routes:
            match = route.pattern.match(request.path)
            if match is None:
                continue
            matched_path = True
            if route.method != request.method:
                continue
            if params := match.groupdict():
                # Matched on the raw path, so an escaped "/" stays inside
                # its segment; the handler reads the decoded value.
                params = {name: unquote(value) for name, value in params.items()}
                request = replace(request, path_params=params)
            try:
                result = route.handler(request)
            except ApiError as error:
                to_headers = getattr(error, "to_headers", None)
                return HttpResponse(
                    error.status_code,
                    error.to_payload(),
                    headers=to_headers() if callable(to_headers) else {},
                )
            except (KeyError, ValueError, TypeError) as error:
                bad = BadRequestError(str(error))
                return HttpResponse(bad.status_code, bad.to_payload())
            if isinstance(result, (HttpResponse, StreamingResponse, TextResponse)):
                return result
            return HttpResponse(200, result)
        if matched_path:
            error: ApiError = BadRequestError("method not allowed for this path")
            return HttpResponse(405, error.to_payload())
        missing = NotFoundError(f"no route for {request.path}")
        return HttpResponse(missing.status_code, missing.to_payload())


#: Default request-body cap (bytes). A JSON explanation request is a few
#: hundred bytes; anything near this is abuse, not traffic.
MAX_BODY_BYTES = 1_048_576

#: ASCII digits only (``int()`` also takes signs, spaces, underscores and
#: other scripts' digits), and few enough that ``int()`` cannot refuse.
_CONTENT_LENGTH_RE = re.compile(r"[0-9]{1,18}")

#: Seconds a connection may sit idle (or stall mid-request) before the
#: server closes it and frees its handler thread; uvicorn's keep-alive
#: default.
IDLE_TIMEOUT_SECONDS = 5.0

#: Seconds between ``serve_forever``'s checks for a stop request, and so
#: the most :meth:`ApiServer.stop` waits for the serving loop to end
#: (the standard library's default is 0.5 s).
POLL_INTERVAL_SECONDS = 0.05

#: ``http.client``'s limits on a head: bytes in a line, and lines (the
#: blank line that ends the head counts).
MAX_HEAD_LINE, MAX_HEAD_LINES = 65536, 100

_VERSION_RE = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class HeadError(http.client.HTTPException):
    """A head this transport refuses; ``status`` is the server's answer."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def read_head(rfile) -> dict[str, str]:
    """Read a head's field lines, through the blank line that ends it.

    Both ends of the transport read heads here, not with the ``email``
    package. Names are lower-cased and values stripped; a repeated
    field's values are joined with ", " (RFC 9110 §5.3). A line without
    a colon is skipped; an obs-folded line (RFC 9112 §5.2) or a head
    over ``http.client``'s limits raises :class:`HeadError`.
    """
    fields: dict[str, str] = {}
    for _ in range(MAX_HEAD_LINES):
        line = rfile.readline(MAX_HEAD_LINE + 1)
        if len(line) > MAX_HEAD_LINE:
            raise HeadError(431, "header line too long")
        if line in (b"\r\n", b"\n", b""):
            return fields
        if line[0] in b" \t":
            raise HeadError(400, "obsolete line folding is not accepted")
        name, colon, value = line.decode("latin-1").partition(":")
        if colon:
            name, value = name.lower(), value.strip()
            fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise HeadError(431, f"more than {MAX_HEAD_LINES} header lines")


class _JsonRequestHandler(BaseHTTPRequestHandler):
    """Adapts :class:`BaseHTTPRequestHandler` to the router.

    Connections are kept alive (HTTP/1.1) with Nagle off, and every
    response leaves in one write: a body written after its headers would
    otherwise wait behind the client's delayed ACK (RFC 896, RFC 1122
    §4.2.3.2), about 40 ms per request on a kept-alive connection. The
    request head is read by :func:`read_head` into :attr:`headers`, a
    dict keyed by lower-cased name.
    """

    router: Router  # set by server factory
    max_body_bytes: int = MAX_BODY_BYTES  # set by server factory
    timeout: float = IDLE_TIMEOUT_SECONDS  # set by server factory
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # silence default stderr logging
        pass

    def parse_request(self) -> bool:
        """Read the request line and head. What the standard library
        refuses gets its status (400, 431 or 505); HTTP/0.9 and an
        obs-folded line get a 400. A refusal closes the connection."""
        self.close_connection, self.command = True, ""
        if self.server.closing:
            # Read after stop() began: close unanswered, as if the
            # server had closed first (Linux still delivers bytes that
            # arrive after a read-side shutdown).
            return False
        self.requestline = str(self.raw_requestline, "latin-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        version = _VERSION_RE.fullmatch(words[-1])
        if len(words) != 3 or version is None:
            return self._refuse(400, f"bad request line {self.requestline!r}")
        if int(version[1]) >= 2:
            return self._refuse(505, f"{words[2]} is not supported")
        self.command, path, self.request_version = words
        # "//x" would read as a scheme-less URI to a client (gh-87389)
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = read_head(self.rfile)
        except HeadError as error:
            return self._refuse(error.status, str(error))
        http_1_1 = (int(version[1]), int(version[2])) >= (1, 1)
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            not http_1_1 and connection != "keep-alive"
        )
        if http_1_1 and self.headers.get("expect", "").lower() == "100-continue":
            return self.handle_expect_100()
        return True

    def send_error(self, code: int, message: str | None = None, explain=None):
        """Answer the standard library's own refusals, an unsupported
        method (501) and a request line over 65,536 bytes (414), in JSON
        like every other."""
        self._refuse(code, message or self.responses[code][0])

    def _refuse(self, status: int, message: str, close: bool = True) -> bool:
        """Answer ``status`` with a ``BadRequestError`` payload; ``close``
        when where the request ends is unknown, so the next request
        cannot be found on this connection."""
        payload = BadRequestError(message).to_payload()
        headers = {"Connection": "close"} if close else {}
        self._respond(HttpResponse(status, payload, headers))
        return False

    def _write_head(
        self, status: int, headers: Iterable[tuple[str, str]], body: bytes = b""
    ) -> None:
        """Send the status line, ``Server``, ``Date``, ``headers`` and
        ``body`` in one write. A ``Connection: close`` among ``headers``
        closes the connection after this response."""
        reason = self.responses.get(status, ("",))[0]
        head = [
            f"{self.protocol_version} {status} {reason}\r\n"
            f"Server: {self.version_string()}\r\nDate: {self.server.date()}\r\n"
        ]
        for name, value in headers:
            head.append(f"{name}: {value}\r\n")
            if name.lower() == "connection" and value.lower() == "close":
                self.close_connection = True
        head.append("\r\n")
        if self.command == "HEAD":
            body = b""  # the head alone, its Content-Length kept
        self.wfile.write("".join(head).encode("latin-1") + body)

    def _respond(self, response: HttpResponse | TextResponse) -> None:
        if isinstance(response, TextResponse):
            body = response.text.encode("utf-8")
            content_type = response.content_type
        else:
            body = json.dumps(response.payload, ensure_ascii=False).encode(
                "utf-8"
            )
            content_type = "application/json; charset=utf-8"
        headers = [
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
        ]
        self._write_head(
            response.status, [*headers, *response.headers.items()], body
        )

    def _respond_stream(self, response: StreamingResponse) -> None:
        """Write an NDJSON stream with manual chunked framing.

        ``BaseHTTPRequestHandler`` never chunk-encodes on its own, so
        each JSON line is framed by hand (size in hex, CRLF, data,
        CRLF; zero-size chunk terminates) and sent immediately — the
        client sees progress as it happens, not when the response ends.
        Each chunk leaves in one write, and the socket is unbuffered, so
        nothing needs flushing. A producer error after headers have gone
        out cannot become a status code any more, so it is emitted as a
        final error chunk.
        """
        headers = [
            ("Content-Type", "application/x-ndjson; charset=utf-8"),
            ("Transfer-Encoding", "chunked"),
        ]
        self._write_head(
            response.status, [*headers, *response.headers.items()]
        )

        def write_chunk(payload: Any) -> None:
            line = (
                json.dumps(payload, ensure_ascii=False).encode("utf-8") + b"\n"
            )
            self.wfile.write(b"%X\r\n%s\r\n" % (len(line), line))

        try:
            try:
                for chunk in response.chunks:
                    write_chunk(chunk)
            except Exception as error:  # noqa: BLE001 - headers already sent
                write_chunk(
                    {"error": {"type": type(error).__name__, "message": str(error)}}
                )
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing left to tell it

    def _handle(self, method: str) -> None:
        # urlsplit, not urlparse: ";" belongs to the last path segment.
        target = urlsplit(self.path)
        body = None
        declared = self.headers.get("content-length") or "0"
        if "," in declared:  # repeated: the copies must agree (RFC 9112 §6.3)
            copies = {copy.strip() for copy in declared.split(",")}
            declared = copies.pop() if len(copies) == 1 else declared
        chunked = "transfer-encoding" in self.headers
        if chunked or not _CONTENT_LENGTH_RE.fullmatch(declared):
            self._refuse(
                400,
                "chunked request bodies are not accepted"
                if chunked
                else f"Content-Length must be one non-negative integer, "
                f"got {declared!r}",
            )
            return
        length = int(declared)
        if length > self.max_body_bytes:
            # Drain the body in bounded chunks (never buffering it) so
            # the client finishes its send and sees a clean 400 rather
            # than a broken pipe mid-upload.
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
            self._refuse(
                400,
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
                close=False,
            )
            return
        if length:
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw)
            except ValueError:  # bad JSON, or bytes that are not text
                self._refuse(400, "request body is not valid JSON", close=False)
                return
        query = {}
        if target.query:  # most requests carry none
            query = {key: values[0] for key, values in parse_qs(target.query).items()}
        request = Request(
            method, target.path, query_params=query, body=body, headers=self.headers
        )
        try:
            response = self.router.dispatch(request)
        except Exception:  # noqa: BLE001 - a route bug still gets an answer
            # Escaped, it would drop the connection with no status line,
            # which a kept-alive client takes for an idle close and
            # answers by sending the request again. What the failed
            # route left behind is unknown, so close the connection too.
            logger.exception("unhandled error in %s %s", method, target.path)
            error = ApiError("internal server error")
            self._respond(
                HttpResponse(
                    error.status_code,
                    error.to_payload(),
                    headers={"Connection": "close"},
                )
            )
            return
        if isinstance(response, StreamingResponse):
            self._respond_stream(response)
        else:
            self._respond(response)

    def do_GET(self):
        self._handle("GET")

    def do_POST(self):
        self._handle("POST")

    def do_DELETE(self):
        self._handle("DELETE")


class _ConnectionTrackingServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` that ends its open connections on
    close.

    Handler threads are daemons that ``server_close`` never joins, so
    without this a kept-alive connection would go on being served after
    the server stopped.
    """

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self.closing = False
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._date = (0, "")  # (a second, its Date header value)

    def date(self) -> str:
        """The ``Date`` header value, formatted at most once a second."""
        now = int(time.time())
        second, value = self._date
        if second != now:
            value = formatdate(now, usegmt=True)
            self._date = (now, value)
        return value

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        self.closing = True
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            # Shutting down the read side wakes a handler waiting for the
            # next request (it reads EOF and closes the connection) but
            # still lets a request in flight write its response.
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it first


class ApiServer:
    """A threading HTTP server bound to a :class:`Router`.

    :meth:`stop` also ends every kept-alive connection: an idle one is
    closed at once, one with a request in flight after its response. It
    returns within about ``POLL_INTERVAL_SECONDS`` on an idle server.
    """

    def __init__(
        self,
        router: Router,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        handler = type(
            "BoundHandler",
            (_JsonRequestHandler,),
            {
                "router": router,
                "max_body_bytes": max_body_bytes,
                "timeout": IDLE_TIMEOUT_SECONDS,
            },
        )
        self._server = _ConnectionTrackingServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[0], self._server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ApiServer":
        """Serve in a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(POLL_INTERVAL_SECONDS,),
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def serve_forever(self) -> None:
        """Serve on the calling thread (blocks until interrupted)."""
        self._server.serve_forever(POLL_INTERVAL_SECONDS)

    def __enter__(self) -> "ApiServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
