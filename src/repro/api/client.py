"""Clients for the CREDENCE API.

:class:`InProcessClient` dispatches through a :class:`Router` without a
socket — the integration-test workhorse. :class:`HttpClient` speaks real
HTTP/1.1 to a running :class:`~repro.api.http.ApiServer` over one
kept-alive connection per calling thread, so a sequence of calls pays
for one TCP connection, not one each.

Both understand the serving-hardening surface: request headers
(``X-Client-Id``), the NDJSON streaming route (:meth:`post_stream`),
and — for :class:`HttpClient` — a :class:`RetryPolicy` that backs off
with jitter on 429/503 responses and connection failures, honouring the
server's ``Retry-After`` header. Retries default to **idempotent
methods only** (GET/DELETE): a timed-out POST may have executed, and
replaying it is the caller's decision (``retry_non_idempotent=True``),
not the transport's. Below the policy, a kept-alive connection that the
server has closed while idle is replaced once, transparently: it failed
before any response byte, so the server never read the request.
Response heads are read by the server's :func:`~repro.api.http.read_head`.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterator
from urllib.parse import urlsplit

from repro.api.http import (
    MAX_HEAD_LINE, HttpResponse, Request, Router, StreamingResponse, read_head,
)

#: Methods safe to replay without the caller opting in.
IDEMPOTENT_METHODS = frozenset({"GET", "DELETE"})


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with full jitter.

    ``max_attempts`` counts every try including the first; the delay
    before retry *n* is ``rng() * min(max_delay, base * 2**n)`` unless
    the server sent ``Retry-After``, which wins (capped at
    ``max_delay_seconds`` — the server's estimate is honest, but the
    client's patience is bounded).
    """

    max_attempts: int = 3
    base_delay_seconds: float = 0.1
    max_delay_seconds: float = 5.0
    retry_statuses: frozenset = frozenset({429, 503})
    retry_non_idempotent: bool = False

    def retries(self, method: str) -> bool:
        return (
            self.max_attempts > 1
            and (
                method.upper() in IDEMPOTENT_METHODS
                or self.retry_non_idempotent
            )
        )

    def delay_seconds(
        self,
        attempt: int,
        retry_after: float | None = None,
        rng: Callable[[], float] = random.random,
    ) -> float:
        if retry_after is not None:
            return min(self.max_delay_seconds, max(0.0, retry_after))
        ceiling = min(
            self.max_delay_seconds, self.base_delay_seconds * (2**attempt)
        )
        return rng() * ceiling


#: The policy :class:`HttpClient` uses when none is given.
DEFAULT_RETRY_POLICY = RetryPolicy()


def _retry_after_seconds(response: HttpResponse) -> float | None:
    raw = response.headers.get("retry-after") or response.headers.get(
        "Retry-After"
    )
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


class InProcessClient:
    """Calls a router directly, bypassing the network stack."""

    def __init__(self, router: Router):
        self._router = router

    def get(
        self,
        path: str,
        query_params: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
    ) -> HttpResponse:
        request = Request(
            method="GET",
            path=path,
            query_params=dict(query_params or {}),
            headers=dict(headers or {}),
        )
        return self._router.dispatch(request)

    def post(
        self,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> HttpResponse:
        # Round-trip through JSON so tests exercise serialisability too.
        normalized = json.loads(json.dumps(body)) if body is not None else None
        request = Request(
            method="POST",
            path=path,
            body=normalized,
            headers=dict(headers or {}),
        )
        return self._router.dispatch(request)

    def delete(
        self, path: str, headers: dict[str, str] | None = None
    ) -> HttpResponse:
        request = Request(
            method="DELETE", path=path, headers=dict(headers or {})
        )
        return self._router.dispatch(request)

    def post_stream(
        self,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> Iterator[dict]:
        """POST to a streaming route; yields chunk dicts as produced.

        A refusal before the stream starts (429/503/400) is yielded as a
        single ``{"event": "rejected", "status": ..., ...}`` chunk so
        callers consume one shape either way.
        """
        normalized = json.loads(json.dumps(body)) if body is not None else None
        request = Request(
            method="POST",
            path=path,
            body=normalized,
            headers=dict(headers or {}),
        )
        response = self._router.dispatch(request)
        if isinstance(response, StreamingResponse):
            yield from response.chunks
            return
        yield {
            "event": "rejected",
            "status": response.status,
            "headers": dict(response.headers),
            **(response.payload if isinstance(response.payload, dict) else {}),
        }


#: What ``http.client`` refuses to send: a control character or space in
#: the target (CVE-2019-9740), a bad field name, or a CR or LF that would
#: start a new line in a field's value.
_BAD_TARGET = re.compile(r"[\x00-\x20\x7f]").search
_FIELD_NAME = re.compile(r"[^:\s][^:\r\n]*").fullmatch
_BAD_VALUE = re.compile(r"\n(?![ \t])|\r(?![ \t\n])").search
#: A chunk's size in hex, before any chunk extension.
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}").match


class _WithReader:
    """An ``http.client`` connection that reads every response through
    one buffered reader, opened and closed with its socket."""

    reader = None

    def connect(self) -> None:
        super().connect()
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()  # closing twice is harmless
        super().close()


class _Connection(_WithReader, http.client.HTTPConnection):
    pass


class _TlsConnection(_WithReader, http.client.HTTPSConnection):
    pass


def _read_exactly(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data


def _chunks(reader) -> Iterator[bytes]:
    """The data of each chunk of a chunked body; the trailer is dropped."""
    while True:
        line = reader.readline(MAX_HEAD_LINE + 1)
        if len(line) > MAX_HEAD_LINE:
            raise http.client.LineTooLong("chunk size")
        if (size := _CHUNK_SIZE(line)) is None:
            raise http.client.IncompleteRead(b"")
        if not (size := int(size[0], 16)):
            break
        yield _read_exactly(reader, size + 2)[:-2]  # the data, then CRLF
    read_head(reader)


class _ResponseHead:
    """A response's status and head, read past any 1xx response, and how
    its body ends: at once (204, 304), after the last chunk, after
    ``Content-Length`` bytes, or with the connection. ``close`` says
    whether the connection ends with this response."""

    __slots__ = ("status", "headers", "chunked", "length", "close")

    def __init__(self, reader):
        self.status = 100
        while self.status < 200:  # 100 Continue, 103 Early Hints, ...
            version = self._read_status(reader)
            self.headers = headers = read_head(reader)
        self.chunked = headers.get("transfer-encoding", "").lower() == "chunked"
        length = headers.get("content-length", "")
        self.length = int(length) if length.isdecimal() and not self.chunked else None
        if self.status in (204, 304):
            self.chunked, self.length = False, 0
        connection = headers.get("connection", "").lower()
        if version in ("HTTP/1.0", "HTTP/0.9"):
            self.close = "keep-alive" not in connection and "keep-alive" not in headers
        else:
            self.close = "close" in connection
        # a body without a length ends where the connection does
        self.close |= self.length is None and not self.chunked

    def _read_status(self, reader) -> str:
        """Read a status line into ``status``, refused as ``http.client``
        refuses it; return its version."""
        line = str(reader.readline(MAX_HEAD_LINE + 1), "latin-1")
        if len(line) > MAX_HEAD_LINE:
            raise http.client.LineTooLong("status line")
        if not line:
            raise http.client.RemoteDisconnected("closed without a response")
        version, status, *_ = line.split(None, 2) + ["", ""]
        self.status = int(status) if status.isdecimal() else 0
        if not version.startswith("HTTP/") or not 100 <= self.status <= 999:
            raise http.client.BadStatusLine(line)
        if not version.startswith("HTTP/1.") and version != "HTTP/0.9":
            raise http.client.UnknownProtocol(version)
        return version

    def body(self, reader) -> bytes:
        if self.chunked:
            return b"".join(_chunks(reader))
        if self.length is None:
            return reader.read()
        return _read_exactly(reader, self.length)


class _Idle:
    """A thread's kept-alive connection, closed (its socket and its
    reader) when the thread ends (its thread-local storage goes, and this
    with it) or the client closes."""

    __slots__ = ("connection", "__weakref__")

    def __init__(self):
        self.connection: _Connection | None = None

    def close(self) -> None:
        connection, self.connection = self.connection, None
        if connection is not None:
            connection.close()

    __del__ = close


class HttpClient:
    """A tiny JSON HTTP client for a live server, with bounded retries.

    Each calling thread keeps one connection alive across :meth:`get`,
    :meth:`post`, :meth:`delete` and :meth:`post_stream`; a path prefix in
    the base URL is kept. ``http.client`` only opens the connection
    (``HTTPSConnection`` for an ``https://`` base URL, so it does TLS and
    ``TCP_NODELAY``); each request then leaves in one ``sendall``, head and
    body together, and every response is read through the connection's
    one buffered reader. When a *reused* connection fails before any
    response byte arrives — the server closed it while idle — the request
    goes once more on a fresh connection; a failure on a fresh connection
    is the :class:`RetryPolicy`'s to handle. Any other error closes the
    thread's connection. A thread's connection closes when the thread
    ends; :meth:`close` (or leaving a ``with`` block) closes the rest.

    ``transport``, ``sleep`` and ``rng`` are injectable so the retry
    loop is deterministic under test; the default transport is the
    kept-alive connection.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Callable[[], float] = random.random,
        transport: Callable[..., HttpResponse] | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self._sleep = sleep
        self._rng = rng
        self._transport = transport if transport is not None else self._send
        self._url = urlsplit(self.base_url)
        if self._url.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme in {base_url!r}")
        # Host as http.client writes it: the port only when not the default
        host, port = self._url.hostname, self._url.port
        host = host if host.isascii() else host.encode("idna").decode()
        host = f"[{host}]" if ":" in host else host
        https = self._url.scheme == "https"
        self._host = host if port in (None, 443 if https else 80) else f"{host}:{port}"
        self._connection_class = _TlsConnection if https else _Connection
        self._local = threading.local()
        self._idles: weakref.WeakSet[_Idle] = weakref.WeakSet()

    def close(self) -> None:
        """Close every idle connection; a later call opens a new one."""
        for idle in list(self._idles):
            idle.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _idle(self) -> _Idle:
        """This thread's idle-connection slot."""
        idle = getattr(self._local, "idle", None)
        if idle is None:
            idle = self._local.idle = _Idle()
            self._idles.add(idle)
        return idle

    def _connect(self) -> http.client.HTTPConnection:
        """A new, not yet opened connection to the server."""
        url = self._url
        return self._connection_class(url.hostname, url.port, timeout=self.timeout)

    def _message(
        self,
        method: str,
        path: str,
        body: Any,
        headers: dict[str, str] | None,
        accept: str,
    ) -> bytes:
        """The request line, head and body ``http.client`` would send for
        this call, in one ``bytes``. What it refuses raises here, before
        any connection opens: ``InvalidURL`` for a control character or
        space in the target, ``ValueError`` for a bad field."""
        target = self._url.path + path
        if _BAD_TARGET(target):
            raise http.client.InvalidURL(f"control character in URL {target!r}")
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        fields = {"Accept": accept, **(headers or {})}
        implied = {"Host": self._host, "Accept-Encoding": "identity"}
        if body is not None:
            fields["Content-Type"] = "application/json"
        if body is not None or method == "POST":
            implied["Content-Length"] = len(data)
        names = {name.lower() for name in fields}  # the caller's win
        head = [f"{k}: {v}" for k, v in implied.items() if k.lower() not in names]
        for name, value in fields.items():
            if not (name.isascii() and _FIELD_NAME(name)) or _BAD_VALUE(value):
                raise ValueError(f"invalid header field {name!r}: {value!r}")
            head.append(f"{name}: {value}")
        line = f"{method} {target} HTTP/1.1\r\n".encode("ascii")
        return line + "\r\n".join([*head, "\r\n"]).encode("latin-1") + data

    def _exchange(self, message: bytes) -> tuple[_Connection, _ResponseHead]:
        """Send one request and read the response's status and head.

        The caller reads the body and then hands the connection on with
        :meth:`_release`, or closes it.
        """
        # Take this thread's idle connection; while a stream holds it,
        # the slot is empty and this request opens its own.
        idle = self._idle()
        connection = idle.connection or self._connect()
        idle.connection = None
        while True:
            reused = connection.sock is not None
            try:
                if not reused:
                    connection.connect()
                connection.sock.sendall(message)
                return connection, _ResponseHead(connection.reader)
            except (ConnectionResetError, BrokenPipeError):
                # How a connection the server closed while idle fails:
                # the request could not be sent, or the connection ended
                # before any response byte (``RemoteDisconnected`` is a
                # ``ConnectionResetError``).
                connection.close()
                if not reused:
                    raise
                # the next pass opens a fresh socket, so this runs once
            except BaseException:
                connection.close()
                raise

    def _release(self, connection: _Connection, head: _ResponseHead) -> None:
        """After a whole response, keep ``connection`` as this thread's
        idle one; close it when the response ends it, or when a call made
        during a stream already filled the slot."""
        idle = self._idle()
        if head.close or idle.connection is not None:
            connection.close()
        else:
            idle.connection = connection

    def _finish(self, connection: _Connection, head: _ResponseHead) -> HttpResponse:
        """Read the body of ``head``'s response and release ``connection``."""
        try:
            text = head.body(connection.reader).decode("utf-8")
        except BaseException:
            connection.close()
            raise
        self._release(connection, head)
        # Non-JSON bodies (Prometheus exposition) come back as the raw
        # string payload.
        is_json = head.headers.get("content-type", "").startswith("application/json")
        payload = json.loads(text) if is_json else text
        return HttpResponse(head.status, payload, headers=head.headers)

    def _send(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> HttpResponse:
        """One HTTP exchange; 4xx/5xx come back as responses, transport
        failures raise (``OSError`` or ``http.client.HTTPException``)."""
        message = self._message(method, path, body, headers, "application/json")
        return self._finish(*self._exchange(message))

    def _request(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> HttpResponse:
        retryable = self.retry.retries(method)
        attempts = self.retry.max_attempts if retryable else 1
        last_error: Exception | None = None
        response: HttpResponse | None = None
        for attempt in range(attempts):
            try:
                response = self._transport(method, path, body, headers)
                last_error = None
            except (OSError, http.client.HTTPException) as error:
                # Connection-level failure: nothing reached the server
                # (or the reply was lost) — retryable for idempotent
                # methods only.
                last_error = error
                response = None
            if (
                response is not None
                and response.status not in self.retry.retry_statuses
            ):
                return response
            if attempt + 1 >= attempts:
                break
            retry_after = (
                _retry_after_seconds(response) if response is not None else None
            )
            self._sleep(
                self.retry.delay_seconds(attempt, retry_after, self._rng)
            )
        if response is not None:
            return response
        assert last_error is not None
        raise last_error

    def get(
        self, path: str, headers: dict[str, str] | None = None
    ) -> HttpResponse:
        return self._request("GET", path, headers=headers)

    def post(
        self,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> HttpResponse:
        return self._request("POST", path, body, headers=headers)

    def delete(
        self, path: str, headers: dict[str, str] | None = None
    ) -> HttpResponse:
        return self._request("DELETE", path, headers=headers)

    def post_stream(
        self,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> Iterator[dict]:
        """POST to a streaming route; yields each NDJSON line as soon as
        the chunk that ends it arrives. Never retried by the policy — a
        stream is not idempotent once partially consumed. A pre-stream
        refusal is yielded as one ``{"event": "rejected", ...}`` chunk.

        The stream holds this thread's connection until it is exhausted
        (a call made meanwhile opens its own); closing the generator
        early closes the connection.
        """
        message = self._message("POST", path, body, headers, "application/x-ndjson")
        connection, head = self._exchange(message)
        if not 200 <= head.status < 300:
            refusal = self._finish(connection, head)
            payload = refusal.payload
            yield {
                "event": "rejected",
                "status": refusal.status,
                "headers": refusal.headers,
                **(payload if isinstance(payload, dict) else {}),
            }
            return
        reader = connection.reader
        try:
            rest = b""
            for data in _chunks(reader) if head.chunked else (head.body(reader),):
                *lines, rest = (rest + data).split(b"\n")
                for line in lines:
                    if line.strip():
                        yield json.loads(line)
            if rest.strip():
                yield json.loads(rest)
        except BaseException:
            connection.close()
            raise
        self._release(connection, head)
