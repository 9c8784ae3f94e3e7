"""Clients for the CREDENCE API.

:class:`InProcessClient` dispatches through a :class:`Router` without a
socket — the integration-test workhorse. :class:`HttpClient` speaks real
HTTP to a running :class:`~repro.api.http.ApiServer` over one kept-alive
``http.client`` connection per calling thread, so a sequence of calls
pays for one TCP connection, not one each.

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
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterator
from urllib.parse import urlsplit

from repro.api.http import HttpResponse, Request, Router, StreamingResponse, read_head

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


class _Response(http.client.HTTPResponse):
    """An ``http.client`` response whose head :func:`read_head` reads
    into ``headers``, a dict keyed by lower-cased name."""

    def begin(self) -> None:
        if self.headers is not None:
            return  # already begun
        version, status, reason = self._read_status()
        while status == http.client.CONTINUE:
            read_head(self.fp)
            version, status, reason = self._read_status()
        if not version.startswith("HTTP/1.") and version != "HTTP/0.9":
            raise http.client.UnknownProtocol(version)
        self.code = self.status = status
        self.reason = reason.strip()
        self.version = 10 if version in ("HTTP/1.0", "HTTP/0.9") else 11
        self.headers = self.msg = read_head(self.fp)
        self.chunked = self.headers.get("transfer-encoding", "").lower() == "chunked"
        self.chunk_left = None
        self.will_close = self._check_close()
        length = self.headers.get("content-length", "")
        self.length = int(length) if length.isdecimal() and not self.chunked else None
        if status in (204, 304) or status < 200 or self._method == "HEAD":
            self.length = 0
        if self.length is None and not self.chunked:
            self.will_close = True  # the body ends where the connection does


class _Idle:
    """A thread's kept-alive connection, closed when the thread ends (its
    thread-local storage goes, and this with it) or the client closes."""

    __slots__ = ("connection", "__weakref__")

    def __init__(self):
        self.connection: http.client.HTTPConnection | None = None

    def close(self) -> None:
        connection, self.connection = self.connection, None
        if connection is not None:
            connection.close()

    __del__ = close


class HttpClient:
    """A tiny JSON HTTP client for a live server, with bounded retries.

    Each calling thread keeps one ``http.client`` connection alive across
    :meth:`get`, :meth:`post`, :meth:`delete` and :meth:`post_stream`
    (``HTTPSConnection`` for an ``https://`` base URL; a path prefix in
    the base URL is kept). When a *reused* connection fails before any
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
        connection_class = (
            http.client.HTTPSConnection
            if self._url.scheme == "https"
            else http.client.HTTPConnection
        )
        connection = connection_class(
            self._url.hostname, self._url.port, timeout=self.timeout
        )
        connection.response_class = _Response
        return connection

    def _put_back(self, connection: http.client.HTTPConnection) -> None:
        """Keep ``connection`` as this thread's idle one, or close it
        when a call made during a stream already filled the slot."""
        idle = self._idle()
        if idle.connection is None:
            idle.connection = connection
        else:
            connection.close()

    def _exchange(
        self,
        method: str,
        path: str,
        body: Any,
        headers: dict[str, str] | None,
        accept: str,
    ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request and read the response head.

        The caller reads the body and then hands the connection back
        with :meth:`_put_back`, or closes it.
        """
        request_headers = {"Accept": accept, **(headers or {})}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            request_headers["Content-Type"] = "application/json"
        # Take this thread's idle connection; while a stream holds it,
        # the slot is empty and this request opens its own.
        idle = self._idle()
        connection = idle.connection or self._connect()
        idle.connection = None
        while True:
            reused = connection.sock is not None
            try:
                connection.request(
                    method, self._url.path + path, data, request_headers
                )
                return connection, connection.getresponse()
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

    def _finish(
        self,
        connection: http.client.HTTPConnection,
        raw: http.client.HTTPResponse,
    ) -> HttpResponse:
        """Read the rest of ``raw`` and hand ``connection`` back."""
        try:
            text = raw.read().decode("utf-8")
        except BaseException:
            connection.close()
            raise
        self._put_back(connection)
        # Non-JSON bodies (Prometheus exposition) come back as the raw
        # string payload.
        content_type = raw.headers.get("content-type", "")
        payload = (
            json.loads(text)
            if content_type.startswith("application/json")
            else text
        )
        return HttpResponse(raw.status, payload, headers=raw.headers)

    def _send(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> HttpResponse:
        """One HTTP exchange; 4xx/5xx come back as responses, transport
        failures raise (``OSError`` or ``http.client.HTTPException``)."""
        return self._finish(
            *self._exchange(method, path, body, headers, "application/json")
        )

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
        """POST to a streaming route; yields NDJSON chunks as they
        arrive (``http.client`` decodes the chunked framing; lines arrive
        as the server sends them). Never retried by the policy — a
        stream is not idempotent once partially consumed. A pre-stream
        refusal is yielded as one ``{"event": "rejected", ...}`` chunk.

        The stream holds this thread's connection until it is exhausted
        (a call made meanwhile opens its own); closing the generator
        early closes the connection.
        """
        connection, raw = self._exchange(
            "POST", path, body, headers, "application/x-ndjson"
        )
        if not 200 <= raw.status < 300:
            refusal = self._finish(connection, raw)
            payload = refusal.payload
            yield {
                "event": "rejected",
                "status": refusal.status,
                "headers": refusal.headers,
                **(payload if isinstance(payload, dict) else {}),
            }
            return
        try:
            for line in raw:
                line = line.strip()
                if line:
                    yield json.loads(line)
        except BaseException:
            connection.close()
            raise
        self._put_back(connection)
