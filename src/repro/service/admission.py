"""Admission control for the explanation service.

The serving layer's overload discipline lives here, in four composable
pieces orchestrated by :class:`AdmissionController`:

* :class:`TokenBucket` / :class:`RateLimiter` — per-client request-rate
  limiting (bounded client table, LRU-evicted);
* bounded **queue-depth load shedding** — a request that would push the
  worker queue past its bound is refused *before* it is queued
  (shed-before-queue: a 429 now beats a 200 after a deadline has made
  the answer useless), with ``Retry-After`` derived from the observed
  p95 item latency and the current backlog;
* :class:`CircuitBreaker` — trips open when the worker failure rate
  spikes, fails fast while open, and probes its way back closed through
  a half-open state;
* :class:`Priority` — interactive traffic dequeues ahead of batch
  traffic in the :class:`~repro.service.workers.WorkerPool`.

Every clock is injectable so each policy is testable deterministically;
nothing here sleeps or starts threads. Refusals are typed
(:class:`~repro.errors.RateLimitedError`,
:class:`~repro.errors.QueueFullError`,
:class:`~repro.errors.CircuitOpenError`) and carry
``retry_after_seconds`` for the REST layer's ``Retry-After`` header.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    QueueFullError,
    RateLimitedError,
)
from repro.utils.validation import require_positive

#: Client id used when a request carries none (anonymous traffic shares
#: one bucket rather than escaping rate limiting entirely).
ANONYMOUS_CLIENT = "anonymous"


class Priority(IntEnum):
    """Request priorities; lower values dequeue first."""

    INTERACTIVE = 0
    BATCH = 1

    @property
    def label(self) -> str:
        return self.name.lower()


#: Priority parsed from REST/CLI strings.
PRIORITY_NAMES = {p.label: p for p in Priority}


def parse_priority(value) -> Priority:
    """Normalise a priority given as enum, int, or name string."""
    if isinstance(value, Priority):
        return value
    if isinstance(value, str) and value.lower() in PRIORITY_NAMES:
        return PRIORITY_NAMES[value.lower()]
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            return Priority(value)
        except ValueError:
            pass
    raise ConfigurationError(
        f"priority must be one of {sorted(PRIORITY_NAMES)}, got {value!r}"
    )


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Not thread-safe on its own — :class:`RateLimiter` serialises access.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        require_positive(rate, "rate")
        require_positive(burst, "burst")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available; returns 0.0 on success, else the
        seconds until enough tokens will have refilled."""
        now = self._clock()
        self._refill(now)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return 0.0
        return (tokens - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        self._refill(self._clock())
        return self._tokens


class RateLimiter:
    """Per-client token buckets with a bounded, LRU-evicted client table.

    The table bound matters under adversarial traffic: without it, a
    client-id-per-request flood grows the limiter without limit. An
    evicted client simply starts over with a full bucket — strictly more
    permissive, never less.
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        max_clients: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ):
        require_positive(rate, "rate")
        require_positive(max_clients, "max_clients")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        require_positive(self.burst, "burst")
        self.max_clients = max_clients
        self._clock = clock
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._lock = threading.Lock()

    def check(self, client_id: str | None) -> None:
        """Charge one request to ``client_id``; raises
        :class:`~repro.errors.RateLimitedError` when the bucket is empty."""
        client = client_id or ANONYMOUS_CLIENT
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, self._clock)
                self._buckets[client] = bucket
                while len(self._buckets) > self.max_clients:
                    self._buckets.popitem(last=False)
            self._buckets.move_to_end(client)
            wait = bucket.try_acquire()
        if wait > 0.0:
            raise RateLimitedError(
                f"client {client!r} exceeded {self.rate:g} requests/s "
                f"(burst {self.burst:g})",
                retry_after_seconds=wait,
            )

    @property
    def client_count(self) -> int:
        with self._lock:
            return len(self._buckets)


#: Circuit-breaker states (reported verbatim in ``GET /metrics``).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Trips open when the recent worker failure rate spikes.

    Outcomes are recorded into a sliding window of the last ``window``
    item executions; once at least ``min_samples`` outcomes are present
    and the failure fraction reaches ``failure_threshold``, the breaker
    opens: every admission check fails fast with
    :class:`~repro.errors.CircuitOpenError` for ``cooldown_seconds``.
    After the cooldown one probe request is admitted (half-open); its
    success closes the breaker and clears the window, its failure
    re-opens it for another cooldown.

    Only *unexpected* failures should be recorded — a per-item
    :class:`~repro.errors.ReproError` is a bad request, not a sick
    worker, and must not trip the breaker.
    """

    def __init__(
        self,
        failure_threshold: float = 0.5,
        min_samples: int = 10,
        window: int = 64,
        cooldown_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigurationError(
                "failure_threshold must be in (0, 1], got "
                f"{failure_threshold!r}"
            )
        require_positive(min_samples, "min_samples")
        require_positive(window, "window")
        require_positive(cooldown_seconds, "cooldown_seconds")
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._lock = threading.Lock()
        self._state = CLOSED
        self._opened_at: float | None = None
        self._probe_in_flight = False
        self.trips = 0

    # -- outcome recording (worker side) ---------------------------------------

    def record_success(self) -> None:
        with self._lock:
            if self._state in (OPEN, HALF_OPEN):
                # The probe (or straggling in-flight work) succeeded.
                self._state = CLOSED
                self._opened_at = None
                self._probe_in_flight = False
                self._outcomes.clear()
                return
            self._outcomes.append(True)

    def record_failure(self) -> None:
        with self._lock:
            now = self._clock()
            if self._state in (OPEN, HALF_OPEN):
                # The probe failed: restart the cooldown.
                self._state = OPEN
                self._opened_at = now
                self._probe_in_flight = False
                return
            self._outcomes.append(False)
            failures = sum(1 for ok in self._outcomes if not ok)
            if (
                len(self._outcomes) >= self.min_samples
                and failures / len(self._outcomes) >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = now
                self.trips += 1

    # -- admission side --------------------------------------------------------

    def check(self) -> None:
        """Raise :class:`~repro.errors.CircuitOpenError` unless a request
        may proceed (always true when closed; one probe when half-open)."""
        with self._lock:
            if self._state == CLOSED:
                return
            now = self._clock()
            # Explicit None check: an _opened_at of exactly 0.0 (a fake
            # clock's epoch) is a real timestamp, not "unset".
            elapsed = (
                now - self._opened_at if self._opened_at is not None else 0.0
            )
            if elapsed >= self.cooldown_seconds and not self._probe_in_flight:
                self._state = HALF_OPEN
                self._probe_in_flight = True
                return  # this request is the probe
            remaining = max(0.0, self.cooldown_seconds - elapsed)
        raise CircuitOpenError(
            "circuit breaker is open after a worker failure spike",
            retry_after_seconds=remaining or self.cooldown_seconds,
        )

    @property
    def state(self) -> str:
        with self._lock:
            return self._state


@dataclass(frozen=True)
class AdmissionDecision:
    """What one admitted request was told (for logging/metrics)."""

    client_id: str
    priority: Priority


class AdmissionController:
    """Shed-before-queue admission for one
    :class:`~repro.service.scheduler.ExplanationService`.

    Checks run cheapest-refusal first and *before* any work is enqueued:

    1. circuit breaker (503 while open — the workers are sick; queueing
       more work on them helps no one);
    2. per-client rate limit (429 + ``Retry-After`` from the bucket's
       own refill estimate);
    3. queue-depth bound for queueing requests (429 + ``Retry-After``
       derived from the observed p95 item latency × backlog per worker
       — the server's honest estimate of when capacity will exist).

    ``max_queue_depth=None`` disables shedding, ``rate_limiter=None``
    disables rate limiting, ``breaker=None`` disables the circuit
    breaker — each policy is independently optional.
    """

    def __init__(
        self,
        rate_limiter: RateLimiter | None = None,
        max_queue_depth: int | None = None,
        breaker: CircuitBreaker | None = None,
        min_retry_after_seconds: float = 0.5,
        max_retry_after_seconds: float = 60.0,
    ):
        if max_queue_depth is not None:
            require_positive(max_queue_depth, "max_queue_depth")
        self.rate_limiter = rate_limiter
        self.max_queue_depth = max_queue_depth
        self.breaker = breaker
        self.min_retry_after_seconds = min_retry_after_seconds
        self.max_retry_after_seconds = max_retry_after_seconds

    def _backlog_retry_after(
        self, queue_depth: int, workers: int, p95_seconds: float
    ) -> float:
        """Seconds until the current backlog should have drained."""
        per_item = p95_seconds if p95_seconds > 0.0 else 0.1
        estimate = per_item * (queue_depth / max(1, workers))
        return min(
            self.max_retry_after_seconds,
            max(self.min_retry_after_seconds, estimate),
        )

    def admit(
        self,
        client_id: str | None = None,
        priority: Priority = Priority.INTERACTIVE,
        *,
        queue_depth: int = 0,
        enqueue_items: int = 0,
        workers: int = 1,
        p95_seconds: float | Callable[[], float] = 0.0,
    ) -> AdmissionDecision:
        """Admit or refuse one request.

        ``enqueue_items`` is how many pool tasks the request would add
        (0 for a synchronous request that runs in the caller's thread);
        ``queue_depth``/``workers``/``p95_seconds`` describe the pool so
        the shed path can compute an honest ``Retry-After``. A callable
        ``p95_seconds`` is called on the shed path only.
        """
        if self.breaker is not None:
            self.breaker.check()
        if self.rate_limiter is not None:
            self.rate_limiter.check(client_id)
        if (
            self.max_queue_depth is not None
            and enqueue_items > 0
            and queue_depth + enqueue_items > self.max_queue_depth
        ):
            raise QueueFullError(
                f"queue depth {queue_depth} + {enqueue_items} item(s) would "
                f"exceed the {self.max_queue_depth}-task bound; load shed",
                retry_after_seconds=self._backlog_retry_after(
                    queue_depth,
                    workers,
                    p95_seconds() if callable(p95_seconds) else p95_seconds,
                ),
            )
        return AdmissionDecision(
            client_id=client_id or ANONYMOUS_CLIENT, priority=priority
        )

    def describe(self) -> dict:
        """A JSON-ready config/state summary for ``GET /metrics``."""
        return {
            "rate_limit_per_client": (
                None if self.rate_limiter is None else self.rate_limiter.rate
            ),
            "rate_burst": (
                None if self.rate_limiter is None else self.rate_limiter.burst
            ),
            "max_queue_depth": self.max_queue_depth,
            "circuit_breaker": (
                None if self.breaker is None else self.breaker.state
            ),
        }
