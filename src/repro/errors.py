"""Exception hierarchy for the repro (CREDENCE reproduction) library.

All library-raised errors derive from :class:`ReproError` so callers can
catch one base class at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class DocumentNotFoundError(ReproError, KeyError):
    """A document id was requested that the index/corpus does not contain."""

    def __init__(self, doc_id: str):
        super().__init__(doc_id)
        self.doc_id = doc_id

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return f"unknown document id: {self.doc_id!r}"


class TermNotFoundError(ReproError, KeyError):
    """A term was requested that the vocabulary/index does not contain."""

    def __init__(self, term: str):
        super().__init__(term)
        self.term = term

    def __str__(self) -> str:
        return f"unknown term: {self.term!r}"


class IndexStateError(ReproError):
    """The index was used in an invalid state (e.g. searching an empty index)."""


class IndexFormatError(ReproError, ValueError):
    """An index file is in an unknown, corrupt, or incompatible format.

    Raised by the persistence layer (:mod:`repro.index.storage` and
    :mod:`repro.index.persist`) for any path that is not a committed v3
    index — a JSON file, a foreign SQLite database, a corrupt manifest or
    segment — instead of leaking ``sqlite3`` errors; the CLI maps it to
    exit code 2 and the REST layer to HTTP 400. Subclasses
    ``ValueError`` for callers that catch bad input generically.
    """


class ReadOnlyIndexError(ReproError):
    """A mutation was attempted on a read-only (mmap-attached) index.

    The packed v3 view (:class:`~repro.index.persist.PackedShardedIndex`
    and its per-segment :class:`~repro.index.persist.PackedIndex` shards)
    and replica mode serve directly from on-disk segments; to change the
    corpus, hydrate a mutable :class:`~repro.index.sharding.ShardedIndex`
    (``load_index(path, mode="memory")``), mutate it, and commit a new
    generation with ``save_index``.
    """

    def __init__(self, operation: str):
        super().__init__(
            f"cannot {operation}: this index is a read-only view of an "
            "on-disk v3 index (hydrate with load_index(path, "
            "mode='memory') to get a mutable copy)"
        )
        self.operation = operation


class RankingError(ReproError):
    """A ranking operation failed (e.g. ranking over an empty candidate set)."""


class UnknownStrategyError(ConfigurationError):
    """An explanation strategy name is not registered.

    Carries the requested name and the registered alternatives so API
    layers can render an actionable message.
    """

    def __init__(self, strategy: str, known: tuple[str, ...] = ()):
        known = tuple(known)
        message = f"unknown explanation strategy: {strategy!r}"
        if known:
            message += f" (registered: {', '.join(known)})"
        super().__init__(message)
        self.strategy = strategy
        self.known = known


class StrategyUnavailableError(ConfigurationError):
    """A registered strategy cannot run against the current engine.

    Example: ``features/ltr`` requires the engine's ranker to be an
    :class:`~repro.ltr.ranker.LtrRanker`.
    """

    def __init__(self, strategy: str, reason: str):
        super().__init__(f"strategy {strategy!r} is unavailable: {reason}")
        self.strategy = strategy
        self.reason = reason


class ExplanationBudgetExceeded(ReproError):
    """A counterfactual search exhausted its ranker-call budget.

    Carries the partial results discovered before the budget ran out so
    callers can degrade gracefully.
    """

    def __init__(self, message: str, partial_results=None):
        super().__init__(message)
        self.partial_results = list(partial_results or [])


class PoolShutdownError(ConfigurationError):
    """A task was submitted to a :class:`~repro.service.workers.WorkerPool`
    after :meth:`~repro.service.workers.WorkerPool.shutdown`.

    Subclasses :class:`ConfigurationError` so pre-existing callers keep
    working; the REST layer maps it to 503 and the CLI to exit code 2.
    """


class AdmissionError(ReproError):
    """A request was refused by admission control before any work ran.

    Carries ``retry_after_seconds`` — the server's estimate of when a
    retry is worth attempting (the REST layer emits it as a
    ``Retry-After`` header). Subclasses say *why*: rate limit, full
    queue, open circuit breaker, or a draining service.
    """

    def __init__(self, message: str, retry_after_seconds: float | None = None):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class RateLimitedError(AdmissionError):
    """The per-client token bucket is empty (REST 429)."""


class QueueFullError(AdmissionError):
    """The worker queue is at its depth bound; load was shed (REST 429)."""


class CircuitOpenError(AdmissionError):
    """The worker circuit breaker is open after a failure spike (REST 503)."""


class ServiceDrainingError(AdmissionError):
    """The service is draining for shutdown; no new work is admitted
    (REST 503)."""


class JobNotFoundError(ReproError, KeyError):
    """An explanation-job id was requested that the service is not tracking.

    Raised by :meth:`repro.service.scheduler.ExplanationService.job`;
    the REST layer maps it to 404.
    """

    def __init__(self, job_id: str):
        super().__init__(job_id)
        self.job_id = job_id

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return f"unknown job id: {self.job_id!r}"


class TrainingError(ReproError):
    """A model (embedding, LDA, neural ranker) failed to train."""


class ApiError(ReproError):
    """Base class for errors surfaced through the REST layer."""

    status_code = 500

    def to_payload(self) -> dict:
        return {"error": type(self).__name__, "detail": str(self)}


class BadRequestError(ApiError):
    """The request payload failed validation."""

    status_code = 400


class NotFoundError(ApiError):
    """The requested route or resource does not exist."""

    status_code = 404


class RetryableApiError(ApiError):
    """An API error the client should retry later.

    ``retry_after_seconds`` (when known) is emitted as a ``Retry-After``
    header so well-behaved clients — including
    :class:`repro.api.client.HttpClient` — back off by the server's own
    estimate instead of guessing.
    """

    def __init__(self, message: str, retry_after_seconds: float | None = None):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds

    def to_headers(self) -> dict:
        if self.retry_after_seconds is None:
            return {}
        # Retry-After is delta-seconds; round up so "0.3s from now" is
        # never served as "retry immediately".
        import math

        return {"Retry-After": str(max(1, math.ceil(self.retry_after_seconds)))}


class TooManyRequestsError(RetryableApiError):
    """Admission control shed this request (rate limit or full queue)."""

    status_code = 429


class ServiceUnavailableError(RetryableApiError):
    """The service cannot take work right now (circuit open, draining,
    or shut down)."""

    status_code = 503
