"""Async explanation jobs: status machine and per-item progress.

An :class:`ExplainJob` is one submitted unit of work — a single
:class:`~repro.core.explain.ExplainRequest` or a batch of them — whose
items are executed concurrently by the
:class:`~repro.service.workers.WorkerPool`. The job object is the
synchronisation point between the submitting thread (REST handler, CLI,
``explain_batch(workers=...)``) and the worker threads: every mutation
happens under the job's lock, and :meth:`ExplainJob.wait` blocks on an
event set exactly once, when the last item is accounted for.

Status machine::

    PENDING ──> RUNNING ──> DONE        (all items accounted, no fatal error)
       │           │──────> FAILED      (an item raised outside ReproError)
       └───────────┴──────> CANCELLED   (cancel requested before completion)

Failure isolation: an item failing with a library
:class:`~repro.errors.ReproError` produces a per-item error response
(exactly like sequential ``explain_batch``) and does *not* fail the job.
Only an unexpected exception — a bug, not a bad request — marks the job
``FAILED``, and even then every other item still carries its result.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Sequence

from repro.core.explain import ExplainRequest, ExplainResponse
from repro.utils.validation import require


class JobStatus(str, Enum):
    """Lifecycle states of an :class:`ExplainJob`."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = frozenset(
    {JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED}
)

#: Per-item states reported in :meth:`ExplainJob.to_dict`.
ITEM_PENDING = "pending"
ITEM_DONE = "done"
ITEM_ERROR = "error"
ITEM_SKIPPED = "skipped"


class ExplainJob:
    """One submitted explanation job with thread-safe progress tracking.

    Workers drive the item protocol: :meth:`start_item` (returns whether
    the item should run, or be skipped because cancellation was
    requested) followed by :meth:`finish_item`. Each item is accounted
    exactly once; the call that accounts the final item finalises the
    job and wakes every waiter.
    """

    def __init__(
        self,
        job_id: str,
        requests: Sequence[ExplainRequest],
        priority=None,
    ):
        requests = tuple(requests)
        require(bool(requests), "a job needs at least one request")
        require(
            all(isinstance(r, ExplainRequest) for r in requests),
            "job items must be ExplainRequest instances",
        )
        self.job_id = job_id
        self.requests = requests
        #: The :class:`~repro.service.admission.Priority` the job was
        #: admitted at (None for jobs built outside the scheduler).
        self.priority = priority
        self.responses: list[ExplainResponse | None] = [None] * len(requests)
        self.status = JobStatus.PENDING
        self.error: str | None = None
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._cancel_requested = False
        self._accounted = 0
        self._items_done = 0
        self._items_skipped = 0
        self._fatal: str | None = None
        self._progress: dict[int, dict] = {}

    # -- introspection --------------------------------------------------------

    @property
    def items_total(self) -> int:
        return len(self.requests)

    @property
    def items_done(self) -> int:
        with self._lock:
            return self._items_done

    @property
    def cancel_requested(self) -> bool:
        with self._lock:
            return self._cancel_requested

    @property
    def duration_seconds(self) -> float | None:
        """Wall-clock from first item start to finalisation, if finished."""
        with self._lock:
            if self.started_at is None or self.finished_at is None:
                return None
            return self.finished_at - self.started_at

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal status; True if it did."""
        return self._finished.wait(timeout)

    # -- the worker-side item protocol ---------------------------------------
    #
    # Each item is accounted exactly once, by either skip_item or
    # finish_item; the accounting call that covers the final item
    # finalises the job and returns the terminal status (all other calls
    # return None), so the scheduler can bump its per-job counters
    # without re-inspecting shared state.

    def start_item(self, position: int) -> bool:
        """Claim item ``position``; False means skip it (cancel requested)."""
        with self._lock:
            if self.status is JobStatus.PENDING:
                self.status = JobStatus.RUNNING
                self.started_at = time.time()
            return not self._cancel_requested

    def skip_item(self, position: int) -> JobStatus | None:
        """Account item ``position`` as skipped (no response)."""
        with self._lock:
            self._items_skipped += 1
            return self._account_locked()

    def finish_item(
        self, position: int, response: ExplainResponse
    ) -> JobStatus | None:
        """Record the response for item ``position`` and account it."""
        with self._lock:
            self.responses[position] = response
            self._items_done += 1
            return self._account_locked()

    def update_progress(self, position: int, snapshot: dict) -> None:
        """Record a live search-progress snapshot for item ``position``.

        Published by the worker's per-item
        :class:`~repro.core.search.progress.ProgressSink` while the
        search runs; the last snapshot is kept after the item finishes
        so ``GET /jobs/{id}/progress`` stays informative post-hoc.
        """
        with self._lock:
            self._progress[position] = snapshot

    def note_fatal(self, error: Exception) -> None:
        """Record an unexpected (non-``ReproError``) item failure.

        The item still gets its error response via :meth:`finish_item`;
        this additionally marks the whole job ``FAILED`` at finalisation.
        """
        with self._lock:
            if self._fatal is None:
                self._fatal = f"{type(error).__name__}: {error}"

    def request_cancel(self) -> bool:
        """Ask the job to stop; returns False if it already finished.

        Items already running complete normally (their results are
        kept); items not yet started are skipped. The job finalises as
        ``CANCELLED`` once every item is accounted.
        """
        with self._lock:
            if self.status.terminal:
                return False
            self._cancel_requested = True
            return True

    def _account_locked(self) -> JobStatus | None:
        self._accounted += 1
        if self._accounted < len(self.requests):
            return None
        if self._cancel_requested:
            self.status = JobStatus.CANCELLED
        elif self._fatal is not None:
            self.status = JobStatus.FAILED
            self.error = self._fatal
        else:
            self.status = JobStatus.DONE
        self.finished_at = time.time()
        self._finished.set()
        return self.status

    # -- serialisation --------------------------------------------------------

    def _item_state(self, position: int) -> str:
        response = self.responses[position]
        if response is None:
            return ITEM_SKIPPED if self.status.terminal else ITEM_PENDING
        return ITEM_DONE if response.ok else ITEM_ERROR

    def to_dict(self, include_responses: bool = True) -> dict:
        """A JSON-ready snapshot (``GET /jobs/{id}`` payload).

        Responses of unfinished/skipped items serialise as ``None`` so
        the item list always aligns positionally with the requests.
        """
        with self._lock:
            payload = {
                "job_id": self.job_id,
                "status": self.status.value,
                "items_total": len(self.requests),
                "items_done": self._items_done,
                "items_skipped": self._items_skipped,
                "cancel_requested": self._cancel_requested,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
            }
            if self.error is not None:
                payload["error"] = self.error
            payload["items"] = [
                self._item_state(i) for i in range(len(self.requests))
            ]
            if include_responses:
                payload["responses"] = [
                    response.to_dict() if response is not None else None
                    for response in self.responses
                ]
        return payload

    def progress_dict(self) -> dict:
        """The ``GET /jobs/{id}/progress`` payload: the job summary plus
        each item's latest live search snapshot (None before its search
        first emits)."""
        payload = self.to_dict(include_responses=False)
        with self._lock:
            payload["priority"] = getattr(self.priority, "label", None)
            payload["progress"] = [
                self._progress.get(i) for i in range(len(self.requests))
            ]
        return payload
