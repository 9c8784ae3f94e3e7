"""The explanation service: store-backed execution over a worker pool.

:class:`ExplanationService` is the serving layer above
:class:`~repro.core.engine.CredenceEngine`:

* **sync** — :meth:`explain` runs one request through the version-keyed
  :class:`~repro.service.store.ResultStore` (repeated queries hit
  cache; corpus mutations invalidate automatically via the index
  version in the key);
* **parallel batch** — :meth:`run_batch` fans the items of one batch
  out across the :class:`~repro.service.workers.WorkerPool` and blocks
  for the assembled, order-preserving responses (this is what
  ``engine.explain_batch(workers=...)`` delegates to);
* **async jobs** — :meth:`submit` returns an
  :class:`~repro.service.jobs.ExplainJob` immediately; progress,
  cancellation, and results are read off the job object
  (``POST /jobs`` / ``GET /jobs/{id}`` / ``DELETE /jobs/{id}``).

Determinism: each item executes exactly the engine's sequential
``explain`` path (same explainers, same caches, same error envelope),
so parallel and job results are byte-identical to sequential
``explain_batch`` output for the same requests.

Overload discipline (all optional; see :mod:`repro.service.admission`):
:meth:`admit` runs the shed-before-queue checks — drain flag, circuit
breaker, per-client rate limit, queue-depth bound — *before* any work
is enqueued. Deadlines are stamped at admission
(:mod:`repro.service.deadlines`), so queue wait counts against them and
an overloaded server degrades to best-effort ``deadline_exceeded``
results instead of timing out. The cache is always keyed on the
*original* request, never the load-dependent effective one: an
un-expired deadline cannot change a result, and expired (truncated)
results are refused by the store — so identical requests share one
cache entry regardless of the load they ran under.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.explain import ExplainRequest, ExplainResponse
from repro.core.search.progress import ProgressSink, search_progress
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    JobNotFoundError,
    QueueFullError,
    RateLimitedError,
    ReproError,
    ServiceDrainingError,
)
from repro.service.admission import (
    ANONYMOUS_CLIENT,
    AdmissionController,
    AdmissionDecision,
    CircuitBreaker,
    Priority,
    RateLimiter,
    parse_priority,
)
from repro.service.deadlines import NO_DEADLINES, Deadline, DeadlinePolicy
from repro.service.faults import (
    NO_FAULTS,
    SITE_RANKER,
    SITE_WORKER,
    FaultInjector,
)
from repro.obs.trace import event_since, span as obs_span
from repro.service.jobs import ExplainJob, JobStatus
from repro.service.metrics import ServiceMetrics
from repro.service.store import ResultStore
from repro.service.workers import DEFAULT_WORKERS, WorkerPool
from repro.utils.timing import timed
from repro.utils.validation import require, require_positive

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.core.engine import CredenceEngine

#: How many finished jobs the service remembers for ``GET /jobs/{id}``.
DEFAULT_JOB_RETENTION = 256


class _JobProgressSink(ProgressSink):
    """A per-item sink that mirrors every snapshot into the job, so
    ``GET /jobs/{id}/progress`` reads it without touching the worker."""

    def __init__(self, job: ExplainJob, position: int):
        super().__init__()
        self._job = job
        self._position = position

    def publish(self, snapshot: dict) -> None:
        super().publish(snapshot)
        self._job.update_progress(self._position, snapshot)


class ExplanationService:
    """Async job queue + parallel worker pool + result store, per engine."""

    def __init__(
        self,
        engine: "CredenceEngine",
        workers: int = DEFAULT_WORKERS,
        store: ResultStore | None = None,
        metrics: ServiceMetrics | None = None,
        job_retention: int = DEFAULT_JOB_RETENTION,
        admission: AdmissionController | None = None,
        deadline_policy: DeadlinePolicy | None = None,
        faults: FaultInjector | None = None,
    ):
        require_positive(job_retention, "job_retention")
        self.engine = engine
        self.pool = WorkerPool(workers, name="explain")
        self.store = store if store is not None else ResultStore()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.job_retention = job_retention
        self.admission = admission
        self.deadline_policy = (
            deadline_policy if deadline_policy is not None else NO_DEADLINES
        )
        self.faults = faults if faults is not None else NO_FAULTS
        #: The optional process tier; ``None`` means the thread pool
        #: computes in-process (see :meth:`configure_executor`).
        self.executor = None
        self._draining = False
        self._jobs: OrderedDict[str, ExplainJob] = OrderedDict()
        self._jobs_lock = threading.Lock()
        self._ids = itertools.count(1)

    def configure_admission(
        self,
        *,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        max_queue_depth: int | None = None,
        default_deadline_ms: float | None = None,
        breaker: CircuitBreaker | None = None,
        faults: FaultInjector | None = None,
    ) -> "ExplanationService":
        """Install overload policy after construction; returns ``self``.

        ``serve`` wires its flags through here so the memoised
        ``engine.service()`` instance keeps working unchanged. Any
        rate-limit or queue bound also arms a default
        :class:`~repro.service.admission.CircuitBreaker` (pass one
        explicitly to tune it).
        """
        limiter = (
            RateLimiter(rate_limit, rate_burst)
            if rate_limit is not None
            else None
        )
        if (
            limiter is not None
            or max_queue_depth is not None
            or breaker is not None
        ):
            self.admission = AdmissionController(
                rate_limiter=limiter,
                max_queue_depth=max_queue_depth,
                breaker=breaker if breaker is not None else CircuitBreaker(),
            )
        if default_deadline_ms is not None:
            self.deadline_policy = DeadlinePolicy(
                default_deadline_ms=default_deadline_ms
            )
        if faults is not None:
            self.faults = faults
            if self.executor is not None:
                self.executor.set_faults(faults)
        return self

    def configure_executor(
        self,
        executor: str = "thread",
        *,
        workers: int | None = None,
        start_method: str | None = None,
    ) -> "ExplanationService":
        """Pick the execution tier for computed items; returns ``self``.

        ``"thread"`` (the default) computes in-process on the pool's
        worker threads. ``"process"`` installs a
        :class:`~repro.service.process.ProcessExecutor`: items still
        flow through the same priority queue, admission checks, deadline
        stamping, and result store, but the compute step is dispatched
        to a worker process that attached the v3 packed index via mmap
        — CPU-bound batches scale with cores instead of the GIL.

        Idempotent: reconfiguring the already-active tier keeps the
        existing executor (and its warm worker processes). Switching
        back to ``"thread"`` shuts the process tier down.
        """
        if executor not in ("thread", "process"):
            raise ConfigurationError(
                f'executor must be "thread" or "process", got {executor!r}'
            )
        if executor == "thread":
            stale, self.executor = self.executor, None
            if stale is not None:
                stale.shutdown()
            return self
        if self.executor is not None:
            return self
        from repro.service.process import ProcessExecutor

        self.executor = ProcessExecutor(
            self.engine,
            workers=workers or self.pool.worker_count,
            start_method=start_method,
            faults=self.faults,
        )
        return self

    # -- admission --------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def _breaker(self) -> CircuitBreaker | None:
        return self.admission.breaker if self.admission is not None else None

    def admit(
        self,
        client_id: str | None = None,
        priority: Priority = Priority.INTERACTIVE,
        enqueue_items: int = 0,
    ) -> AdmissionDecision:
        """Run the admission checks for one request; raises a typed
        :class:`~repro.errors.AdmissionError` refusal (the REST layer
        maps them to 429/503 + ``Retry-After``) or returns the decision.

        Order: drain flag, then circuit breaker, then rate limit, then
        the queue-depth bound — shed-before-queue, every refusal counted.
        """
        with obs_span(
            "admission/decide",
            priority=getattr(priority, "label", str(priority)),
        ) as span:
            if self._draining:
                self.metrics.increment("requests_rejected_draining")
                span.set(admitted=False, reason="draining")
                raise ServiceDrainingError(
                    "service is draining; no new work is admitted"
                )
            if self.admission is None:
                self.metrics.increment("requests_admitted")
                span.set(admitted=True)
                return AdmissionDecision(
                    client_id=client_id or ANONYMOUS_CLIENT, priority=priority
                )
            try:
                decision = self.admission.admit(
                    client_id,
                    priority,
                    queue_depth=self.pool.queue_depth,
                    enqueue_items=enqueue_items,
                    workers=self.pool.worker_count,
                    p95_seconds=self.metrics.p95_latency_seconds,
                )
            except RateLimitedError:
                self.metrics.increment("requests_rate_limited")
                span.set(admitted=False, reason="rate_limited")
                raise
            except QueueFullError:
                self.metrics.increment("requests_shed")
                span.set(admitted=False, reason="queue_full")
                raise
            except CircuitOpenError:
                self.metrics.increment("requests_rejected_open_circuit")
                span.set(admitted=False, reason="circuit_open")
                raise
            self.metrics.increment("requests_admitted")
            span.set(admitted=True)
            return decision

    # -- store-backed synchronous execution -----------------------------------

    def explain(
        self,
        request: ExplainRequest,
        *,
        deadline: Deadline | None = None,
        priority: Priority | None = None,
    ) -> ExplainResponse:
        """One request through the store, computing on miss.

        Mirrors :meth:`CredenceEngine.explain` exactly (including raising
        on failure); the only difference is that a repeat of a previously
        answered request — same fields, same ranker, same index version —
        returns the cached response without touching the explainers.

        ``deadline`` bounds the *execution* (callers that stamped one at
        admission pass it here; otherwise the service's
        :class:`~repro.service.deadlines.DeadlinePolicy` applies). The
        store is read and written with the **original** request — see the
        module docstring for why that key is sound. ``priority`` records
        the computed-on-miss latency into that priority's window.
        """
        version = self.engine.index.version
        ranker_name = self.engine.ranker.name
        with obs_span("store/lookup") as lookup:
            cached = self.store.get(version, ranker_name, request)
            lookup.set(hit=cached is not None)
        if cached is not None:
            return cached
        if deadline is None:
            deadline = self.deadline_policy.start(request)
        with timed() as elapsed:
            with obs_span("service/compute", strategy=request.strategy):
                response = self._compute(request, deadline)
        if priority is not None:
            self.metrics.record_latency(elapsed(), priority=priority)
        if (
            response.result is not None
            and getattr(response.result, "deadline_exceeded", False)
        ):
            self.metrics.increment("deadline_exceeded")
        # Key on the pre-execution version: if the corpus mutated mid-
        # request the result may reflect either state, so don't cache it.
        # (The store itself refuses deadline_exceeded results.)
        if self.engine.index.version == version:
            self.store.put(version, ranker_name, request, response)
        return response

    def _compute(
        self, request: ExplainRequest, deadline: Deadline | None
    ) -> ExplainResponse:
        """Fault hooks, then the engine, under the effective deadline."""
        faults = self.faults
        if faults.enabled:
            before = sum(faults.counts().values())
            try:
                faults.latency(SITE_WORKER)
                faults.maybe_crash(SITE_WORKER)
                faults.maybe_crash(SITE_RANKER)
            finally:
                fired = sum(faults.counts().values()) - before
                if fired:
                    self.metrics.increment("faults_injected", by=fired)
        # Apply the deadline *after* any injected latency, so time lost
        # to the spike is charged against the request's remaining budget.
        effective = deadline.apply(request) if deadline is not None else request
        # The execution-tier seam: everything above (store lookup, fault
        # hooks, deadline stamping) and everything around (priorities,
        # admission, breaker, drain) is tier-agnostic parent-side state;
        # only this compute step crosses to a worker process.
        if self.executor is not None:
            if not faults.enabled:
                return self.executor.explain(effective)
            # The process tier has its own fault site (a real SIGKILL on
            # the leased worker); charge anything it injects to the same
            # faults_injected counter the thread-tier hooks use.
            before = sum(faults.counts().values())
            try:
                return self.executor.explain(effective)
            finally:
                fired = sum(faults.counts().values()) - before
                if fired:
                    self.metrics.increment("faults_injected", by=fired)
        return self.engine.explain(effective)

    # -- async jobs ------------------------------------------------------------

    def submit(
        self,
        requests: ExplainRequest | Iterable[ExplainRequest],
        *,
        priority: Priority = Priority.BATCH,
        client_id: str | None = None,
    ) -> ExplainJob:
        """Queue a job (single request or batch); returns immediately.

        Admission runs first (drain flag, breaker, rate limit, queue
        bound for all the job's items at once) and raises a typed
        refusal *before* anything is enqueued. Each item's deadline is
        stamped here — queue wait counts against it.

        Raises :class:`~repro.errors.PoolShutdownError` (a
        :class:`~repro.errors.ConfigurationError`) if the pool has been
        shut down; a shutdown racing the enqueue loop still leaves the
        job terminal (``CANCELLED``, unqueued items skipped) so nothing
        ever waits forever on a job the pool will never run.
        """
        if isinstance(requests, ExplainRequest):
            requests = (requests,)
        requests = tuple(requests)
        priority = parse_priority(priority)
        self.admit(client_id, priority, enqueue_items=max(1, len(requests)))
        job = ExplainJob(
            f"job-{next(self._ids)}", requests, priority=priority
        )
        deadlines = tuple(
            self.deadline_policy.start(request) for request in job.requests
        )
        with self._jobs_lock:
            self._jobs[job.job_id] = job
            while len(self._jobs) > self.job_retention:
                oldest_id, oldest = next(iter(self._jobs.items()))
                if not oldest.status.terminal:
                    break  # never forget a live job
                del self._jobs[oldest_id]
        self.metrics.increment("jobs_submitted")
        for position in range(job.items_total):
            try:
                self.pool.submit(
                    self._item_task(job, position, deadlines[position]),
                    priority=priority,
                )
            except ConfigurationError:
                job.request_cancel()
                # Items already enqueued account themselves (run or
                # drain as skips); account the never-enqueued rest here.
                for unqueued in range(position, job.items_total):
                    self.metrics.increment("items_skipped")
                    self._record_terminal(job.skip_item(unqueued))
                raise
        return job

    def _item_task(
        self, job: ExplainJob, position: int, deadline: Deadline | None
    ):
        # Stamped at enqueue so the worker can attribute queue wait —
        # the time between here and pickup — as its own span.
        enqueued_at = time.perf_counter()

        def run() -> None:
            event_since(
                "queue/wait", enqueued_at, job_id=job.job_id, position=position
            )
            self._run_item(job, position, deadline)

        return run

    def _run_item(
        self,
        job: ExplainJob,
        position: int,
        deadline: Deadline | None = None,
    ) -> None:
        if not job.start_item(position):
            self.metrics.increment("items_skipped")
            self._record_terminal(job.skip_item(position))
            return
        request = job.requests[position]
        breaker = self._breaker
        sink = _JobProgressSink(job, position)
        with timed() as elapsed:
            with obs_span(
                "item/execute", job_id=job.job_id, position=position
            ) as span:
                try:
                    with search_progress(sink):
                        response = self.explain(request, deadline=deadline)
                    if breaker is not None:
                        breaker.record_success()
                except ReproError as error:
                    # A bad request, not a sick worker: per-item error,
                    # no breaker signal in either direction.
                    response = ExplainResponse.from_error(
                        request, error, elapsed()
                    )
                except Exception as error:  # noqa: BLE001 - isolate, then flag
                    if breaker is not None:
                        breaker.record_failure()
                    job.note_fatal(error)
                    response = ExplainResponse.from_error(
                        request, error, elapsed()
                    )
                span.set(ok=response.ok)
        self.metrics.record_latency(elapsed(), priority=job.priority)
        self.metrics.increment(
            "items_executed" if response.ok else "items_failed"
        )
        self._record_terminal(job.finish_item(position, response))

    def _record_terminal(self, status: JobStatus | None) -> None:
        # The accounting call that finalised the job (exactly one per
        # job) reports its terminal status here.
        if status is None:
            return
        self.metrics.increment(
            {
                JobStatus.DONE: "jobs_completed",
                JobStatus.FAILED: "jobs_failed",
                JobStatus.CANCELLED: "jobs_cancelled",
            }[status]
        )

    def job(self, job_id: str) -> ExplainJob:
        """Look up a job by id; raises :class:`JobNotFoundError`."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job

    def cancel(self, job_id: str) -> ExplainJob:
        """Request cancellation; a no-op on already-terminal jobs."""
        job = self.job(job_id)
        job.request_cancel()
        return job

    def jobs(self) -> list[ExplainJob]:
        with self._jobs_lock:
            return list(self._jobs.values())

    # -- parallel batch (the explain_batch(workers=...) backend) ---------------

    def run_batch(
        self,
        requests: Sequence[ExplainRequest],
        *,
        priority: Priority = Priority.BATCH,
        client_id: str | None = None,
    ) -> list[ExplainResponse]:
        """Execute a batch across the pool; blocks until every item is done.

        Responses preserve request order and match the sequential
        ``explain_batch`` contract: one response per request, per-item
        latency, per-item error capture, no aborts. An item skipped
        because the backing job was cancelled externally (the job shares
        the REST ``job-N`` namespace) still yields an error response in
        its position rather than silently compacting the list.
        """
        requests = list(requests)
        for request in requests:
            require(
                isinstance(request, ExplainRequest),
                "explain_batch items must be ExplainRequest instances",
            )
        job = self.submit(requests, priority=priority, client_id=client_id)
        job.wait()
        return [
            response
            if response is not None
            else ExplainResponse.from_error(
                request,
                ReproError("item skipped: job was cancelled before execution"),
            )
            for request, response in zip(job.requests, job.responses)
        ]

    # -- observability & lifecycle ---------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Counters + latency + store + queue + admission + analyzer-memo
        state for ``GET /metrics``."""
        snapshot = self.metrics.snapshot()
        snapshot["store"] = self.store.stats()
        snapshot["cache_hit_rate"] = snapshot["store"]["hit_rate"]
        snapshot["queue_depth"] = self.pool.queue_depth
        snapshot["workers"] = self.pool.worker_count
        snapshot["admission"] = (
            None if self.admission is None else self.admission.describe()
        )
        if self.executor is not None:
            snapshot["executor"] = self.executor.describe()
        else:
            from repro.service.process import thread_executor_block

            snapshot["executor"] = thread_executor_block(
                self.pool.worker_count
            )
        # The parent process's analyzer only: process-tier workers keep
        # their own memos.
        snapshot["analyzer"] = self.engine.index.analyzer.memo.stats()
        snapshot["draining"] = self._draining
        snapshot["faults"] = self.faults.counts()
        with self._jobs_lock:
            snapshot["jobs_tracked"] = len(self._jobs)
        return snapshot

    def drain(self, wait: bool = True) -> None:
        """Graceful drain: stop admitting, finish everything accepted.

        New requests are refused with
        :class:`~repro.errors.ServiceDrainingError` (REST: a clean 503)
        the moment this is called; in-flight *and already-queued* items
        run to completion — every acknowledged job still reaches a
        terminal status and wakes its waiters (zero lost acks) — then
        the pool stops.
        """
        self._draining = True
        self.pool.shutdown(wait=wait, drain=True)
        if self.executor is not None:
            self.executor.shutdown(wait=wait)

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop the pool.

        The graceful default drains queued items first. With
        ``cancel_pending``, live jobs are cancelled so their queued items
        drain as skips — every job still reaches a terminal status and
        wakes its waiters (nothing is silently dropped).
        """
        if cancel_pending:
            for job in self.jobs():
                job.request_cancel()
        self.pool.shutdown(wait=wait, drain=True)
        if self.executor is not None:
            self.executor.shutdown(wait=wait)

    def __enter__(self) -> "ExplanationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
