"""Process-backed execution tier: GIL-free fan-out over a shared mmap index.

The thread tier (:class:`~repro.service.workers.WorkerPool`) overlaps
I/O but not computation — on a standard (GIL) build, four threads
explaining CPU-bound requests run no faster than one, and the checked-in
benches pin exactly that ceiling. This module escapes it by leasing the
computation to worker *processes* while every serving-layer semantic —
priority-aware dequeue, admission control, deadlines, the result store,
drain-before-exit — stays in the parent:

* **Init once per process.** A worker receives one compact, picklable
  :class:`WorkerSpec` (v3 manifest path + ``EngineConfig``), attaches
  the packed index via mmap (O(1) in corpus size, page cache shared
  across workers) and rebuilds the ranker from the config. Engine state
  is never shipped per task.
* **Compact payloads on the pipe.** An ``explain`` dispatch sends the
  request's dict form and an optional trace marker; the reply carries
  the response, an error envelope, or a death notice. Nothing else
  crosses the serialization boundary.
* **Worker leases, not a shared executor.** Each dispatch leases one
  worker over its own duplex pipe. A SIGKILLed worker fails only the
  task it was leased for — siblings are untouched and the pool respawns
  the dead slot — unlike ``ProcessPoolExecutor``, which breaks the whole
  executor when any worker dies.
* **Errors relay by envelope, not by pickle.** Exceptions with custom
  constructors reconstruct unreliably across a pipe, so workers send the
  already-formatted ``"Type: message"`` text. The parent re-raises it as
  :class:`RemoteReproError` (the per-item channel) or
  :class:`RemoteWorkerError` (the unexpected channel, which trips the
  circuit breaker), each carrying ``error_envelope`` so serialized error
  responses are byte-identical to the sequential path.
* **Traces graft across the boundary.** The parent ships the trace's
  identity (:func:`~repro.obs.trace.serialize_context`), the worker
  records spans in a local trace, and the reply's span payload is
  spliced back into the live parent trace
  (:func:`~repro.obs.trace.graft_remote_trace`).

Byte-identical equivalence with the sequential path is pinned by the
parallel-equivalence suite across every ranker × explainer × search
strategy; this module must never trade that for speed.

Explain is the only work the tier runs. Ingest stays in the calling
process: analysis is a minor share of it once the analyzer's token memo
is warm, so a process fan-out for it does not pay for its pipes.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import queue
import signal
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import (
    ConfigurationError,
    IndexStateError,
    PoolShutdownError,
    RankingError,
    ReproError,
    TrainingError,
)
from repro.obs.trace import (
    Trace,
    TraceContext,
    activate_context,
    export_remote_trace,
    graft_remote_trace,
    serialize_context,
)
from repro.obs.trace import span as obs_span
from repro.service.faults import NO_FAULTS, SITE_PROCESS, FaultInjector
from repro.service.workers import DEFAULT_WORKERS
from repro.utils.validation import require_positive

logger = logging.getLogger(__name__)

#: How long the parent waits for a worker to finish building its engine.
#: Generous: a neural config retrains per worker on first start.
READY_TIMEOUT_SECONDS = 120.0

#: How long shutdown waits for in-flight leases to return their workers.
DRAIN_TIMEOUT_SECONDS = 30.0


def default_start_method() -> str:
    """``"fork"`` where available (cheap: the attached mmap and imports
    come along), else ``"spawn"``. Workers are always *built* from the
    explicit :class:`WorkerSpec`, so both methods produce identical
    workers — fork is an optimization, never a correctness dependency."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class WorkerProcessDied(RuntimeError):
    """The leased worker process died mid-task (pipe went EOF).

    Deliberately *not* a ``ReproError``: a dead worker is a sick
    service, so this travels the unexpected-exception channel and the
    circuit breaker records a failure — exactly like an in-process
    worker crash in the thread tier.
    """


class RemoteWorkerError(RuntimeError):
    """An unexpected exception raised inside a worker process.

    Relayed by envelope (never by pickling the original exception);
    travels the unexpected channel like its thread-tier counterpart.
    ``error_envelope`` preserves the worker-side ``"Type: message"``
    text so error responses serialize byte-identically.
    """

    def __init__(self, envelope: str):
        super().__init__(envelope)
        self.error_envelope = envelope


class RemoteReproError(ReproError):
    """A :class:`~repro.errors.ReproError` raised inside a worker process.

    Travels the expected per-item channel — the item fails cleanly, the
    job still finishes, the breaker does not trip — with
    ``error_envelope`` carrying the original worker-side text.
    """

    def __init__(self, envelope: str):
        super().__init__(envelope)
        self.error_envelope = envelope


#: Worker-side error types rehydrated into the class callers already
#: catch, so the process tier stays transparent at every call site (the
#: REST layer maps ``RankingError``/``ConfigurationError`` to clean 400s
#: whichever tier computed them). Only message-passthrough constructors
#: belong here — a class that *formats* its message from arguments would
#: double-format on rehydration. Subclasses with formatting constructors
#: map to their catchable base instead.
_REHYDRATE: dict = {
    "RankingError": RankingError,
    "ConfigurationError": ConfigurationError,
    "UnknownStrategyError": ConfigurationError,
    "StrategyUnavailableError": ConfigurationError,
    "PoolShutdownError": ConfigurationError,
    "IndexStateError": IndexStateError,
    "TrainingError": TrainingError,
}


def rehydrate_repro_error(envelope: str) -> ReproError:
    """Turn a worker-side ``"Type: message"`` envelope back into a raisable.

    Known library errors come back as their real (or closest catchable)
    class so ``except RankingError`` works identically on both tiers;
    anything else stays a :class:`RemoteReproError`. Either way the
    exception carries ``error_envelope`` verbatim, so per-item error
    responses serialize byte-identically to the sequential path.
    """
    name, separator, message = envelope.partition(": ")
    cls = _REHYDRATE.get(name) if separator else None
    if cls is None:
        return RemoteReproError(envelope)
    error = cls(message)
    error.error_envelope = envelope
    return error


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to initialize, and nothing more.

    Compact and picklable by construction: under ``spawn`` this is the
    only state that reaches the child, so a spec that round-trips
    guarantees the pool is spawn-safe. The worker attaches the v3 index
    at ``index_path`` and rebuilds its engine from ``engine_config``.
    """

    index_path: str
    engine_config: object | None = None  # EngineConfig; picklable dataclass


def _worker_main(spec: WorkerSpec, conn) -> None:
    """Worker process entry point: initialize once, then serve the pipe.

    Module-level (not a closure) so it is importable under ``spawn``.
    SIGINT is ignored — Ctrl-C belongs to the parent, which drains and
    stops workers explicitly.
    """
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        from repro.core.engine import CredenceEngine

        engine = CredenceEngine.load(
            spec.index_path, config=spec.engine_config
        )
        conn.send(("ready", engine.index.version))
    except Exception as error:  # noqa: BLE001 - report any init failure
        with contextlib.suppress(OSError, BrokenPipeError):
            conn.send(("init_error", f"{type(error).__name__}: {error}"))
        conn.close()
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        if op == "stop":
            with contextlib.suppress(OSError, BrokenPipeError):
                conn.send(("bye", None, None))
            break
        try:
            if op == "explain":
                reply = _remote_explain(engine, message[1], message[2])
            elif op == "ping":
                reply = ("ok", "pong", None)
            else:
                reply = ("fault", f"ValueError: unknown worker op {op!r}", None)
        except Exception as error:  # noqa: BLE001 - workers never die on a task
            reply = ("fault", f"{type(error).__name__}: {error}", None)
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError, TypeError) as error:
            # An unpicklable reply must not kill the worker: report it as
            # a task fault if the pipe is still up, else exit the loop.
            if isinstance(error, TypeError):
                with contextlib.suppress(OSError, BrokenPipeError):
                    conn.send(
                        ("fault", f"{type(error).__name__}: {error}", None)
                    )
                continue
            break
    conn.close()


def _remote_explain(engine, request_dict: dict, wire: dict | None):
    """Run one explain in the worker, under a local trace when asked."""
    from repro.core.explain import ExplainRequest

    request = ExplainRequest.from_dict(request_dict)
    trace = None
    context = None
    if wire is not None:
        trace = Trace(wire["name"], request_id=wire["request_id"])
        context = TraceContext(trace)
    try:
        with activate_context(context):
            response = engine.explain(request)
    except ReproError as error:
        return (
            "repro_error",
            f"{type(error).__name__}: {error}",
            None if trace is None else export_remote_trace(trace),
        )
    except Exception as error:  # noqa: BLE001 - relayed, never raised here
        return (
            "fault",
            f"{type(error).__name__}: {error}",
            None if trace is None else export_remote_trace(trace),
        )
    if trace is not None:
        trace.finish()
    return (
        "ok",
        response,
        None if trace is None else export_remote_trace(trace),
    )


class _ProcessWorker:
    """One worker process and the parent-side end of its private pipe."""

    def __init__(self, pool: "ProcessWorkerPool", position: int):
        self.pool = pool
        self.position = position
        self.name = f"{pool.name}-proc-{position}"
        parent_conn, child_conn = pool.context.Pipe()
        self.conn = parent_conn
        self.process = pool.context.Process(
            target=_worker_main,
            args=(pool.spec, child_conn),
            name=self.name,
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.ready_version = None

    def await_ready(self, timeout: float = READY_TIMEOUT_SECONDS) -> None:
        if not self.conn.poll(timeout):
            self.close(terminate=True)
            raise ConfigurationError(
                f"worker process {self.name} did not initialize within "
                f"{timeout:.0f}s"
            )
        try:
            status = self.conn.recv()
        except (EOFError, OSError) as error:
            self.close(terminate=True)
            raise ConfigurationError(
                f"worker process {self.name} died during initialization"
            ) from error
        if status[0] != "ready":
            self.close(terminate=True)
            raise ConfigurationError(
                f"worker process {self.name} failed to initialize: {status[1]}"
            )
        self.ready_version = status[1]

    def kill(self) -> None:
        """SIGKILL the worker — the fault injector's real death path."""
        if self.process.pid is not None:
            with contextlib.suppress(ProcessLookupError, OSError):
                os.kill(self.process.pid, signal.SIGKILL)

    def stop(self, join: bool = True) -> None:
        """Graceful stop: ask the worker to exit, then join it."""
        with contextlib.suppress(OSError, BrokenPipeError):
            self.conn.send(("stop",))
        if join:
            self.process.join(timeout=10)
        self.close(terminate=self.process.is_alive())

    def close(self, terminate: bool = False) -> None:
        if terminate and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=10)
        with contextlib.suppress(OSError):
            self.conn.close()


class ProcessWorkerPool:
    """A fixed-size pool of engine worker processes, leased per task.

    Mirrors the thread tier's hand-rolled philosophy: no
    ``ProcessPoolExecutor`` (whose broken-pool semantics fail *every*
    pending future when one worker dies). Each worker owns a private
    duplex pipe; a dispatch leases an idle worker, writes one compact
    message, and blocks for the reply. Worker death is detected at the
    pipe (EOF), fails only the leased task as :class:`WorkerProcessDied`,
    and the dead slot is respawned before the lease is released.

    Workers start lazily on the first dispatch, in parallel (every
    process is forked/spawned first, then awaited), so pool construction
    is free and N engine builds overlap.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        workers: int = DEFAULT_WORKERS,
        start_method: str | None = None,
        name: str = "explain",
        faults: FaultInjector = NO_FAULTS,
    ):
        require_positive(workers, "workers")
        self.spec = spec
        self.worker_count = workers
        self.name = name
        self.start_method = start_method or default_start_method()
        if self.start_method not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"start method {self.start_method!r} is not available on "
                f"this platform"
            )
        self.context = multiprocessing.get_context(self.start_method)
        self.faults = faults
        self._lock = threading.Lock()
        self._idle: queue.Queue = queue.Queue()
        self._workers: list[_ProcessWorker] = []
        self._started = False
        self._shutdown = False
        self._live = 0
        self.tasks_dispatched = 0
        self.worker_respawns = 0

    # -- lifecycle ------------------------------------------------------------

    def _ensure_started(self) -> None:
        with self._lock:
            if self._shutdown:
                raise PoolShutdownError("process worker pool has been shut down")
            if self._started:
                return
            workers = [
                _ProcessWorker(self, position)
                for position in range(self.worker_count)
            ]
            try:
                for worker in workers:
                    worker.await_ready()
            except ConfigurationError:
                for worker in workers:
                    worker.close(terminate=True)
                raise
            self._workers = workers
            for worker in workers:
                self._idle.put(worker)
            self._live = len(workers)
            self._started = True

    def _respawn(self, dead: _ProcessWorker) -> None:
        dead.close(terminate=True)
        with self._lock:
            if self._shutdown:
                self._live -= 1
                return
            self.worker_respawns += 1
        try:
            replacement = _ProcessWorker(self, dead.position)
            replacement.await_ready()
        except ConfigurationError:
            logger.exception(
                "respawn of worker process %s failed; pool shrinks by one",
                dead.name,
            )
            with self._lock:
                self._live -= 1
            return
        with self._lock:
            self._workers = [
                replacement if worker is dead else worker
                for worker in self._workers
            ]
        self._idle.put(replacement)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool, draining in-flight leases first.

        Idle workers are collected off the lease queue (a leased worker
        returns there when its task completes, so in-flight work
        finishes) and each is asked to exit over its pipe before being
        joined.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            if not self._started:
                return
            live = self._live
        leased = []
        for _ in range(live):
            try:
                leased.append(self._idle.get(timeout=DRAIN_TIMEOUT_SECONDS))
            except queue.Empty:
                break
        for worker in leased:
            worker.stop(join=wait)

    @property
    def is_shutdown(self) -> bool:
        return self._shutdown

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- dispatch -------------------------------------------------------------

    def call(self, message: tuple):
        """Lease a worker, run one round-trip, release the lease.

        On pipe death the leased task fails with
        :class:`WorkerProcessDied` and the slot is respawned — siblings
        (other leases, queued tasks) never observe the failure.
        """
        self._ensure_started()
        worker = self._idle.get()
        dead = False
        try:
            with self._lock:
                self.tasks_dispatched += 1
            try:
                if self.faults.should_kill(SITE_PROCESS):
                    # A real SIGKILL, posted before the task goes out: a
                    # killed process never returns to user mode, so it
                    # cannot read the task or reply — the recv below
                    # deterministically sees EOF and the chaos suite
                    # exercises the true death path. (Killing after the
                    # send would race: a fast worker can buffer its
                    # reply before the signal lands.)
                    worker.kill()
                worker.conn.send(message)
                reply = worker.conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
                dead = True
                raise WorkerProcessDied(
                    f"worker process {worker.name} "
                    f"(pid {worker.process.pid}) died mid-task"
                ) from error
            return reply
        finally:
            if dead:
                self._respawn(worker)
            else:
                self._idle.put(worker)

    def explain(self, request) -> "object":
        """Run one :class:`~repro.core.explain.ExplainRequest` remotely.

        Returns the worker's :class:`~repro.core.explain.ExplainResponse`
        or raises the relayed error on the same channel the sequential
        path would have used.
        """
        wire = serialize_context()
        anchored_at = time.perf_counter()
        with obs_span("process/dispatch", worker_pool=self.name) as span:
            status, payload, trace_payload = self.call(
                ("explain", request.to_dict(), wire)
            )
            graft_remote_trace(trace_payload, anchored_at)
        if status == "ok":
            return payload
        if status == "repro_error":
            raise rehydrate_repro_error(payload)
        raise RemoteWorkerError(payload)

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "tasks_dispatched": self.tasks_dispatched,
                "worker_respawns": self.worker_respawns,
                "live_workers": self._live,
            }


class ProcessExecutor:
    """The engine-facing process tier: snapshot management plus a pool.

    Bridges a :class:`~repro.core.engine.CredenceEngine` to a
    :class:`ProcessWorkerPool`: ensures a v3 packed snapshot of the
    engine's index exists on disk (reusing the manifest the index was
    attached from when it already *is* a packed view — the zero-copy
    path), builds the :class:`WorkerSpec`, and rebuilds the pool when
    the index's ``version`` moves so workers never serve a stale corpus.

    Requires a config-built ranker: workers rebuild the ranker from
    ``EngineConfig``, which cannot capture an arbitrary explicitly
    passed ranker object (the engine records this as
    ``ranker_from_config``).
    """

    def __init__(
        self,
        engine,
        workers: int | None = None,
        start_method: str | None = None,
        faults: FaultInjector = NO_FAULTS,
        name: str = "explain",
    ):
        if not getattr(engine, "ranker_from_config", True):
            raise ConfigurationError(
                "the process tier requires a config-built ranker: worker "
                "processes rebuild the ranker from EngineConfig and cannot "
                "capture an explicitly-passed ranker object"
            )
        self.engine = engine
        self.workers = workers or DEFAULT_WORKERS
        require_positive(self.workers, "workers")
        self.start_method = start_method or default_start_method()
        self.faults = faults
        self.name = name
        self._lock = threading.Lock()
        self._pool: ProcessWorkerPool | None = None
        self._snapshot_version = None
        self._tempdir: tempfile.TemporaryDirectory | None = None
        self._shutdown = False
        self.index_snapshots = 0

    def _ensure_pool(self) -> ProcessWorkerPool:
        with self._lock:
            if self._shutdown:
                raise PoolShutdownError("process executor has been shut down")
            version = self.engine.index.version
            if self._pool is not None and version == self._snapshot_version:
                return self._pool
            stale = self._pool
            self._pool = None
            if stale is not None:
                # The corpus moved (ingest/remove): retire the old pool;
                # workers re-attach the fresh snapshot in O(1).
                stale.shutdown()
            path = getattr(self.engine.index, "manifest_path", None)
            if path is None:
                if self._tempdir is None:
                    self._tempdir = tempfile.TemporaryDirectory(
                        prefix="repro-process-tier-"
                    )
                path = Path(self._tempdir.name) / "index.v3"
                from repro.index.storage import save_index

                save_index(self.engine.index, path)
                self.index_snapshots += 1
            spec = WorkerSpec(
                index_path=str(path), engine_config=self.engine.config
            )
            self._pool = ProcessWorkerPool(
                spec,
                workers=self.workers,
                start_method=self.start_method,
                name=self.name,
                faults=self.faults,
            )
            self._snapshot_version = version
            return self._pool

    def explain(self, request):
        """Dispatch one request to a worker process (see the pool)."""
        return self._ensure_pool().explain(request)

    def set_faults(self, faults: FaultInjector) -> None:
        """Swap the fault injector (``configure_admission`` rewires the
        chaos plan after the executor may already exist)."""
        with self._lock:
            self.faults = faults
            if self._pool is not None:
                self._pool.faults = faults

    def describe(self) -> dict:
        """The ``/metrics`` executor block for the process tier."""
        with self._lock:
            pool = self._pool
            stats = (
                {"tasks_dispatched": 0, "worker_respawns": 0}
                if pool is None
                else pool.stats()
            )
            return {
                "kind": "process",
                "workers": self.workers,
                "start_method": self.start_method,
                "tasks_dispatched": stats["tasks_dispatched"],
                "worker_respawns": stats["worker_respawns"],
                "index_snapshots": self.index_snapshots,
            }

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=wait)
        if self._tempdir is not None:
            with contextlib.suppress(OSError):
                self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def thread_executor_block(workers: int) -> dict:
    """The ``/metrics`` executor block for the default thread tier.

    Shape-identical to :meth:`ProcessExecutor.describe` so the pinned
    schema never branches on the configured tier; the process-only
    counters read zero here.
    """
    return {
        "kind": "thread",
        "workers": workers,
        "start_method": None,
        "tasks_dispatched": 0,
        "worker_respawns": 0,
        "index_snapshots": 0,
    }
