"""Unit tests for the process-backed execution tier.

Covers the pool mechanics the equivalence suite takes for granted:
init-once worker lifecycle, lease dispatch, both error channels, the
stale-snapshot refresh, spawn-safety of the worker spec, and the
pinned ``describe()`` schema. Worker *death* is exercised separately in
``test_process_chaos.py``.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.errors import ConfigurationError, PoolShutdownError, RankingError
from repro.index.storage import save_index
from repro.service.process import (
    ProcessExecutor,
    ProcessWorkerPool,
    RemoteReproError,
    WorkerSpec,
    rehydrate_repro_error,
    default_start_method,
    thread_executor_block,
)
from tests.core.test_search_equivalence import _corpus

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-tier tests need the fork start method",
)
requires_spawn = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable",
)

QUERY = "covid outbreak hospital"


def _strip(payload: dict) -> dict:
    cleaned = dict(payload)
    cleaned.pop("elapsed_seconds", None)
    return cleaned


def _engine() -> CredenceEngine:
    return CredenceEngine(_corpus(), EngineConfig(ranker="bm25", seed=5))


@pytest.fixture(scope="module")
def explain_spec(tmp_path_factory) -> WorkerSpec:
    """An explain worker recipe: a saved v3 index of the test corpus."""
    path = tmp_path_factory.mktemp("pool") / "corpus.idx"
    save_index(_engine().index, path)
    return WorkerSpec(str(path), EngineConfig(ranker="bm25", seed=5))


class TestWorkerSpec:
    def test_spec_is_picklable(self):
        import pickle

        spec = WorkerSpec(
            index_path="/tmp/x", engine_config=EngineConfig(ranker="bm25")
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_default_start_method_is_available(self):
        assert default_start_method() in multiprocessing.get_all_start_methods()

    def test_unknown_start_method_rejected(self, explain_spec):
        with pytest.raises(ConfigurationError, match="not available"):
            ProcessWorkerPool(explain_spec, workers=1, start_method="teleport")


PONG = ("ok", "pong", None)


@requires_fork
class TestPoolMechanics:
    def test_workers_initialize_once_across_dispatches(self, explain_spec):
        with ProcessWorkerPool(explain_spec, workers=2) as pool:
            assert pool.call(("ping",)) == PONG
            pids = sorted(w.process.pid for w in pool._workers)
            for _ in range(5):
                assert pool.call(("ping",)) == PONG
            assert sorted(w.process.pid for w in pool._workers) == pids
            assert pool.stats()["tasks_dispatched"] == 6

    def test_unknown_op_is_a_fault_not_a_death(self, explain_spec):
        with ProcessWorkerPool(explain_spec, workers=1) as pool:
            status, payload, _ = pool.call(("sing", []))
            assert status == "fault"
            assert "unknown worker op" in payload
            # the same worker still serves the next task
            assert pool.call(("ping",)) == PONG
            assert pool.stats()["worker_respawns"] == 0

    def test_dispatch_after_shutdown_raises(self, explain_spec):
        pool = ProcessWorkerPool(explain_spec, workers=1)
        assert pool.call(("ping",)) == PONG
        pool.shutdown()
        with pytest.raises(PoolShutdownError):
            pool.call(("ping",))


@requires_spawn
class TestSpawnSafety:
    """The spec-built worker must behave identically under ``spawn``."""

    def test_spawned_explain_matches_local(self, explain_spec):
        engine = _engine()
        target = engine.rank(QUERY, 5).doc_ids[0]
        request = ExplainRequest(QUERY, target, k=5)
        with ProcessWorkerPool(
            explain_spec, workers=1, start_method="spawn"
        ) as pool:
            assert pool.start_method == "spawn"
            remote = pool.explain(request)
        assert _strip(remote.to_dict()) == _strip(
            engine.explain(request).to_dict()
        )


@requires_fork
class TestProcessExecutor:
    @pytest.fixture()
    def executor(self):
        engine = _engine()
        executor = ProcessExecutor(engine, workers=2)
        yield engine, executor
        executor.shutdown()

    def test_explain_matches_sequential(self, executor):
        engine, executor = executor
        target = engine.rank(QUERY, 5).doc_ids[0]
        request = ExplainRequest(QUERY, target, k=5)
        remote = executor.explain(request)
        local = _engine().explain(request)
        assert _strip(remote.to_dict()) == _strip(local.to_dict())

    def test_repro_errors_rehydrate_to_the_local_class(self, executor):
        engine, executor = executor
        request = ExplainRequest(QUERY, "no-such-document", k=5)
        # A worker-side RankingError must be catchable as RankingError
        # here — the process tier is transparent to REST/CLI handlers.
        with pytest.raises(RankingError) as excinfo:
            executor.explain(request)
        try:
            _engine().explain(request)
        except Exception as local:  # noqa: BLE001 - comparing envelopes
            assert excinfo.value.error_envelope == (
                f"{type(local).__name__}: {local}"
            )
            assert str(excinfo.value) == str(local)

    def test_unknown_envelopes_fall_back_to_remote_repro_error(self):
        error = rehydrate_repro_error("ExoticError: something odd")
        assert isinstance(error, RemoteReproError)
        assert error.error_envelope == "ExoticError: something odd"
        bare = rehydrate_repro_error("no separator at all")
        assert isinstance(bare, RemoteReproError)

    def test_formatting_subclasses_rehydrate_to_their_base(self):
        envelope = "UnknownStrategyError: unknown strategy 'nope'"
        error = rehydrate_repro_error(envelope)
        assert type(error) is ConfigurationError
        assert str(error) == "unknown strategy 'nope'"
        assert error.error_envelope == envelope

    def test_corpus_mutation_refreshes_the_snapshot(self, executor):
        engine, executor = executor
        target = engine.rank(QUERY, 5).doc_ids[0]
        request = ExplainRequest(QUERY, target, k=5)
        executor.explain(request)
        assert executor.describe()["index_snapshots"] == 1
        first_pool = executor._pool

        documents = _corpus()
        extra = type(documents[0])(
            "doc-new", "Covid outbreak strained the hospital wards anew."
        )
        engine.add_documents([extra])

        remote = executor.explain(request)
        assert executor._pool is not first_pool  # stale pool retired
        assert first_pool.is_shutdown
        assert executor.describe()["index_snapshots"] == 2

        fresh = CredenceEngine(
            documents + [extra], EngineConfig(ranker="bm25", seed=5)
        )
        assert _strip(remote.to_dict()) == _strip(
            fresh.explain(request).to_dict()
        )

    def test_describe_schema(self, executor):
        engine, executor = executor
        block = executor.describe()
        assert set(block) == {
            "kind",
            "workers",
            "start_method",
            "tasks_dispatched",
            "worker_respawns",
            "index_snapshots",
        }
        assert block["kind"] == "process"
        assert block["workers"] == 2
        assert block["start_method"] in multiprocessing.get_all_start_methods()

    def test_thread_block_is_shape_identical(self):
        thread = thread_executor_block(4)
        assert set(thread) == {
            "kind",
            "workers",
            "start_method",
            "tasks_dispatched",
            "worker_respawns",
            "index_snapshots",
        }
        assert thread["kind"] == "thread"
        assert thread["start_method"] is None

    def test_explicit_ranker_refused_at_construction(self):
        from repro.ranking.bm25 import Bm25Ranker

        engine = _engine()
        explicit = CredenceEngine(
            _corpus(),
            EngineConfig(ranker="bm25", seed=5),
            ranker=Bm25Ranker(engine.index),
        )
        with pytest.raises(ConfigurationError, match="explicit"):
            ProcessExecutor(explicit, workers=1)


@requires_fork
class TestPackedIndexZeroCopyPath:
    def test_packed_engine_reuses_the_manifest(self, tmp_path):
        """An engine attached to a v3 packed index ships the manifest
        path it was attached from — no snapshot is ever written."""
        from repro.index.storage import load_index, save_index

        engine = _engine()
        manifest = tmp_path / "index.v3"
        save_index(engine.index, manifest)
        packed = CredenceEngine.from_index(
            load_index(manifest), config=EngineConfig(ranker="bm25", seed=5)
        )
        executor = ProcessExecutor(packed, workers=1)
        try:
            target = packed.rank(QUERY, 5).doc_ids[0]
            remote = executor.explain(ExplainRequest(QUERY, target, k=5))
            assert executor.describe()["index_snapshots"] == 0
            assert executor._tempdir is None
            local = packed.explain(ExplainRequest(QUERY, target, k=5))
            assert _strip(remote.to_dict()) == _strip(local.to_dict())
        finally:
            executor.shutdown()


@requires_fork
class TestTraceGrafting:
    def test_remote_spans_land_in_the_parent_trace(self):
        from repro.obs import Tracer

        engine = _engine()
        executor = ProcessExecutor(engine, workers=1)
        tracer = Tracer(ring_capacity=4)
        try:
            target = engine.rank(QUERY, 5).doc_ids[0]
            with tracer.trace("test/process") as trace:
                executor.explain(ExplainRequest(QUERY, target, k=5))
            names = [span.name for span in trace.spans]
            assert "process/dispatch" in names
            dispatch = next(
                span for span in trace.spans if span.name == "process/dispatch"
            )
            # the worker's spans graft in as children of the dispatch
            grafted = [
                span for span in trace.spans if span.parent_id == dispatch.span_id
            ]
            assert grafted, names
            for span in grafted:
                assert span.started_ms >= dispatch.started_ms - 1.0
        finally:
            executor.shutdown()

    def test_no_trace_means_no_wire_payload(self):
        engine = _engine()
        executor = ProcessExecutor(engine, workers=1)
        try:
            target = engine.rank(QUERY, 5).doc_ids[0]
            response = executor.explain(ExplainRequest(QUERY, target, k=5))
            assert response.error is None
        finally:
            executor.shutdown()
