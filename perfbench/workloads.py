"""The benchmark's four workloads.

Each workload makes its inputs from the seed (not timed), sets the
system up (timed as ``setup_s``), measures for a fixed time, and then
checks what the system returned. The closed-loop workloads call the
engine directly, as the UI's one user would; ``serve-open-loop`` goes
through the HTTP server.

Why these four:

* ``explain-interactive`` - the search kernel and scoring sessions do
  most of the work; first-stage retrieval over an in-memory index is a
  small share.
* ``explain-packed-lm`` - first-stage retrieval and packed decoding
  dominate: the Dirichlet LM ranker scores every document of a packed
  index attached from disk.
* ``serve-open-loop`` - the service, result store, admission and HTTP
  layers do the work, with writes that invalidate the store beside the
  reads.
* ``instance-doc2vec`` - the only workload that touches the embeddings
  layer (training in set-up, lookups per explain).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from perfbench import loadgen, stats

from repro.api.app import serve
from repro.api.client import HttpClient, RetryPolicy
from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.datasets.stream import ZipfianVocabulary, sample_stream_queries, stream_corpus
from repro.errors import ReproError
from repro.eval.fidelity import recheck_explanation
from repro.index.persist import writer
from repro.ranking.cache import ScoreCache
from repro.ranking.rerank import candidate_pool

VOCABULARY_SIZE = 30_000
#: Evaluation budget of every explain request (budgets only, no deadlines).
BUDGET = 300
K = 10
#: The latency recorded for a failed request: it misses every limit.
FAILED_MS = 1e6
#: Entries of the host probe's table, and lookups per reading. The table
#: (about 23 MB) outgrows the CPU's private caches, so a reading depends
#: on the shared cache and memory the way the program's dict and object
#: traffic does. A fixed pure-Python loop was tried first: when the host
#: slowed the workloads by 65%, it slowed by only 22%.
PROBE_KEYS = 100_000
PROBE_LOOKUPS = 1_000
#: CPU time of one probe reading on the reference host, in ms. Timings
#: are reported as they would read on a host that reads this fast (the
#: fast state of the 2-vCPU machine the benchmark was built on).
REFERENCE_PROBE_MS = 0.75
#: Seconds between host probe readings.
PROBE_PERIOD = 0.05
#: The workloads slow down more than the probe when the host does: by
#: about the probe's slowdown to this power, as fitted on runs of the
#: closed-loop workloads in fast and slow spells (see README.md).
SLOWDOWN_EXPONENT = 1.2


@dataclass
class Op:
    """One user-visible request of a closed loop."""

    kind: str  # "rank" | "explain" | "build"
    call: Callable[[], Any]
    request: Any = None

    @property
    def label(self) -> str:
        """The explain strategy, with its search when one is named."""
        if self.kind == "build":
            return "builder"
        if self.kind != "explain":
            return ""
        return ":".join(filter(None, (self.request.strategy, self.request.search)))


@dataclass(frozen=True)
class Outcome:
    """One request the latency metrics are read from."""

    at: float  # seconds into the measured run it started (or was due)
    kind: str  # "rank" | "explain" | "build" | "write"
    ms: float  # latency; FAILED_MS when it failed
    ok: bool
    label: str = ""  # the explain strategy


@dataclass(frozen=True)
class Window:
    """A stretch of the measured run. ``busy`` is the seconds in it during
    which the system had a request in flight, which rates are counted
    over. ``scale`` is the host's speed during the stretch relative to the
    reference host (:meth:`HostMonitor.scale`): latencies are multiplied
    by it and busy time too, so rates are divided by it."""

    start: float
    end: float
    busy: float
    scale: float


@dataclass
class Samples:
    """What one measured run observed."""

    outcomes: list[Outcome] = field(default_factory=list)
    windows: list[Window] = field(default_factory=list)
    explains: int = 0
    found: int = 0
    attempted: int = 0
    failed: int = 0
    #: (op, result) per closed-loop request; (key, payload) per served explain.
    records: list[tuple] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def payload_digest(payloads) -> str:
    text = json.dumps(payloads, sort_keys=True, ensure_ascii=False, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def response_payload(response) -> dict:
    payload = response.to_dict()
    payload.pop("elapsed_seconds", None)
    return payload


def base_ranker(engine: CredenceEngine):
    ranker = engine.ranker
    return ranker.inner if isinstance(ranker, ScoreCache) else ranker


def without_query_terms(engine: CredenceEngine, query: str, doc_id: str) -> str:
    """The body a user edits by deleting every word matching the query."""
    analyzer = engine.index.analyzer
    terms = set(analyzer.analyze(query))
    words = engine.document(doc_id).body.split()
    kept = [word for word in words if analyzer.term_of(word) not in terms]
    return " ".join(kept) or words[0]


def warm(engine: CredenceEngine, query: str, strategies: tuple[str, ...]) -> None:
    """Build the lazily made explainers so the first measured call does
    not pay for them."""
    ranking = engine.rank(query, K)
    for strategy in strategies:
        for doc_id in ranking.doc_ids[1:]:
            try:
                engine.explain(ExplainRequest(query, doc_id, strategy=strategy, budget=BUDGET))
                break
            except ReproError:
                continue


class HostMonitor:
    """Reads the host's speed on a background thread every
    :data:`PROBE_PERIOD` seconds.

    The machine the benchmark was built on runs the same work up to 1.8
    times slower in some spells than in others, for seconds to minutes,
    with nothing else running inside it. Timings are scaled by
    :meth:`scale` over the stretch they were measured in, so they read as
    on a host of constant speed. Pin the process to one CPU before
    starting threads, so the monitor reads the CPU the work runs on.
    """

    def __init__(self, period: float = PROBE_PERIOD):
        self.period = period
        self.readings: list[tuple[float, float]] = []  # (perf_counter, ms)
        keys = [f"key-{i:07d}" for i in range(PROBE_KEYS)]
        self._table = {key: [i] for i, key in enumerate(keys)}
        picks = np.random.default_rng(0).integers(0, PROBE_KEYS, PROBE_LOOKUPS)
        self._lookups = [keys[int(i)] for i in picks]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-monitor", daemon=True)

    def probe_ms(self) -> float:
        """CPU time of a fixed run of dict lookups, in ms. Thread CPU time
        leaves out waiting for the GIL or for the CPU, so the reading
        follows the host's speed and not the program's other threads."""
        began = time.thread_time()
        total = 0
        for key in self._lookups:
            total += self._table[key][0]
        return (time.thread_time() - began) * 1e3

    def __enter__(self) -> "HostMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            ms = self.probe_ms()
            self.readings.append((time.perf_counter(), ms))

    def scale(self, start: float, end: float) -> float:
        """:data:`REFERENCE_PROBE_MS` over the mean probe reading taken
        between the ``perf_counter`` times ``start`` and ``end`` (the
        nearest reading when none fell inside), to the power
        :data:`SLOWDOWN_EXPONENT`."""
        readings = list(self.readings)
        inside = [ms for at, ms in readings if start <= at <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(readings, key=lambda reading: abs(reading[0] - middle))[1]]
        return (REFERENCE_PROBE_MS / statistics.fmean(inside)) ** SLOWDOWN_EXPONENT


def pin_to_one_cpu() -> None:
    """Run this thread, and every thread it starts later, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def closed_loop(
    script: Iterator[Op],
    seconds: float,
    window_explains: int,
    monitor: HostMonitor,
    recorder=None,
) -> Samples:
    """Run ``script``'s requests back to back in windows of
    ``window_explains`` explains, until the first window end after
    ``seconds``."""
    samples = Samples()
    start = time.perf_counter()
    result = None
    window_start, in_window = start, 0
    while True:
        op = script.send(result)
        request_id = f"req-{samples.attempted}"
        began = time.perf_counter()
        try:
            if recorder is None:
                result = op.call()
            else:
                with recorder.request(request_id):
                    result = op.call()
        except ReproError:
            result = None
        elapsed = (time.perf_counter() - began) * 1e3
        ok = result is not None
        samples.attempted += 1
        samples.failed += not ok
        samples.outcomes.append(
            Outcome(began - start, op.kind, elapsed if ok else FAILED_MS, ok, op.label)
        )
        samples.records.append((op, result))
        if op.kind == "rank":
            continue
        samples.explains += 1
        if ok:
            samples.found += bool(
                result.is_valid_counterfactual if op.kind == "build" else result.explanations
            )
        in_window += 1
        if in_window < window_explains:
            continue
        window_end = time.perf_counter()
        samples.windows.append(Window(
            window_start - start, window_end - start, window_end - window_start,
            monitor.scale(window_start, window_end),
        ))
        if window_end >= start + seconds:
            return samples
        window_start, in_window = window_end, 0


def check_closed_loop(engine: CredenceEngine, records) -> list[str]:
    """Recheck every returned counterfactual through the engine."""
    problems = []
    ranker = base_ranker(engine)
    for op, result in records:
        if result is None or op.kind == "rank":
            continue
        if op.kind == "build":
            query, doc_id, body = op.request
            pool = [
                document.with_body(body) if document.doc_id == doc_id else document
                for document in candidate_pool(ranker, query, K)
            ]
            rank = ranker.rank_candidates(query, pool).rank_of(doc_id)
            if rank != result.rank_after:
                problems.append(
                    f"builder {query!r}/{doc_id}: reported rank "
                    f"{result.rank_after}, naive re-rank {rank}"
                )
            continue
        for explanation in result.explanations:
            check = recheck_explanation(engine, explanation, k=op.request.k)
            if not check.valid:
                problems.append(
                    f"{op.request.strategy} {op.request.query!r}/"
                    f"{op.request.doc_id}: fidelity failed ({check.detail})"
                )
    return problems


class Workload:
    """Base class: a workload's inputs, set-up, measured run and checks."""

    name = ""
    #: The tail percentile reported for explain and serve latency.
    tail_percentile = 90.0
    #: Latency limit on the tail, in ms (goodput counts requests within it).
    limit_ms = 100.0
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 3
    #: Frames the traced run must see called.
    expected: tuple[str, ...] = ()
    corpus_size = 0

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.monitor = HostMonitor()
        self.vocabulary = ZipfianVocabulary.build(VOCABULARY_SIZE)
        self.documents = list(
            stream_corpus(self.corpus_size, seed=seed, vocabulary=self.vocabulary)
        )

    def queries(self, count: int, band: tuple[int, int], terms: tuple[int, int], salt: int):
        return sample_stream_queries(
            count, vocabulary=self.vocabulary, seed=self.seed * 1000 + salt,
            rank_band=band, terms_per_query=terms,
        )

    def setup(self):
        raise NotImplementedError

    def script(self, engine: CredenceEngine) -> Iterator[Op]:
        """The closed loop's requests; each ``yield`` receives the
        previous request's result (None when it failed)."""
        raise NotImplementedError

    def measure(self, state, seconds: float, recorder=None) -> Samples:
        """Measure for ``seconds``, in windows that each hold the explains
        the tail percentile needs."""
        return closed_loop(
            self.script(state.engine), seconds,
            stats.samples_for(self.tail_percentile), self.monitor, recorder,
        )

    def check(self, state, samples: Samples) -> list[str]:
        return check_closed_loop(state.engine, samples.records)

    def probe_requests(self, samples: Samples, count: int = 12) -> list[ExplainRequest]:
        """The first explain requests of the run, replayed to compare
        traced and untraced results."""
        requests = [
            op.request for op, result in samples.records
            if op.kind == "explain" and result is not None
        ]
        return requests[:count]

    def facts(self) -> dict:
        return {"corpus_documents": self.corpus_size}

    def close(self, state) -> None:
        pass


@dataclass
class EngineState:
    engine: CredenceEngine
    extra: dict = field(default_factory=dict)


class ExplainInteractive(Workload):
    """One closed-loop user: rank a fresh query, explain 2-3 of its hits."""

    name = "explain-interactive"
    corpus_size = 4_000
    tail_percentile = 95.0
    limit_ms = 100.0
    #: (strategy, search) rotation; "builder" is a user-built edit.
    rotation = (
        ("document/sentence-removal", None),
        ("document/greedy", None),
        ("query/augmentation", "greedy"),
        ("query/augmentation", "beam"),
        ("instance/cosine", None),
        ("builder", None),
    )
    expected = (
        "text.analyze", "index.search", "index.score_all", "index.postings",
        "index.doc_ids", "index.add_documents", "ranking.rank",
        "ranking.session_open", "ranking.session_score", "search.generate",
        "search.run", "engine.rank", "engine.explain", "engine.builder",
    )

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.query_pool = self.queries(6_000, (16, 1024), (2, 3), salt=1)

    def setup(self):
        engine = CredenceEngine(self.documents, EngineConfig(ranker="bm25"))
        warm(engine, self.query_pool[-1], tuple(s for s, _ in self.rotation[:-1]))
        return EngineState(engine)

    def script(self, engine: CredenceEngine) -> Iterator[Op]:
        rng = np.random.default_rng(self.seed)
        rotation = itertools.cycle(self.rotation)
        # Sessions explain 2, 3, 2, 3, ... documents, so every window of
        # 200 explains holds the same mix of ranks and strategies.
        counts = itertools.cycle((2, 3))
        for query in self.query_pool[:-1]:
            ranking = yield Op("rank", lambda q=query: engine.rank(q, K), query)
            if ranking is None or len(ranking) < K:
                continue
            count = next(counts)
            for rank in sorted(rng.choice(np.arange(2, K + 1), size=count, replace=False)):
                doc_id = ranking.doc_ids[int(rank) - 1]
                strategy, search = next(rotation)
                if strategy == "builder":
                    body = without_query_terms(engine, query, doc_id)
                    yield Op(
                        "build",
                        lambda q=query, d=doc_id, b=body: engine.build_counterfactual(
                            q, d, edited_body=b, k=K
                        ),
                        (query, doc_id, body),
                    )
                    continue
                request = ExplainRequest(
                    query, doc_id, strategy=strategy, search=search, budget=BUDGET
                )
                yield Op("explain", lambda r=request: engine.explain(r), request)
        raise RuntimeError("query pool exhausted")


class ExplainPackedLm(Workload):
    """One closed-loop user against a packed v3 index attached from disk."""

    name = "explain-packed-lm"
    corpus_size = 500
    tail_percentile = 75.0
    limit_ms = 500.0
    #: Set-up is short here, so more of them steady its median.
    setups = 7
    expected = (
        "index.search", "index.score_all", "index.doc_ids",
        "index.add_documents", "persist.save_v3", "persist.attach",
        "ranking.rank", "ranking.session_open", "ranking.session_score",
        "search.generate", "search.run", "engine.rank", "engine.explain",
    )

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.query_pool = self.queries(2_000, (8, 512), (2, 2), salt=2)
        self._saves = 0
        self.reference: CredenceEngine | None = None

    def setup(self):
        self._saves += 1
        ingested = CredenceEngine(self.documents, EngineConfig(ranker="lm", shards=4))
        path = self.scratch / f"packed-{self._saves}" / "index.v3"
        path.parent.mkdir(parents=True)
        writer.save_v3(ingested.index, path)
        del ingested
        engine = CredenceEngine.load(path, config=EngineConfig(ranker="lm"))
        warm(engine, self.query_pool[-1], ("document/sentence-removal",))
        return EngineState(engine, {"path": path.parent})

    def script(self, engine):
        rng = np.random.default_rng(self.seed)
        for query in self.query_pool[:-1]:
            ranking = yield Op("rank", lambda q=query: engine.rank(q, K), query)
            if ranking is None or len(ranking) < K:
                continue
            doc_id = ranking.doc_ids[int(rng.integers(2, K + 1)) - 1]
            request = ExplainRequest(
                query, doc_id, strategy="document/sentence-removal", budget=BUDGET
            )
            yield Op("explain", lambda r=request: engine.explain(r), request)
        raise RuntimeError("query pool exhausted")


    def check(self, state, samples):
        problems = check_closed_loop(state.engine, samples.records)
        # The packed engine must rank exactly as an in-memory engine over
        # the same corpus, built here outside the measured region.
        if self.reference is None:
            self.reference = CredenceEngine(self.documents, EngineConfig(ranker="lm"))
        for op, ranking in samples.records:
            if op.kind != "rank" or ranking is None:
                continue
            expected = self.reference.rank(op.request, K)
            if ranking.doc_ids != expected.doc_ids:
                problems.append(f"packed top-{K} for {op.request!r} differs from in-memory")
            elif any(
                abs(a.score - b.score) > 1e-9 * max(1.0, abs(b.score))
                for a, b in zip(ranking, expected)
            ):
                problems.append(f"packed scores for {op.request!r} differ from in-memory")
        return problems

    def close(self, state):
        close = getattr(state.engine.index, "close", None)
        if close is not None:
            close()
        shutil.rmtree(state.extra["path"], ignore_errors=True)


class InstanceDoc2Vec(Workload):
    """One closed-loop user asking for Doc2Vec nearest-instance explanations."""

    name = "instance-doc2vec"
    corpus_size = 300
    tail_percentile = 95.0
    limit_ms = 100.0
    expected = (
        "index.search", "index.add_documents", "ranking.rank", "engine.rank",
        "engine.explain", "embeddings.doc2vec_train", "embeddings.lookup",
    )

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.query_pool = self.queries(6_000, (8, 128), (2, 3), salt=3)

    def setup(self):
        engine = CredenceEngine(
            self.documents, EngineConfig(ranker="bm25", doc2vec_epochs=10, seed=self.seed)
        )
        engine.doc2vec  # trains the model
        warm(engine, self.query_pool[-1], ("instance/doc2vec",))
        return EngineState(engine)

    def script(self, engine):
        rng = np.random.default_rng(self.seed)
        counts = itertools.cycle((1, 2))  # a fixed mix of ranks and explains
        for query in self.query_pool[:-1]:
            ranking = yield Op("rank", lambda q=query: engine.rank(q, K), query)
            if ranking is None or len(ranking) < K:
                continue
            count = next(counts)
            for rank in sorted(rng.choice(np.arange(2, K + 1), size=count, replace=False)):
                request = ExplainRequest(
                    query, ranking.doc_ids[int(rank) - 1], strategy="instance/doc2vec"
                )
                yield Op("explain", lambda r=request: engine.explain(r), request)
        raise RuntimeError("query pool exhausted")



class ServeOpenLoop(Workload):
    """An open-loop crowd of users against the HTTP server.

    Explain requests repeat keys with Zipf popularity, so the result
    store hits often; a steady trickle of document writes bumps the index
    version and invalidates it. Requests arrive evenly spaced at a fixed
    rate, the reference rate, and each write interval is one window.
    Evenly spaced arrivals keep latency close to service time, which the
    host scaling corrects; with Poisson arrivals the tail also read the
    queueing behind bursts, which grows faster than the host slows.

    The arrival schedule - times, request kinds, and which key by its
    popularity rank - comes from a fixed seed, the same for every
    ``--seed``, so the store's sequence of hits and misses is the same
    too. ``--seed`` picks the corpus, the queries and the keys.
    """

    name = "serve-open-loop"
    corpus_size = 5_000
    tail_percentile = 90.0
    limit_ms = 50.0
    connections = 2
    queue_bound = 16
    #: Low enough that the service is busy about a fifth of the time, so
    #: queueing does not swamp latency when the host runs slow.
    reference_rps = 60.0
    rank_share = 0.25
    #: Every stretch of this many seconds holds one write, in its middle,
    #: and is one window: long enough for 100 explains at the tail.
    write_interval = 2.5
    write_documents = 2
    #: Few keys with steep popularity: four explains in five are
    #: store hits, so the explain median reads the hit path and the tail
    #: the miss path, each from the middle of its own population.
    key_space = 40
    zipf_exponent = 1.3
    schedule_seed = 2024
    #: One strategy keeps the cost of a store miss alike across keys.
    strategies = ("document/sentence-removal",)
    expected = (
        "text.analyze", "index.search", "index.add_documents", "ranking.rank",
        "ranking.session_score", "search.run", "engine.rank", "engine.explain",
        "service.admit", "service.explain", "service.store_get",
        "service.store_put", "service.metrics_snapshot", "api.dispatch",
        "api.client",
    )

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.query_pool = self.queries(600, (16, 1024), (2, 3), salt=4)
        self._keys: list[ExplainRequest] | None = None
        self._written = 0
        self._runs = 0

    def setup(self):
        engine = CredenceEngine(self.documents, EngineConfig(ranker="bm25"))
        warm(engine, self.query_pool[-1], self.strategies)
        server = serve(
            engine, port=0, workers=self.connections, tracing=False,
            max_queue_depth=self.queue_bound,
        )
        client = HttpClient(server.url, timeout=30.0, retry=RetryPolicy(max_attempts=1))
        return EngineState(engine, {"server": server, "client": client})

    def keys(self, engine: CredenceEngine) -> list[ExplainRequest]:
        """Explain requests that succeed on the corpus, most popular first."""
        if self._keys is None:
            rng = np.random.default_rng(self.seed + 11)
            keys: list[ExplainRequest] = []
            for query in self.query_pool[:-1]:
                ranking = engine.rank(query, K)
                if len(ranking) < K:
                    continue
                for rank in rng.choice(np.arange(2, 7), size=2, replace=False):
                    request = ExplainRequest(
                        query, ranking.doc_ids[int(rank) - 1],
                        strategy=self.strategies[len(keys) % len(self.strategies)],
                        budget=BUDGET,
                    )
                    try:
                        engine.explain(request)
                    except ReproError:
                        continue
                    keys.append(request)
                if len(keys) >= self.key_space:
                    break
            self._keys = keys
        return self._keys

    def _write_batch(self, rng: np.random.Generator) -> list[dict]:
        """New documents made of rare terms only, so they never enter a
        query's top-k and every explain key stays answerable."""
        tail = self.vocabulary.terms[VOCABULARY_SIZE // 2:]
        batch = []
        for _ in range(self.write_documents):
            words = [tail[int(i)] for i in rng.integers(0, len(tail), size=18)]
            body = ". ".join(" ".join(words[i:i + 6]) for i in range(0, 18, 6)) + "."
            batch.append({"doc_id": f"write-{self.seed}-{self._written:06d}", "body": body})
            self._written += 1
        return batch

    def schedule(self, keys: int, rate: float, seconds: float, rng) -> list[loadgen.Arrival]:
        weights = 1.0 / np.power(np.arange(1, keys + 1), self.zipf_exponent)
        weights /= weights.sum()
        arrivals = []
        for offset in np.arange(0.5, rate * seconds) / rate:
            if rng.random() < self.rank_share:
                query = self.query_pool[int(rng.integers(0, len(self.query_pool) - 1))]
                arrivals.append(loadgen.Arrival(offset, "rank", {"query": query, "k": K}))
            else:
                key = int(rng.choice(keys, p=weights))
                arrivals.append(loadgen.Arrival(offset, "explain", key))
        for offset in np.arange(self.write_interval / 2, seconds, self.write_interval):
            arrivals.append(
                loadgen.Arrival(float(offset), "write", {"documents": self._write_batch(rng)})
            )
        return sorted(arrivals, key=lambda arrival: arrival.offset)

    def measure(self, state, seconds, recorder=None):
        engine, client = state.engine, state.extra["client"]
        keys = self.keys(engine)
        bodies = [
            {"query": r.query, "doc_id": r.doc_id, "strategy": r.strategy, "budget": BUDGET}
            for r in keys
        ]
        paths = {"explain": "/explanations", "rank": "/rank", "write": "/index/documents"}
        windows = max(1, round(seconds / self.write_interval))
        arrivals = self.schedule(
            len(keys), self.reference_rps, windows * self.write_interval,
            np.random.default_rng(self.schedule_seed),
        )
        self._runs += 1
        service = engine.service()
        refused_before = _admission_refusals(service)

        def send(arrival, index, run=self._runs):
            body = bodies[arrival.payload] if arrival.kind == "explain" else arrival.payload
            request_id = f"r{run}-{index}"
            headers = {"X-Request-Id": request_id}
            if recorder is None:
                return client.post(paths[arrival.kind], body, headers=headers)
            with recorder.request(request_id):
                return client.post(paths[arrival.kind], body, headers=headers)

        records, start = loadgen.run_open_loop(arrivals, send, self.connections)
        samples = Samples()
        self._tally(samples, records, start, windows)
        samples.extra["admission_refused"] = _admission_refusals(service) - refused_before
        return samples

    def _tally(self, samples: Samples, records, start: float, windows: int) -> None:
        for record in records:
            ok = _served(record)
            kind = record.arrival.kind
            samples.attempted += 1
            samples.failed += not ok
            if kind == "explain":
                samples.explains += 1
                if ok:
                    samples.found += bool(record.result.payload.get("explanations"))
                    samples.records.append((record.arrival.payload, record.result.payload))
            samples.outcomes.append(Outcome(
                record.due - start, kind, record.latency_ms if ok else FAILED_MS, ok,
                self.strategies[0] if kind == "explain" else "",
            ))
        for position in range(windows):
            low = start + position * self.write_interval
            high = low + self.write_interval
            inside = [record for record in records if low <= record.due < high]
            samples.windows.append(Window(
                low - start, high - start, loadgen.busy_seconds(inside),
                self.monitor.scale(low, high),
            ))
        samples.extra.update(
            write_ms=[o.ms for o in samples.outcomes if o.kind == "write"],
            queue_wait_ms=statistics.fmean(record.queue_wait_ms for record in records),
            lateness_ms=statistics.fmean(record.lateness_ms for record in records),
            lateness_max_ms=max(record.lateness_ms for record in records),
        )

    def check(self, state, samples):
        """Every response succeeded; a sample of store-served payloads
        equals what the engine computes now; every counterfactual of
        those rechecks; and no write was lost."""
        problems = []
        if samples.failed:
            problems.append(f"{samples.failed} of {samples.attempted} requests failed")
        engine, client = state.engine, state.extra["client"]
        keys = self.keys(engine)
        seen = sorted({key for key, _ in samples.records})[:30]
        for key in seen:
            request = keys[key]
            body = {"query": request.query, "doc_id": request.doc_id,
                    "strategy": request.strategy, "budget": BUDGET}
            served = client.post("/explanations", body).payload
            direct = engine.explain(request)
            if served.get("explanations") != response_payload(direct).get("explanations"):
                problems.append(f"served payload for key {key} differs from the engine")
            for explanation in direct.explanations:
                if not recheck_explanation(engine, explanation, k=K).valid:
                    problems.append(f"key {key}: fidelity failed")
        expected = self.corpus_size + self._written
        if len(engine.index) != expected:
            problems.append(f"index holds {len(engine.index)} documents, expected {expected}")
        return problems

    def probe_requests(self, samples, count=12):
        return self._keys[:count]

    def facts(self):
        return {
            "corpus_documents": self.corpus_size,
            "rate_rps": self.reference_rps,
            "connections": self.connections,
        }

    def close(self, state):
        state.extra["server"].stop()
        state.engine.service().shutdown()


def _served(record: loadgen.Sent) -> bool:
    return record.error is None and record.result.status in (200, 201)


def _admission_refusals(service) -> int:
    """Requests the service's admission checks refused so far, read from
    the same snapshot ``GET /metrics`` serves."""
    counters = service.metrics_snapshot()["counters"]
    return sum(
        counters[name]
        for name in (
            "requests_shed", "requests_rate_limited",
            "requests_rejected_open_circuit", "requests_rejected_draining",
        )
    )


WORKLOADS = {
    workload.name: workload
    for workload in (ExplainInteractive, ExplainPackedLm, ServeOpenLoop, InstanceDoc2Vec)
}
