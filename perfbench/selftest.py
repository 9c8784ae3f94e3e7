"""Tests of the benchmark's measurement machinery.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, open-loop timing from the scheduled
send time, host-speed scaling, self time under overlapping child spans,
wrappers that uninstall cleanly and leave results unchanged, and the
comparison of two sets of results.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, loadgen, stats, tracing  # noqa: E402


class TailRule(unittest.TestCase):
    def test_samples_for_is_the_smallest_count_supporting_a_percentile(self):
        for q in (80.0, 90.0, 95.0, 99.0):
            count = stats.samples_for(q)
            self.assertGreaterEqual(stats.beyond(count, q), stats.TAIL_BEYOND)
            self.assertLess(stats.beyond(count - 1, q), stats.TAIL_BEYOND)
        self.assertEqual(stats.samples_for(90.0), 100)
        self.assertEqual(stats.samples_for(95.0), 200)

    def test_tail_records_value_and_sample_count(self):
        values = [float(v) for v in range(1, 101)]
        tail = stats.tail(values, 90.0)
        self.assertEqual(tail["value"], 90.0)
        self.assertEqual(tail["samples"], 100)
        self.assertEqual(tail["beyond"], 10)
        self.assertEqual(sum(1 for v in values if v > tail["value"]), 10)


class FakeTime:
    """A clock that moves only when the code under test sleeps or works."""

    def __init__(self, overshoot=0.0):
        self.now = 100.0
        self.overshoot = overshoot

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds + self.overshoot


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_the_scheduled_send_time(self):
        fake = FakeTime()
        arrivals = [loadgen.Arrival(offset, "x", None) for offset in (0.0, 0.01, 0.02)]

        def send(arrival, index):
            fake.now += 0.05  # every request takes 50 ms

        records, start = loadgen.run_open_loop(
            arrivals, send, connections=1, clock=fake.clock, sleep=fake.sleep
        )
        self.assertEqual(start, 100.0)
        latencies = [round(r.latency_ms, 6) for r in records]
        # The second request was due at 10 ms but the only connection was
        # busy until 50 ms: its latency includes the 40 ms it waited.
        self.assertEqual(latencies, [50.0, 90.0, 130.0])
        self.assertEqual([round(r.queue_wait_ms, 6) for r in records], [0.0, 40.0, 80.0])
        self.assertEqual([r.lateness_ms for r in records], [0.0, 0.0, 0.0])
        # The one connection was busy from 100.0 to 100.15 without a gap.
        self.assertAlmostEqual(loadgen.busy_seconds(records), 0.15)

    def test_busy_time_counts_overlapping_requests_once(self):
        sent = [loadgen.Sent(None, 0, 0, start, end) for start, end in ((0, 2), (1, 3), (5, 6))]
        self.assertEqual(loadgen.busy_seconds(sent), 4)

    def test_generator_lateness_is_reported_and_charged(self):
        fake = FakeTime(overshoot=0.002)
        arrivals = [loadgen.Arrival(0.01, "x", None)]
        records, _ = loadgen.run_open_loop(
            arrivals, lambda a, i: None, connections=1, clock=fake.clock, sleep=fake.sleep
        )
        self.assertAlmostEqual(records[0].lateness_ms, 2.0)
        self.assertAlmostEqual(records[0].latency_ms, 2.0)
        self.assertEqual(records[0].queue_wait_ms, 0.0)


class HostScaling(unittest.TestCase):
    def test_scale_follows_the_mean_reading_in_the_stretch(self):
        from perfbench.workloads import REFERENCE_PROBE_MS, SLOWDOWN_EXPONENT, HostMonitor

        monitor = HostMonitor()
        monitor.readings = [(1.0, 0.5), (2.0, 0.7), (3.0, 0.9), (9.0, 2.0)]
        self.assertAlmostEqual(
            monitor.scale(1.5, 3.5), (REFERENCE_PROBE_MS / 0.8) ** SLOWDOWN_EXPONENT
        )
        # No reading inside: the nearest one stands for the stretch.
        self.assertAlmostEqual(
            monitor.scale(7.0, 8.0), (REFERENCE_PROBE_MS / 2.0) ** SLOWDOWN_EXPONENT
        )

    def test_monitor_reads_until_stopped(self):
        from perfbench.workloads import HostMonitor

        deadline = time.monotonic() + 10
        with HostMonitor(period=0.001) as monitor:
            while len(monitor.readings) < 3 and time.monotonic() < deadline:
                time.sleep(0.001)
        count = len(monitor.readings)
        self.assertGreaterEqual(count, 3)
        self.assertFalse(monitor._thread.is_alive())
        self.assertEqual(len(monitor.readings), count)
        self.assertTrue(all(ms > 0 for _, ms in monitor.readings))

    def test_a_slow_window_reads_as_on_the_reference_host(self):
        from perfbench import run
        from perfbench.workloads import Outcome, Window

        class Workload:
            tail_percentile = 50.0
            limit_ms = 15.0

        outcomes = [Outcome(0.1 * i, "explain", 20.0, True, "a") for i in range(4)]
        outcomes += [Outcome(0.5, "rank", 4.0, True), Outcome(0.6, "explain", 12.0, True, "b")]
        # The host ran at half the reference speed: 20 ms read as 10 ms,
        # and the busy second counts as half a reference second.
        metrics, tails = run.window_metrics(outcomes, Window(0, 1, 1.0, 0.5), Workload, stats)
        self.assertEqual(metrics["rank_p50_ms"], 2.0)
        # The mean of strategy a's median (10 ms) and b's (6 ms).
        self.assertEqual(metrics["explain_p50_ms"], 8.0)
        self.assertEqual(metrics["explains_per_s"], 10.0)
        self.assertEqual(metrics["goodput_rps"], 12.0)
        self.assertEqual(tails["explain"]["samples"], 5)

    def test_each_metric_is_the_median_over_windows(self):
        from perfbench import run
        from perfbench.workloads import Outcome, Samples, Window

        class Workload:
            tail_percentile = 50.0
            limit_ms = 100.0

        samples = Samples()
        for start, ms in enumerate((4.0, 5.0, 40.0)):
            samples.windows.append(Window(start, start + 1, 1.0, 1.0))
            samples.outcomes += [Outcome(start, "rank", ms, True),
                                 Outcome(start + 0.5, "explain", ms, True, "a")]
        metrics, tails = run.run_metrics(samples, Workload, stats)
        self.assertEqual(metrics["rank_p50_ms"], 5.0)
        self.assertEqual(len(tails), 3)


class SelfTime(unittest.TestCase):
    def test_overlapping_children_are_subtracted_once(self):
        recorder = tracing.Recorder()
        span = tracing.Span
        recorder.spans = [
            span(1, "api.client", 0, 100, None, "r", "run"),
            span(2, "api.dispatch", 10, 50, 1, "r", "run"),
            span(3, "api.dispatch", 30, 70, 1, "r", "run"),
        ]
        self_ns = recorder.span_self_ns()
        self.assertEqual(self_ns[1], 40)  # 100 - |[10, 70]|
        self.assertEqual(self_ns[2], 40)
        self.assertEqual(self_ns[3], 40)

    def test_children_outside_the_parent_are_clipped(self):
        self.assertEqual(tracing.union_ns([(-5, 5), (8, 20)], 0, 10), 7)

    def test_counters_and_spans_nest_into_layer_self_times(self):
        ticks = iter(range(0, 10_000, 10))
        recorder = tracing.Recorder(clock=lambda: next(ticks))
        recorder.phase = "run"

        def leaf():
            return "leaf"

        def middle():
            return recorder.call("index.postings", tracing.COUNTER, leaf, (), {})

        def outer():
            return recorder.call("index.search", tracing.SPAN, middle, (), {})

        with recorder.request("r1"):
            recorder.call("engine.explain", tracing.SPAN, outer, (), {})
        layer_ns = recorder.request_layers("run")["r1"]
        # Every tick between the request's first and last reading is in
        # exactly one frame's self time.
        self.assertEqual(sum(layer_ns.values()), recorder.latencies["r1"] - 20)
        counters = recorder.counters("run")
        self.assertEqual(counters["index.postings"].calls, 1)

    def test_reentry_under_the_same_name_records_one_frame(self):
        recorder = tracing.Recorder()

        def inner():
            return 1

        def outer():
            return recorder.call("ranking.rank", tracing.SPAN, inner, (), {})

        recorder.call("ranking.rank", tracing.SPAN, outer, (), {})
        self.assertEqual(len(recorder.spans), 1)

    def test_server_span_on_another_thread_hangs_under_the_client_span(self):
        recorder = tracing.Recorder()

        def server():
            recorder.call("api.dispatch", tracing.SPAN, lambda: None, (), {}, "r9")

        def client():
            thread = threading.Thread(target=server)
            thread.start()
            thread.join(timeout=10)
            self.assertFalse(thread.is_alive())

        recorder.call("api.client", tracing.SPAN, client, (), {}, "r9")
        by_name = {span.name: span for span in recorder.spans}
        self.assertEqual(by_name["api.dispatch"].parent, by_name["api.client"].id)


class Wrappers(unittest.TestCase):
    def test_every_target_resolves_and_is_restored(self):
        before = {t.path: tracing.resolve(t.path)[2] for t in layers.targets()}
        instruments = layers.instrumentation(tracing.Recorder())
        with instruments.installed():
            for path, original in before.items():
                self.assertIsNot(tracing.resolve(path)[2], original, path)
        for path, original in before.items():
            self.assertIs(tracing.resolve(path)[2], original, path)

    def test_a_missing_target_fails_before_anything_is_wrapped(self):
        from repro.text.analyzer import Analyzer

        original = vars(Analyzer)["analyze"]
        targets = (
            tracing.Target("text.analyze", "repro.text.analyzer:Analyzer.analyze", tracing.COUNTER),
            tracing.Target("text.gone", "repro.text.analyzer:Analyzer.renamed", tracing.COUNTER),
        )
        instruments = tracing.Instrumentation(tracing.Recorder(), targets)
        with self.assertRaises(tracing.TargetMissing):
            instruments.install()
        self.assertIs(vars(Analyzer)["analyze"], original)

    def test_frame_a_workload_expects_but_never_called_is_reported(self):
        missing = layers.missing_calls(tracing.Recorder(), ("embeddings.lookup",))
        self.assertEqual(len(missing), 1)
        self.assertIn("Doc2Vec.vector", missing[0])

    def test_results_are_unchanged_under_the_wrappers(self):
        from perfbench.workloads import payload_digest, response_payload
        from repro.core.engine import CredenceEngine, EngineConfig
        from repro.core.explain import ExplainRequest
        from repro.datasets.stream import ZipfianVocabulary, stream_corpus

        vocabulary = ZipfianVocabulary.build(2_000)
        documents = list(stream_corpus(300, seed=5, vocabulary=vocabulary))
        engine = CredenceEngine(documents, EngineConfig(ranker="bm25"))
        query = " ".join(vocabulary.terms[20:22])
        ranking = engine.rank(query, 10)
        requests = [
            ExplainRequest(query, ranking.doc_ids[3], strategy=strategy, budget=300)
            for strategy in ("document/sentence-removal", "query/augmentation", "instance/cosine")
        ]

        def digest():
            return payload_digest(
                [ranking.to_dicts()] + [response_payload(engine.explain(r)) for r in requests]
            )

        untraced = digest()
        recorder = tracing.Recorder()
        with layers.instrumentation(recorder).installed():
            traced = digest()
        self.assertEqual(traced, untraced)
        self.assertEqual(digest(), untraced)
        self.assertTrue(any(span.name == "engine.explain" for span in recorder.spans))


class Spec(unittest.TestCase):
    def test_every_per_layer_metric_is_listed_in_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = {m["name"] for m in spec["per_layer"]}
        computed = set(layers.METRICS) | {f"layer.{layer}.share" for layer in layers.LAYERS}
        self.assertEqual(computed - listed, set())

    def test_every_metric_names_a_wrapped_frame(self):
        for metric, (frame, _) in layers.METRICS.items():
            self.assertIn(frame, layers.WRAPS, metric)


class Diff(unittest.TestCase):
    def write(self, directory, workload, seed, problems=(), value=1.0):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = {
            "env": {"cores": 2, "workload": workload, "seed": seed},
            "problems": list(problems),
            "metrics": {
                m["name"]: {"value": value, "unit": m["unit"]} for m in spec["end_to_end"]
            },
        }
        (Path(directory) / f"{workload}-s{seed}-t0.json").write_text(json.dumps(result))

    def diff(self, base_runs, head_runs) -> int:
        from perfbench import compare

        with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as head:
            for directory, runs in ((base, base_runs), (head, head_runs)):
                for seed, problems in runs:
                    self.write(directory, "w", seed, problems)
            return compare.main(["diff", base, head])

    def test_equal_results_pass(self):
        self.assertEqual(self.diff([(1, ()), (2, ())], [(1, ()), (2, ())]), 0)

    def test_a_head_that_fails_or_lacks_runs_is_a_regression(self):
        self.assertEqual(self.diff([(1, ()), (2, ())], [(1, ()), (2, ("wrong",))]), 1)
        self.assertEqual(self.diff([(1, ()), (2, ())], [(1, ())]), 1)
        self.assertEqual(self.diff([(1, ()), (2, ())], []), 1)


if __name__ == "__main__":
    unittest.main()
