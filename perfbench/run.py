"""Run one workload of the CREDENCE benchmark.

    python3 perfbench/run.py --workload explain-interactive --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the program is imported from
``src/``. It prints the environment, every metric with its unit, and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` measures untraced and reports the end-to-end
metrics; ``--trace 1`` wraps every layer (see ``perfbench/layers.py``)
and reports the per-layer metrics. Metric names, their order and units
come from ``BENCHMARK.json``. A run whose correctness gate fails
publishes no metrics and exits with status 1.

Results are also written to ``.perfbench_out/`` (spans of a traced run
as JSON lines); scratch files go to ``.perfbench_tmp/`` and are removed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: Explain requests replayed traced and untraced to compare their results.
PROBE = 12


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def environment(workload, args) -> dict:
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **workload.facts(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(workload, state, samples, layers, tracing, workloads) -> tuple[str, str]:
    """Digests of the same explain requests run untraced and traced."""
    requests = workload.probe_requests(samples, PROBE)
    engine = state.engine

    def digest():
        return workloads.payload_digest(
            [workloads.response_payload(engine.explain(r)) for r in requests]
        )

    untraced = digest()
    with layers.instrumentation(tracing.Recorder()).installed():
        traced = digest()
    return untraced, traced


def window_metrics(outcomes, window, workload, stats) -> tuple[dict, dict]:
    """The latency and rate metrics of one window, and its two tails.

    Latencies are scaled by the host's speed in the window, and rates
    count over its busy time, scaled the same way. Explain strategies
    differ in cost several times over, so the explain median is the mean
    of each strategy's own median: a median over the mix would jump
    between their modes.
    """
    scale = window.scale
    busy = window.busy * scale
    scaled = [dataclasses.replace(o, ms=o.ms * scale) for o in outcomes]
    explains = [o for o in scaled if o.kind in ("explain", "build")]
    strategies = defaultdict(list)
    for outcome in explains:
        strategies[outcome.label].append(outcome.ms)
    q = workload.tail_percentile
    tails = {
        "explain": stats.tail([o.ms for o in explains], q),
        "serve": stats.tail([o.ms for o in scaled], q),
    }
    return {
        "rank_p50_ms": stats.median([o.ms for o in scaled if o.kind == "rank"]),
        "explain_p50_ms": statistics.fmean(
            stats.median(latencies) for latencies in strategies.values()
        ),
        "explain_tail_ms": tails["explain"]["value"],
        "explains_per_s": sum(o.ok for o in explains) / busy,
        "serve_p50_ms": stats.median([o.ms for o in scaled]),
        "serve_tail_ms": tails["serve"]["value"],
        "goodput_rps": sum(o.ok and o.ms <= workload.limit_ms for o in scaled) / busy,
    }, tails


def run_metrics(samples, workload, stats) -> tuple[dict, list]:
    """Each latency and rate metric as the median of its per-window
    values, so a spell the host scaling misses in a few windows drops
    out; and the tails of every window."""
    windows = []
    for window in samples.windows:
        inside = [o for o in samples.outcomes if window.start <= o.at < window.end]
        windows.append(window_metrics(inside, window, workload, stats))
    metrics = {
        name: stats.median([values[name] for values, _ in windows])
        for name in windows[0][0]
    }
    return metrics, [tails for _, tails in windows]


def run(args, scratch: Path, spec: dict) -> int:
    from perfbench import layers, stats, tracing, workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    env = environment(workload, args)
    print(json.dumps({"env": env}), flush=True)
    # Every thread the run starts, the host monitor's and the server's
    # included, shares this one CPU with the benchmark.
    workloads.pin_to_one_cpu()
    recorder = tracing.Recorder() if args.trace else None
    instruments = layers.instrumentation(recorder) if recorder else None
    if instruments:
        instruments.install()
    with workload.monitor as monitor:
        time.sleep(0.1)  # the monitor's first readings
        setup_seconds, setup_scales = [], []
        state = None
        for _ in range(workload.setups):
            if state is not None:
                workload.close(state)
                state = None
                gc.collect()
            began = time.perf_counter()
            state = workload.setup()
            ended = time.perf_counter()
            setup_seconds.append(ended - began)
            setup_scales.append(monitor.scale(began, ended))
        try:
            side_runs = []
            if instruments:
                # Untraced explain latency from either side of the traced run,
                # for the tracing overhead ratio.
                instruments.uninstall()
                side_runs.append(workload.measure(state, args.seconds / 4))
                recorder.phase = "run"
                instruments.install()
            cache = state.engine.ranker
            cache_before = (cache.hits, cache.misses)
            began = time.perf_counter()
            try:
                samples = workload.measure(state, args.seconds, recorder)
            finally:
                if instruments:
                    instruments.uninstall()
            run_scale = monitor.scale(began, time.perf_counter())
            if instruments:
                side_runs.append(workload.measure(state, args.seconds / 4))
            hits, misses = cache.hits - cache_before[0], cache.misses - cache_before[1]
            problems = workload.check(state, samples)
            untraced, traced = probe(workload, state, samples, layers, tracing, workloads)
        finally:
            workload.close(state)
    if untraced != traced:
        problems.append(f"traced explain digest {traced} != untraced {untraced}")
    metrics, tails = run_metrics(samples, workload, stats)
    metrics.update(
        setup_s=stats.median(s * k for s, k in zip(setup_seconds, setup_scales)),
        cf_found_ratio=samples.found / samples.explains,
        ok_ratio=(samples.attempted - samples.failed) / samples.attempted,
        peak_rss_mb=peak_rss_mb(),
    )
    for position, window in enumerate(tails):
        for name, tail in window.items():
            if tail["beyond"] < stats.TAIL_BEYOND:
                problems.append(
                    f"window {position}: {name} tail p{tail['percentile']:g} has only "
                    f"{tail['beyond']} samples beyond it ({tail['samples']} in all)"
                )
    listed = spec["end_to_end"]
    if recorder:
        problems += layers.missing_calls(recorder, workload.expected)
        extra = samples.extra
        layer_metrics = layers.per_layer_metrics(
            recorder,
            requests=samples.attempted,
            setups=workload.setups,
            extra={
                "documents_saved": workload.corpus_size,
                "score_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "queue_wait_ms": extra.get("queue_wait_ms", 0.0),
                "admission_refused": extra.get("admission_refused", 0),
            },
        )
        writes = extra.get("write_ms")
        untraced_p50 = stats.median(
            [run_metrics(side, workload, stats)[0]["explain_p50_ms"] for side in side_runs]
        )
        layer_metrics.update({
            "obs.trace_overhead_ratio": metrics["explain_p50_ms"] / untraced_p50,
            "serve.write_p50_ms": stats.median(writes) if writes else 0.0,
            "gen.lateness_ms": extra.get("lateness_ms", 0.0),
            "gen.lateness_max_ms": extra.get("lateness_max_ms", 0.0),
            "host.scale": run_scale,
        })
        metrics = layer_metrics
        listed = spec["per_layer"]
    reported = {
        entry["name"]: {"value": metrics.pop(entry["name"]), "unit": entry["unit"]}
        for entry in listed
    }
    if metrics:
        raise KeyError(f"metrics not listed in BENCHMARK.json: {sorted(metrics)}")
    metrics = reported

    result = {
        "env": env,
        "setup_seconds": setup_seconds,
        "setup_scales": setup_scales,
        "tails": tails,
        "windows": [vars(window) for window in samples.windows],
        "explain_digest": untraced,
        "extra": {k: v for k, v in samples.extra.items() if k != "write_ms"},
        "problems": problems,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    if recorder:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in recorder.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")

    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)
    correct = not problems
    if correct:
        for name, entry in metrics.items():
            print(f"{name:34s} {entry['value']:14.6f} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, scratch, spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
