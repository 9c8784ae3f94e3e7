#!/usr/bin/env bash
# Repo gate: the tier-1 test suite, the API suite's leak check, the
# benchmark smokes, the paper's figure and ablation scripts, the coverage
# floor, the examples over real HTTP, the paper's walk-through and the
# quickstart smoke.
#
# Tier-1 runs once, with DeprecationWarning as an error so no
# deprecated shim can come back. The smokes assert what the suite does
# not (speedups, overhead budgets, quality floors at size).
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: full test suite (deprecations are errors) =="
python -m pytest -x -q -W error::DeprecationWarning

echo
echo "== leaks: the API suite with unclosed sockets as errors =="
# Python cannot import pytest while it reads its own -W flags, so the
# unraisable-exception filter goes to pytest's -W instead. The CLI's jobs
# and metrics tests drive HttpClient over real sockets too.
python -X dev -W error::ResourceWarning -m pytest -q \
    -W error::pytest.PytestUnraisableExceptionWarning tests/api \
    tests/test_cli_jobs.py tests/test_cli_metrics.py

echo
echo "== smoke: search-strategy benchmark (beam multi-edit, anytime deadline) =="
SEARCH_SMOKE=1 python -m pytest -q benchmarks/bench_search_strategies.py

echo
echo "== smoke: API dispatch benchmark (overhead budget < 5%) =="
python -m pytest -q benchmarks/bench_api_dispatch.py

echo
echo "== smoke: counterfactual scoring-session speedup =="
CF_SESSION_SMOKE=1 python -m pytest -q benchmarks/bench_cf_session.py

echo
echo "== smoke: service batch throughput (parallel + store) =="
SERVICE_SMOKE=1 python -m pytest -q benchmarks/bench_service_throughput.py

echo
echo "== smoke: admission under 10x saturation (typed sheds, bounded p95) =="
ADMISSION_SMOKE=1 python -m pytest -q benchmarks/bench_admission.py

echo
echo "== smoke: process-tier benchmark (byte-identical across tiers) =="
PROC_SMOKE=1 python -m pytest -q benchmarks/bench_process_tier.py

echo
echo "== smoke: tracing overhead benchmark (no-op path + on/off sweeps) =="
OBS_SMOKE=1 python -m pytest -q benchmarks/bench_obs.py

echo
echo "== smoke: large-eval benchmark (quality floors + tier equivalence) =="
EVAL_SMOKE=1 python -m pytest -q benchmarks/bench_large_eval.py

echo
echo "== paper scripts: figures, ablations and extensions, once, untimed =="
python -m pytest -q --benchmark-disable benchmarks/bench_fig*.py \
    benchmarks/bench_ablation_*.py benchmarks/bench_extension_*.py \
    benchmarks/bench_substrates.py

echo
echo "== smoke: perfbench correctness, all four workloads (counterfactual recheck, packed vs in-memory top-k, store payloads and lost writes, Doc2Vec fidelity) =="
for workload in explain-interactive explain-packed-lm serve-open-loop instance-doc2vec; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 0 > /dev/null
done
echo "perfbench correctness smoke: ok"

echo
echo "== smoke: traced perfbench, all four workloads (every wrap target resolves and each workload's expected frames are called) =="
for workload in explain-interactive explain-packed-lm serve-open-loop instance-doc2vec; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 1 > /dev/null
done
echo "traced perfbench smoke: ok"

echo
echo "== coverage floor: eval + datasets layers (ratcheted) =="
python scripts/coverage_floor.py

echo
echo "== smoke: examples over real HTTP (kept-alive HttpClient) =="
python examples/serve_api.py > /dev/null
python examples/serve_jobs.py > /dev/null
echo "examples over HTTP: ok"

echo
echo "== smoke: the paper's section III walk-through (Figs. 2-5, Doc2Vec included) =="
python examples/fake_news_investigation.py > /dev/null
echo "walk-through smoke: ok"

echo
echo "== docs: quickstart smoke on a tiny corpus =="
QUICKSTART_RANKER=bm25 QUICKSTART_FILLER=12 \
    python examples/quickstart.py > /dev/null
echo "quickstart smoke: ok"

echo
echo "check.sh: all green"
