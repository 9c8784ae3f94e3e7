#!/usr/bin/env bash
# Repo gate: the tier-1 test suite, the API suite's leak check, the
# search-strategy and large-eval smokes, the paper's figure and ablation
# scripts, perfbench's correctness checks, the coverage floor, the
# examples over real HTTP, the paper's walk-through and the quickstart
# smoke.
#
# Tier-1 runs once, with DeprecationWarning as an error so no
# deprecated shim can come back. The two benchmark smokes assert what
# the suite does not: the beam and anytime search contracts, and the
# quality floors at size. No step asserts a speed-up floor or an
# overhead budget: speed is measured by perfbench alone
# (BENCHMARK.json), which this gate runs for its correctness checks.
#
# Every step runs even when an earlier one fails, so one red step
# cannot hide the state of the others. The script exits 1 at the end,
# naming each step that failed.
#
# Usage: scripts/check.sh
set -uo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failed=()

# step NAME COMMAND...: run one gate step and record NAME if it fails.
step() {
    local name=$1
    shift
    echo
    echo "== $name =="
    if "$@"; then
        echo "-- ok: $name"
    else
        echo "-- FAILED: $name"
        failed+=("$name")
    fi
}

leak_check() {
    # Python cannot import pytest while it reads its own -W flags, so the
    # unraisable-exception filter goes to pytest's -W instead. The CLI's
    # jobs and metrics tests drive HttpClient over real sockets too.
    python -X dev -W error::ResourceWarning -m pytest -q \
        -W error::pytest.PytestUnraisableExceptionWarning tests/api \
        tests/test_cli_jobs.py tests/test_cli_metrics.py
}

paper_scripts() {
    python -m pytest -q --benchmark-disable benchmarks/bench_fig*.py \
        benchmarks/bench_ablation_*.py benchmarks/bench_extension_*.py
}

perfbench_all() {  # perfbench_all TRACE
    local workload
    for workload in explain-interactive explain-packed-lm serve-open-loop \
        instance-doc2vec; do
        python3 perfbench/run.py --workload "$workload" --seed 1 \
            --seconds 2 --trace "$1" > /dev/null || return
    done
}

quiet() {
    "$@" > /dev/null
}

examples_over_http() {
    quiet python examples/serve_api.py && quiet python examples/serve_jobs.py
}

step "tier-1: full test suite (deprecations are errors)" \
    python -m pytest -x -q -W error::DeprecationWarning
step "leaks: the API suite with unclosed sockets as errors" leak_check
step "smoke: search-strategy benchmark (beam multi-edit, anytime deadline)" \
    env SEARCH_SMOKE=1 python -m pytest -q benchmarks/bench_search_strategies.py
step "smoke: large-eval benchmark (quality floors + tier equivalence)" \
    env EVAL_SMOKE=1 python -m pytest -q benchmarks/bench_large_eval.py
step "paper scripts: figures, ablations and extensions, once, untimed" \
    paper_scripts
step "smoke: perfbench correctness, all four workloads (counterfactual recheck, packed vs in-memory top-k, store payloads and lost writes, Doc2Vec fidelity)" \
    perfbench_all 0
step "smoke: traced perfbench, all four workloads (every wrap target resolves and each workload's expected frames are called)" \
    perfbench_all 1
step "coverage floor: eval + datasets layers (ratcheted)" \
    python scripts/coverage_floor.py
step "smoke: examples over real HTTP (kept-alive HttpClient)" \
    examples_over_http
step "smoke: the paper's section III walk-through (Figs. 2-5, Doc2Vec included)" \
    quiet python examples/fake_news_investigation.py
step "docs: quickstart smoke on a tiny corpus" \
    quiet env QUICKSTART_RANKER=bm25 QUICKSTART_FILLER=12 \
    python examples/quickstart.py

echo
if ((${#failed[@]})); then
    echo "check.sh: ${#failed[@]} step(s) failed:"
    printf '  - %s\n' "${failed[@]}"
    exit 1
fi
echo "check.sh: all green"
