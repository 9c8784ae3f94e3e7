"""Repeat the benchmark over seeds, and compare two sets of results.

    python3 perfbench/compare.py spread --workload serve-open-loop --seeds 1-10
    python3 perfbench/compare.py diff BASE_DIR HEAD_DIR

``spread`` runs ``perfbench/run.py`` once per seed and prints, for every
end-to-end metric, the median and the interquartile distance as a share
of the median, against the metric's bound in ``BENCHMARK.json``.

``diff`` reads the untraced result files ``run.py`` leaves in
``.perfbench_out/`` (copy that directory aside after each side's runs)
and prints, per workload and metric, both medians and whether the head
is worse than the base by more than the bound. A head that fails the
correctness gate on more seeds than the base, or lacks a run the base
has, is a regression too. It refuses to compare results measured on
different numbers of usable cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_spread(args) -> int:
    spec = benchmark()
    values: dict[str, list[float]] = defaultdict(list)
    for seed in seeds(args.seeds):
        command = [
            *spec["command"], "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds or spec["run_seconds"]), "--trace", "0",
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if completed.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: failed (exit {completed.returncode})\n{completed.stderr}")
            return 1
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
        ), flush=True)
    print(f"\n{args.workload}: {len(seeds(args.seeds))} seeds")
    worst = 0.0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        width = spread(values[name])
        share = width / bound
        if name != "setup_s":
            worst = max(worst, share)
        print(f"  {name:18s} median {statistics.median(values[name]):12.5g} "
              f"spread {width:7.4f} bound {bound:5.3f} ({share:4.0%} of bound)")
    print(f"  widest spread (setup_s aside): {worst:.0%} of its bound")
    return 0


def load(directory: Path) -> dict:
    """The untraced results in ``directory``: usable core counts, and per
    workload the result of each seed."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    cores = set()
    for path in sorted(directory.glob("*-t0.json")):
        result = json.loads(path.read_text())
        cores.add(result["env"]["cores"])
        runs[result["env"]["workload"]][result["env"]["seed"]] = result
    return {"cores": cores, "runs": runs}


def run_diff(args) -> int:
    """Exit 1 when the head is worse than the base by more than a bound,
    fails more runs, or lacks a run the base has."""
    spec = benchmark()
    base, head = load(Path(args.base)), load(Path(args.head))
    if len(base["cores"] | head["cores"]) > 1:
        print(f"refusing to compare: usable cores differ "
              f"(base {sorted(base['cores'])}, head {sorted(head['cores'])})")
        return 2
    regressions = 0
    for workload, base_runs in sorted(base["runs"].items()):
        head_runs = head["runs"].get(workload, {})
        failed = {
            side: sorted(
                seed for seed in base_runs
                if seed not in runs or runs[seed]["problems"]
            )
            for side, runs in (("base", base_runs), ("head", head_runs))
        }
        print(f"{workload}: {len(base_runs)} base runs; failed or missing: "
              f"base {failed['base']}, head {failed['head']}")
        if len(failed["head"]) > len(failed["base"]):
            print("  head fails or lacks more runs than the base")
            regressions += 1
        values = {
            side: [result["metrics"] for result in runs.values() if not result["problems"]]
            for side, runs in (("base", base_runs), ("head", head_runs))
        }
        if not values["base"] or not values["head"]:
            regressions += not values["head"]
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = statistics.median(m[name]["value"] for m in values["base"])
            new = statistics.median(m[name]["value"] for m in values["head"])
            change = (new - old) / old if old else 0.0
            worse = change > bound if metric["better"] == "lower" else -change > bound
            regressions += worse
            print(f"  {name:18s} {old:12.5g} -> {new:12.5g} ({change:+.1%})"
                  f"{'  WORSE than bound' if worse else ''}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    over_seeds = commands.add_parser("spread")
    over_seeds.add_argument("--workload", required=True)
    over_seeds.add_argument("--seeds", default="1-10")
    over_seeds.add_argument("--seconds", type=float)
    two_sets = commands.add_parser("diff")
    two_sets.add_argument("base")
    two_sets.add_argument("head")
    args = parser.parse_args(argv)
    return run_spread(args) if args.command == "spread" else run_diff(args)


if __name__ == "__main__":
    sys.exit(main())
