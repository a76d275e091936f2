#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise the spread of each metric.

  python3 bench/baseline.py --runs 10 --trace 0 --out bench/baseline.json
  python3 bench/baseline.py --runs 5 --workload cli_files --first-seed 11

Each run is `python3 bench/run.py --workload W --seed S --seconds T --trace X`
with T from BENCHMARK.json, seeds first-seed, first-seed+1, ... and the
workloads interleaved so that a slow spell of the machine is shared out.
For every metric it reports the median, the quartiles from
statistics.quantiles(values, n=4), and the quartile distance as a share of
the median, next to the metric's bound.  With --out the summary is merged
into that JSON file under "trace0" or "trace1", one entry per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[6:]) for line in lines if line.startswith("# env ")), {})
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    env = {}
    for k in range(args.runs):
        for workload in workloads:
            result, env = run_once(workload, args.first_seed + k, spec["run_seconds"], args.trace)
            results[workload].append(result)
            print(f"{workload} seed {args.first_seed + k}: {json.dumps(result)}", file=sys.stderr)

    summary = {}
    for workload, runs in results.items():
        metrics = {}
        for name in runs[0]["metrics"]:
            entry = summarise([r["metrics"][name]["value"] for r in runs])
            entry["unit"] = runs[0]["metrics"][name]["unit"]
            entry["bound"] = bounds.get(name)
            metrics[name] = entry
            share = entry["iqr_share"]
            print(
                f"{workload:12s} {name:40s} median {entry['median']:.6g} {entry['unit']:9s} "
                f"iqr/median {'-' if share is None else f'{share:.4f}'} bound {entry['bound']}"
            )
        summary[workload] = {
            "seeds": [args.first_seed + k for k in range(args.runs)],
            "run_seconds": spec["run_seconds"],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }

    if args.out is not None:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored["env"] = env
        stored.setdefault(f"trace{args.trace}", {}).update(summary)
        args.out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
