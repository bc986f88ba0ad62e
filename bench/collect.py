#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize it; optionally record a trajectory point.

    python3 bench/collect.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                             [--record LABEL]

For each workload, runs ``bench/run.py`` untraced once per seed (seeds
first-seed .. first-seed+runs-1) with BENCHMARK.json's ``run_seconds``, then
once traced at the first seed.  Prints every end-to-end metric's median,
quartiles (``statistics.quantiles(values, n=4)``) and spread, the
interquartile distance as a share of the median, next to its bound.  With
``--record``, appends the summary as one point to bench/trajectory.json.
Exits 1 if a run fails or a spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRAJECTORY = BENCH_DIR / "trajectory.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """(result, environment record, elapsed seconds) of one benchmark run."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["environment"], elapsed


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--record", metavar="LABEL",
                        help="append the summary to bench/trajectory.json under this label")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    point = {"label": args.record, "date": datetime.date.today().isoformat(),
             "runs": args.runs, "first_seed": args.first_seed, "run_seconds": seconds,
             "workloads": {}}
    too_wide = []
    for workload in workloads:
        results, environments, elapsed = [], [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env, took = run_once(workload, seed, seconds, 0)
            results.append(result)
            environments.append(env)
            elapsed.append(took)
        traced, traced_env, _ = run_once(workload, args.first_seed, seconds, 1)
        entry = {"end_to_end": {}, "run_elapsed_s": summarize(elapsed),
                 "all_correct": all(r["correct"] and not r["failed"] for r in results),
                 "ops_attempted": sum(r["attempted"] for r in results),
                 "ops_failed": sum(r["failed"] for r in results),
                 "environment": environments[0],
                 "loadavg_before": [env["loadavg_before"] for env in environments],
                 "loadavg_after": [env["loadavg_after"] for env in environments],
                 "traced": {key: m["value"] for key, m in traced["metrics"].items()},
                 "traced_correct": traced["correct"]}
        print(f"{workload}: {args.runs} runs, {statistics.median(elapsed):.1f} s each "
              f"(median), ops {entry['ops_attempted']}, failed {entry['ops_failed']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            summary = summarize([r["metrics"][name]["value"] for r in results])
            summary["unit"] = metric["unit"]
            entry["end_to_end"][name] = summary
            if name != "setup_s" and summary["spread"] > metric["bound"]:
                too_wide.append(f"{workload} {name}")
            print(f"  {name:14s} median {summary['median']:.6g} {metric['unit']:9s} "
                  f"q1 {summary['q1']:.6g} q3 {summary['q3']:.6g} "
                  f"spread {summary['spread']:.4f} (bound {metric['bound']})\n"
                  f"    runs: {' '.join(f'{v:.4g}' for v in summary['values'])}")
        point["workloads"][workload] = entry
        if not entry["all_correct"] or not traced["correct"]:
            too_wide.append(f"{workload} failed ops")
    if args.record:
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        trajectory.append(point)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    for problem in too_wide:
        print(f"NOT STEADY: {problem}", file=sys.stderr)
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
