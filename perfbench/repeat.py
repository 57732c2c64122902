"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads witness-stats plan-fiber \
        --seeds 1 2 3 4 5 [--trace 0|1] [--json results.json]

Run from the root of a checkout.  For every workload and end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the interquartile spread as a share of the median, next to the
metric's bound in BENCHMARK.json.  --json also keeps every run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append({"seed": seed, **res})
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()
                             if args.trace == 0), flush=True)
        results[workload] = runs
        if len(runs) < 2:
            continue
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if args.trace and not any(values):
                continue
            s = summarize(values)
            bound = bounds.get(name)
            print(f"  {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
                  + (f"  bound {bound}" if bound is not None else ""), flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
