#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady its metrics are.

Runs the command of BENCHMARK.json once per workload and seed, each run in a
fresh process exactly as a single measurement is made, and prints for every
metric its median and its quartile spread: (Q3 - Q1) / median, with the
quartiles of statistics.quantiles(values, n=4). The spread is compared with
the metric's bound from BENCHMARK.json; a spread above the bound fails.
Each run's host noise (steal share, load average) is shown beside it.

Run from the repository root:

    python3 perfbench/spread.py --workload hot-smallbank --seeds 1-10
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


HOST = re.compile(r"host: steal (?P<steal>[\d.]+)% of CPU, load average (?P<load>[\d.]+)")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {proc.returncode}): {' '.join(argv)}")
    host = next((m for m in map(HOST.search, lines) if m), None)
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"incorrect run: {' '.join(argv)}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(
        f"  {workload} seed={seed}: "
        + " ".join(f"{k}={v:.4g}" for k, v in values.items() if not trace or k in ("core.hop_us", "trace.overhead"))
        + (f" steal={host['steal']}% load={host['load']}" if host else ""),
        flush=True,
    )
    return values


def run_set(command, workload, seeds, seconds, trace):
    runs = [run_once(command, workload, seed, seconds, trace) for seed in seeds]
    return {name: [r[name] for r in runs] for name in runs[0]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    defs = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload:
        print(f"{workload}: seeds {args.seeds}, {seconds} s, trace {args.trace}", flush=True)
        runs = run_set(bench["command"], workload, args.seeds, seconds, args.trace)
        print(f"  {'metric':<26} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, values in runs.items():
            d = defs.get(name)
            s = spread(values) if len(values) >= 2 else 0.0
            line = f"  {name:<26} {statistics.median(values):>12.4f} {s:>8.4f} {d['bound'] if d else '-':>6}"
            if d and s > d["bound"]:
                line += "  SPREAD ABOVE BOUND"
                ok = False
            print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
