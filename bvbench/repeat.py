#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

    python3 bvbench/repeat.py --workload sweep-reuse --seeds 1-10 [--trace 0]
    python3 bvbench/repeat.py --summarize <runs.jsonl>

Run from the repository root. Each run lasts ``run_seconds`` from
BENCHMARK.json and appends its fingerprinted record to
``$CARGO_TARGET_DIR/bvbench/runs.jsonl`` (``target/bvbench/`` when unset);
the summary is made from the records these runs appended. For each
workload and metric it prints the median, the first and third quartiles
(Python's ``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, grouped by host fingerprint and run length: a result
from another fingerprint is another host or build and is not comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def count_lines(path):
    try:
        with open(path) as f:
            return sum(1 for _ in f)
    except FileNotFoundError:
        return 0


def summarize(records):
    groups = {}
    for r in records:
        host = json.dumps(r.get("host", {}), sort_keys=True)
        for name, m in r["metrics"].items():
            value = m["value"] if isinstance(m, dict) else m
            key = (host, r["seconds"], r["workload"], int(r["trace"]), name)
            groups.setdefault(key, []).append(value)
    last = None
    for (host, seconds, workload, trace, name), values in sorted(groups.items()):
        if (host, seconds) != last:
            print(f"host {host} seconds={seconds}")
            last = (host, seconds)
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {workload:<13} trace={trace} {name:<34} n={len(values):<3} "
              f"median={med:<14.6g} q1={q1:<14.6g} q3={q3:<14.6g} spread={spread:.4f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--summarize", metavar="RUNS_JSONL")
    args = ap.parse_args()
    if args.summarize:
        with open(args.summarize) as f:
            summarize([json.loads(line) for line in f if line.strip()])
        return
    if not args.workload:
        ap.error("--workload or --summarize is required")
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    runs = os.path.join(target, "bvbench", "runs.jsonl")
    already = count_lines(runs)
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    with open(runs) as f:
        summarize([json.loads(line) for line in f.readlines()[already:] if line.strip()])


if __name__ == "__main__":
    main()
