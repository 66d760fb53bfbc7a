#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload psi-query --seeds 1-10

Runs the benchmark once per seed (one run at a time, untraced, with the
run length from BENCHMARK.json) and prints, per metric, the median, the
quartiles and their distance as a share of the median, next to the
metric's bound. Runs are appended to perfbench/out/spread-<workload>.jsonl;
--compare A B reads two such files and prints the median shift between
them instead of running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(bench, runs):
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'ratio':>6}")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med, q1, q3, spread = summary(vals)
        print(f"{m['name']:24} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.4f} {m['bound']:6.3f} {spread / m['bound']:6.2f}")
    failed = sum(r["failed"] for r in runs)
    print(f"runs {len(runs)}, all correct: "
          f"{all(r['correct'] for r in runs)}, failed ops: {failed}")


def read_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(bench, first, second):
    print(f"{'metric':24} {'median A':>12} {'median B':>12} {'shift':>7} "
          f"{'bound':>6}")
    for m in bench["end_to_end"]:
        a, b = (statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in runs) for runs in (first, second))
        shift = (b - a) / a
        print(f"{m['name']:24} {a:12.6g} {b:12.6g} {shift:7.4f} "
              f"{m['bound']:6.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--compare", nargs=2, metavar="JSONL")
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        compare(bench, *(read_runs(p) for p in args.compare))
        return
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    out = os.path.join(HERE, "out", f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    runs = []
    for seed in seeds(args.seeds):
        res = run_once(bench, args.workload, seed)
        runs.append(res)
        with open(out, "a") as f:
            f.write(json.dumps(res) + "\n")
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}",
              flush=True)
    report(bench, runs)


if __name__ == "__main__":
    main()
