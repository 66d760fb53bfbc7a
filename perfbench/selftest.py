#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workload W ...] [--seeds A B]

For each workload: two traced runs with seed A must give identical
deterministic counts, identical answers and identical patterns; a traced
run with seed B must draw different patterns. The per-layer metrics a
traced run prints, and the end-to-end metrics run.py defines, must match
BENCHMARK.json by name and unit. Last, run.py must fail without printing a
result in a directory that holds only BENCHMARK.json and this directory.
Exits 1 on the first failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def traced(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    check(proc.returncode == 0, f"{workload} seed {seed}: traced run exits 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.OUT_DIR,
                           f"{workload}-seed{seed}-trace1.json")) as f:
        summary = json.load(f)
    check(result["correct"] and result["failed"] == 0,
          f"{workload} seed {seed}: {result['attempted']} operations, "
          f"none failed")
    return result, summary["info"]


def bare_directory():
    """run.py in a directory without the library: no result, exit != 0."""
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        dst = os.path.join(tmp, "perfbench")
        os.mkdir(dst)
        for fn in os.listdir(HERE):
            if os.path.isfile(os.path.join(HERE, fn)):
                shutil.copy(os.path.join(HERE, fn), dst)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "build",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the library: exit != 0 and no result")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    args = ap.parse_args()
    a, b = args.seeds
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check(declared == run.END_TO_END_UNITS,
          "end-to-end metrics match BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in args.workload or run.WORKLOADS:
        first, info1 = traced(workload, a)
        second, info2 = traced(workload, a)
        other, info3 = traced(workload, b)
        emitted = {k: v["unit"] for k, v in first["metrics"].items()}
        check(emitted == declared,
              f"{workload}: per-layer metrics match BENCHMARK.json")
        check(info1["counts"] == info2["counts"],
              f"{workload}: {len(info1['counts'])} deterministic counts "
              f"repeat with seed {a}")
        calls1 = {k: v["calls"] for k, v in info1["spans"].items()}
        calls2 = {k: v["calls"] for k, v in info2["spans"].items()}
        check(calls1 == calls2, f"{workload}: span call counts repeat")
        check(info1["answers_sha256"] == info2["answers_sha256"],
              f"{workload}: answers repeat with seed {a}")
        check(info1["patterns_sha256"] == info2["patterns_sha256"],
              f"{workload}: patterns repeat with seed {a}")
        check(info1["patterns_sha256"] != info3["patterns_sha256"],
              f"{workload}: seed {b} draws other patterns")
    bare_directory()


if __name__ == "__main__":
    main()
