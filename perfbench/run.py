#!/usr/bin/env python3
"""Build and run the SkyRAN repo benchmark.

One workload:

    python3 perfbench/run.py --workload campaign_day --seed 1 --seconds 25 --trace 0

All three workloads, with a metric table and an optional result-set file
for perfbench/layer_diff.py:

    python3 perfbench/run.py --all --trace 1 --out traced.json

Self-test of the benchmark's derived numbers:

    python3 perfbench/run.py --selftest

The benchmark builds the module libraries from ../src together with the
benchmark binary (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, default
.bench_build, under the repository root. Build output goes to stderr, so the
last stdout line of a single-workload run is the benchmark binary's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign_day", "fleet_radio", "paper_loop")


def lanes():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    """Configure once, then (re)build `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no SkyRAN sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"], **quiet)
        if r.returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    r = subprocess.run(["cmake", "--build", out, "--target", target, "-j", str(lanes())], **quiet)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out, target)


def bench_args(workload, a):
    return ["--workload", workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]


def run_all(binary, a):
    """Run every workload in its own process; print a table, write --out."""
    results, status = {}, 0
    for w in WORKLOADS:
        r = subprocess.run([binary] + bench_args(w, a), stdout=subprocess.PIPE, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0:
            status = 1
        if len(lines) < 2:
            print(f"{w}: no result (exit {r.returncode})")
            continue
        results[w] = {"env": json.loads(lines[-2]), "result": json.loads(lines[-1])}
    names = []
    for res in results.values():
        for m in res["result"]["metrics"]:
            if m not in names:
                names.append(m)
    print(f"{'metric':30}" + "".join(f"{w:>16}" for w in results) + "  unit")
    for m in names:
        cells, unit = "", ""
        for res in results.values():
            v = res["result"]["metrics"].get(m)
            cells += f"{v['value']:>16.6g}" if v else f"{'-':>16}"
            unit = v["unit"] if v else unit
        print(f"{m:30}{cells}  {unit}")
    for w, res in results.items():
        r = res["result"]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"trace": a.trace, "seed": a.seed, "seconds": a.seconds,
                       "workloads": results}, f, indent=1)
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--selftest", action="store_true", help="test the derived numbers")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --all: write the result set here")
    a = p.parse_args()
    if a.selftest:
        return subprocess.run([build("perfbench_selftest")]).returncode
    if not a.all and not a.workload:
        p.error("give --workload NAME, --all or --selftest")
    binary = build("perfbench")
    if a.all:
        return run_all(binary, a)
    return subprocess.run([binary] + bench_args(a.workload, a)).returncode


if __name__ == "__main__":
    sys.exit(main())
