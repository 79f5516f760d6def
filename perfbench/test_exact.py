#!/usr/bin/env python3
"""Exact metrics must not depend on the worker count.

    python3 perfbench/test_exact.py [--seed N]

Runs every workload in the reduced configuration (`perfbench --reduced`)
with 1 worker and with one worker per core, traced and untraced, and
asserts that every metric perfbench/metrics.json marks "exact" is
bit-identical between the two, as are correct/attempted/failed, the
speedups and the pass digest (best genomes, region cycles, engine
counters and cache statistics). Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import run

WORKLOADS = ("ga-compile", "ga-replay", "fleet-1k")


def measure(exe, workload, seed, trace, jobs):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--jobs", str(jobs), "--reduced",
           "--out", os.path.join(run.ROOT, ".bench_out")]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=600, cwd=run.ROOT).stdout
    return json.loads(out.rstrip("\n").split("\n")[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    with open(os.path.join(run.HERE, "metrics.json")) as f:
        catalog = json.load(f)
    exact = {name for level in catalog.values() for name, m in level.items()
             if m["kind"] == "exact"}
    exe = run.build(time.monotonic() + 1800)
    cores = os.cpu_count() or 1
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            serial = measure(exe, workload, args.seed, trace, 1)
            parallel = measure(exe, workload, args.seed, trace, cores)
            for key in ("correct", "attempted", "failed", "speedups", "digest"):
                a = serial.get(key, serial["pass"].get(key))
                b = parallel.get(key, parallel["pass"].get(key))
                if a != b:
                    problems.append("%s trace=%d %s: %r vs %r" % (
                        workload, trace, key, a, b))
            compared = sorted(exact & set(serial["metrics"]))
            for name in compared:
                a, b = serial["metrics"][name], parallel["metrics"].get(name)
                if a != b:
                    problems.append("%s trace=%d %s: %r at 1 worker, %r at %d"
                                    % (workload, trace, name, a, b, cores))
            print("%s trace=%d: digest, speedups and %d exact metrics "
                  "compared, 1 vs %d workers"
                  % (workload, trace, len(compared), cores))
    for p in problems:
        print("MISMATCH " + p)
    print("FAIL" if problems else "PASS")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
