#!/usr/bin/env python3
"""The ReplayOpt benchmark: build perfbench, run one workload, check it.

    python3 perfbench/run.py --workload ga-compile --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds the `perfbench` program (CMake,
perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR or .bench_build, runs
the workload as one perfbench process per pass, checks the passes, and
prints as the last stdout line one JSON object: correct, attempted,
failed and the metrics BENCHMARK.json names for the mode (--trace 0:
end_to_end, --trace 1: per_layer), each with its unit.

A pass whose process crashes counts all of its operations as failed; the
run goes on. Exits non-zero without a result line when the build fails,
when no pass completes, or when the report does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 175.0  # the whole run, build check included

# Per workload: the seconds one untraced pass process takes on a 4-vCPU
# x86-64 VM (set-up, pass and reference checks), operations per pass, and
# evaluation workers. The pass time only sizes how many pipeline seeds
# --seconds covers. Few workers keep wall time steady on a shared host
# (NOTES.md, "Workloads").
WORKLOADS = {
    "ga-compile": (6.5, 9, 1),
    "ga-replay": (9.6, 12, 1),
    "fleet-1k": (13.0, 1, 2),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def remaining(deadline):
    return max(1.0, deadline - time.monotonic())


def build(deadline):
    """Configures (once) and builds the perfbench target; returns its path."""
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    out = os.path.join(os.path.abspath(base), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=remaining(deadline))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(out, "perfbench")
    if not os.path.isfile(exe):
        fail("build produced no perfbench binary")
    return exe


def pipeline_seeds(seed, count):
    """--seed itself, then splitmix64 derivations of it."""
    seeds, state = [seed], seed
    while len(seeds) < count:
        state = (state + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        seeds.append((z ^ (z >> 31)) >> 16)
    return seeds


def run_pass(exe, workload, seed, trace, deadline):
    """One perfbench process; returns its report, or None if it crashed."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--trace",
           str(trace), "--jobs", str(WORKLOADS[workload][2]),
           "--out", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("perfbench did not finish in time")
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print("perfbench seed %d exited with %d" % (seed, proc.returncode))
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    exe = build(deadline)

    # A cycle runs every pipeline seed once (a traced run: one seed, each
    # pass untraced then traced). Cycles repeat while the next one still
    # fits in --seconds.
    nominal_s, ops_per_pass, _ = WORKLOADS[args.workload]
    count = 1 if args.trace else max(1, round(args.seconds / nominal_s))
    seeds = pipeline_seeds(args.seed, min(count, 64))
    cycles = []
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        cycles.append([run_pass(exe, args.workload, s, args.trace, deadline)
                       for s in seeds])
        now = time.monotonic()
        if now - start + (now - cycle_start) > args.seconds:
            break

    attempted = failed = 0
    correct = True
    problems = []
    for cycle in cycles:
        for seed, report in zip(seeds, cycle):
            if report is None:
                attempted += ops_per_pass
                failed += ops_per_pass
                problems.append("seed %d: perfbench crashed" % seed)
                continue
            attempted += report["attempted"]
            failed += report["failed"]
            correct &= report["correct"]
    # Every pipeline seed must reproduce its digest in every cycle.
    for i, seed in enumerate(seeds):
        digests = {c[i]["pass"]["digest"] for c in cycles if c[i] is not None}
        if len(digests) > 1:
            correct = False
            problems.append("seed %d: repeated passes differ" % seed)
    passes = [r for c in cycles for r in c if r is not None]
    if not passes:
        fail("no pass completed")
    setup_ms = [ms for r in passes for ms in r["pass"]["setup_ms"]]

    if args.trace:
        got = {name: statistics.median(r["metrics"][name] for r in passes)
               for name in passes[0]["metrics"]}
        got["workloads.build_ms"] = statistics.median(setup_ms)
        got["fail_ratio"] = failed / attempted
    else:
        def median_pass(key):
            return statistics.median(r["pass"][key] for r in passes)
        speedups = [x for r in cycles[0] if r is not None
                    for x in r["pass"]["speedups"]]
        got = {
            "wall_s": median_pass("wall_s"),
            "cpu_s": median_pass("cpu_s"),
            "setup_s": statistics.median(setup_ms) / 1e3,
            "peak_rss_mb": median_pass("peak_rss_mb"),
            "speedup_geomean": math.exp(statistics.mean(map(math.log, speedups)))
            if speedups else 0.0,
        }

    names = {m["name"] for m in wanted}
    if set(got) != names:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
             % (sorted(names - set(got)), sorted(set(got) - names)))
    if not all(math.isfinite(v) for v in got.values()):
        fail("a metric is not a finite number")
    if not args.trace and any(v <= 0 for v in got.values()):
        problems.append("an end-to-end metric read 0")
        correct = False
    for p in problems:
        print("problem: " + p)
    metrics = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
