#!/usr/bin/env python3
"""The repository benchmark: build the program, run workloads, report.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload. The last line of standard output is one JSON
      object: correct, attempted, failed, and the metrics that
      BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
      --trace 1). Exit code 0 only if every correctness check passed.

  python3 perfbench/run.py [--seed N] [--seconds S]
      Every workload, untraced then traced, one after another. Prints
      every metric with its unit and clock, the tracing overhead, and
      a summary; exits non-zero if any check failed.

The benchmark program is built from ../src into .bench_build/ (CMake,
RelWithDebInfo). Per-run results, registry snapshots and Chrome
trace-event files go to .bench_build/results/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "perfbench")
DEFAULT_SEED = 1  # seed 7 is held out; see README.md
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read %s: %s" % (path, err))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace):
    """Runs the program once; returns (exit code, its result object)."""
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", RESULTS]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    if not lines:
        fail("%s printed nothing (exit %d)" % (workload, done.returncode))
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("%s did not end with a JSON result" % workload)
    return done.returncode, result


def contract_line(result, names):
    """The result restricted to @p names, in the contract's shape."""
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            fail("metric %s missing from %s" % (name, result["workload"]))
        m = result["metrics"][name]
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is not None and args.workload not in workloads:
        fail("unknown workload %r (have: %s)"
             % (args.workload, ", ".join(workloads)))
    build()

    if args.workload is not None:
        trace = args.trace if args.trace is not None else 0
        key = "per_layer" if trace else "end_to_end"
        names = [m["name"] for m in spec[key]]
        code, result = run_one(args.workload, args.seed, seconds, trace)
        print(json.dumps(contract_line(result, names)))
        return 0 if code == 0 and result["correct"] else 1

    # Every workload, untraced for the end-to-end metrics, then traced
    # for the per-layer ones.
    summary = {"correct": True, "attempted": 0, "failed": 0,
               "metrics": {}}
    rows = []
    for workload in workloads:
        workload_ok = True
        for trace in (0, 1):
            print("== %s, seed %d, trace %d" % (workload, args.seed, trace))
            code, result = run_one(workload, args.seed, seconds, trace)
            workload_ok = workload_ok and code == 0 and result["correct"]
            summary["attempted"] += int(result["attempted"])
            summary["failed"] += int(result["failed"])
            key = "per_layer" if trace else "end_to_end"
            for m in spec[key]:
                got = result["metrics"][m["name"]]
                summary["metrics"]["%s.%s" % (workload, m["name"])] = {
                    "value": got["value"], "unit": got["unit"]}
        summary["correct"] = summary["correct"] and workload_ok
        rows.append((workload, result["metrics"]["run_s"]["value"],
                     result["metrics"]["trace.overhead_s"]["value"],
                     "%08x" % result["fingerprint"],
                     "ok" if workload_ok else "FAILED"))
    print("== summary: workload, untraced run_s, tracing overhead, "
          "fingerprint, checks")
    for workload, run_s, overhead, fp, status in rows:
        print("%-18s %9.3f s %+9.3f s (%+.1f%%)  %s  %s"
              % (workload, run_s, overhead,
                 100.0 * overhead / run_s if run_s else 0.0, fp, status))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
