#!/usr/bin/env python3
"""The repository benchmark command.

    python3 perfbench/run.py --workload sweep|serve|million|fleet \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (the library, the CLI
and the perfbench binary, Release) into the build directory
($CARGO_TARGET_DIR, default .bench_build), runs one workload, and prints
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics are the end_to_end list of BENCHMARK.json (--trace 0) or its
per_layer list (--trace 1), each with the unit BENCHMARK.json gives it.
A per-layer metric the workload does not touch reads 0.  Exits non-zero
without a result line when the build, the run or the metric set fails.
See perfbench/NOTES.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds incrementally; the log goes to stderr."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src")):
        fail("no library sources next to perfbench/; run from a full checkout")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    catalog = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = build(os.path.join(build_dir, "perfbench"))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    raw = json.loads(lines[-1])

    values = raw["values"]
    names = {m["name"] for m in catalog}
    unknown = sorted(set(values) - names)
    if unknown:
        fail("binary reported metrics BENCHMARK.json does not list: "
             + ", ".join(unknown))
    metrics = {}
    for m in catalog:
        if m["name"] in values:
            value = values[m["name"]]
        elif args.trace:
            value = 0  # the workload does no work in this layer
        else:
            fail(f"end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for message in raw["failures"]:
        print(f"failed check: {message}")
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
