#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--threads <n>]
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds
perfbench/ (the repository's libraries from src/ plus the benchmark
program) in an optimized build under .bench_build/ (or $CARGO_TARGET_DIR
when set); later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.

--selftest runs the benchmark's self-test and checks that BENCHMARK.json
names exactly the metrics the benchmark reports.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configure (once) and build @targets; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources in %s/src; run from a "
                 "checkout of the repository" % ROOT)
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return out


def selftest():
    out = build(["perfbench_selftest"])
    binary = os.path.join(out, "perfbench_selftest")
    ok = subprocess.run([binary]).returncode == 0

    lines = subprocess.run([binary, "--catalog"], check=True,
                           capture_output=True, text=True).stdout.split("\n")
    catalog = {}
    for line in filter(None, lines):
        name, unit, better, kind = line.split()
        catalog[name] = (unit, better, kind)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            listed[metric["name"]] = (metric["unit"], metric["better"], kind)
    for name in sorted(set(catalog) | set(listed)):
        if catalog.get(name) != listed.get(name):
            print("FAIL: %s reported as %s, BENCHMARK.json has %s"
                  % (name, catalog.get(name), listed.get(name)))
            ok = False
    names = [w["name"] for w in spec["workloads"]]
    if names != ["node_paper", "node_tenant", "cluster_51k"]:
        print("FAIL: BENCHMARK.json workloads are %s" % names)
        ok = False
    print("BENCHMARK.json check: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out = build(["perfbench"])
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([
        os.path.join(out, "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--threads", str(args.threads),
        "--trace-dir", traces]).returncode


if __name__ == "__main__":
    sys.exit(main())
