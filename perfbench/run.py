#!/usr/bin/env python3
"""partib end-to-end benchmark.

    python3 perfbench/run.py --workload zoo --seed 0 --seconds 10 --trace 0

Builds the measuring program (perfbench/CMakeLists.txt: the library sources in
Release with PARTIB_CHECK=OFF) into .bench_build/perfbench under the
checkout root, runs one workload, checks its outputs and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Output checks, each counted as failed operations rather than aborting:
  * the program's own: every pass repeats the first pass's results, and in
    a traced run each re-drive equals its trial form bit for bit;
  * here: the first pass's per-row result digests equal those recorded in
    spec.json (at the default seed for every row, at any seed for the rows
    the seed does not reach).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found next to perfbench/")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", "-DPARTIB_CHECK=OFF"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def digest_failures(raw, expected, seed):
    """Failed operations from rows whose digest differs from spec.json."""
    rows = raw["rows"]
    if expected is None:
        return 0
    if len(rows) != len(expected):
        print("perfbench: %d result rows, spec.json records %d"
              % (len(rows), len(expected)), file=sys.stderr)
        return raw["attempted"]
    failed = 0
    for i, (row, want) in enumerate(zip(rows, expected)):
        if (seed == 0 or row["seed_free"]) and row["digest"] != want:
            print("perfbench: row %d digest %s, expected %s"
                  % (i, row["digest"], want), file=sys.stderr)
            failed += raw["passes"]
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    program = build()
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("perfbench timed out")
    if proc.returncode != 0:
        die("perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("perfbench printed nothing")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        die("perfbench's last line is not JSON")

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    if set(raw["metrics"]) != {m["name"] for m in declared}:
        die("perfbench metrics %s differ from BENCHMARK.json"
            % sorted(set(raw["metrics"]) ^ {m["name"] for m in declared}))

    failed = raw["failed"] + digest_failures(
        raw, spec["workloads"][args.workload].get("digests"), args.seed)
    failed = min(failed, raw["attempted"])
    result = {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
