#!/usr/bin/env python3
"""The perfbench program emits exactly the metrics BENCHMARK.json declares.

    metric_names_test.py PATH/TO/perfbench

Runs every workload for one pass, untraced and traced, and compares
the metric names on the last stdout line with BENCHMARK.json's end_to_end
and per_layer lists.  Also checks that spec.json documents every metric
and every workload, and that a recorded digest list has one digest per
result row.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    program = sys.argv[1]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "spec.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    errors = []
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        missing = set(declared[trace]) - set(spec[section])
        if missing:
            errors.append("spec.json %s lacks %s" % (section, sorted(missing)))
    for w in bench["workloads"]:
        name = w["name"]
        if name not in spec["workloads"]:
            errors.append("spec.json lacks workload %s" % name)
        for trace in (0, 1):
            proc = subprocess.run(
                [program, "--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=300)
            if proc.returncode != 0:
                errors.append("%s trace=%d exited %d" % (name, trace, proc.returncode))
                continue
            raw = json.loads(proc.stdout.strip().splitlines()[-1])
            if list(raw["metrics"]) != declared[trace]:
                errors.append("%s trace=%d emits %s, BENCHMARK.json declares %s"
                              % (name, trace, list(raw["metrics"]), declared[trace]))
            if raw["failed"] != 0 or raw["attempted"] < 1:
                errors.append("%s trace=%d: %d of %d operations failed"
                              % (name, trace, raw["failed"], raw["attempted"]))
            digests = spec["workloads"].get(name, {}).get("digests")
            if digests is not None and len(digests) != len(raw["rows"]):
                errors.append("%s: %d result rows, spec.json records %d digests"
                              % (name, len(raw["rows"]), len(digests)))
            if trace == 0 and any(v <= 0 for v in raw["metrics"].values()):
                errors.append("%s: an end-to-end metric is not positive: %s"
                              % (name, raw["metrics"]))
    for e in errors:
        print("FAIL: " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
