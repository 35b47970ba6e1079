#!/usr/bin/env python3
"""Self-test of the benchmark (registered with the benchmark's ctest).

    python3 benchmark/selftest.py --binary build-bench/temco_bench \\
        --spec BENCHMARK.json --scratch build-bench/selftest

1. A --quick pass of every workload in BENCHMARK.json, untraced and traced,
   must succeed and emit every end-to-end (untraced) or per-layer (traced)
   metric the spec names, finite and with the spec's unit.
2. A --corrupt-reference pass of one offline and one serving workload must
   exit non-zero and report correct=false with failed > 0.
"""
import argparse
import json
import math
import os
import subprocess
import sys


def run(binary, scratch, *flags):
    command = [binary, "--seed", "1", "--seconds", "1", "--quick", "--scratch", scratch]
    command += list(flags)
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(result, wanted, where):
    problems = []
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append("%s: metric %s missing" % (where, metric["name"]))
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append("%s: metric %s is not a finite number" % (where, metric["name"]))
        elif got["unit"] != metric["unit"]:
            problems.append("%s: metric %s has unit %r, spec says %r" % (
                where, metric["name"], got["unit"], metric["unit"]))
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append("%s: metrics not in the spec: %s" % (where, ", ".join(sorted(extra))))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    os.makedirs(args.scratch, exist_ok=True)

    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            where = "%s --trace %s" % (workload, trace)
            code, result, stderr = run(args.binary, args.scratch, "--workload", workload,
                                       "--trace", trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append("%s: exit %d, result %s\n%s" % (
                    where, code, result, stderr[-2000:]))
                continue
            problems += check_metrics(result, wanted, where)
            print("ok  %s (%d metrics, %d attempted)" % (where, len(result["metrics"]),
                                                         result["attempted"]))

    offline = next(w["name"] for w in spec["workloads"] if w["name"].startswith("fig11"))
    serving = next(w["name"] for w in spec["workloads"] if w["name"].startswith("serve"))
    for workload in (offline, serving):
        where = "%s --corrupt-reference" % workload
        code, result, _ = run(args.binary, args.scratch, "--workload", workload, "--trace", "0",
                              "--corrupt-reference")
        if code == 0 or result is None or result["correct"] or result["failed"] == 0:
            problems.append("%s: a wrong reference went unnoticed (exit %d, result %s)" % (
                where, code, result))
        else:
            print("ok  %s (exit %d, %d of %d failed)" % (where, code, result["failed"],
                                                        result["attempted"]))

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
