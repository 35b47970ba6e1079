#!/usr/bin/env python3
"""Compare two sets of benchmark results (parent vs change) metric by metric.

    python3 benchmark/compare.py BASE_DIR NEW_DIR [--spec BENCHMARK.json]

Each directory holds result documents written by `temco_bench --json FILE`
(one per run, untraced, three or more runs per workload).  Run the two sides
alternately on the same seeds: on a shared host the machine's speed drifts
over minutes, so a block of parent runs followed by a block of change runs
reads the drift as a difference.  For every (end-to-end metric, workload)
pair this prints both sides' median and quartiles, the share of seed-matched
pairs the change wins, and a verdict against the metric's bound in
BENCHMARK.json:

  improved    at least 10 seed-matched pairs, the change wins >= 9/10 of
              them, and the medians differ by more than the parent's
              interquartile range
  worse       the change's median is worse than the parent's by more than the
              bound
  unresolved  fewer than 3 runs a side, or a side's spread (IQR / median)
              exceeds the bound and not every change run beats every parent
              run
  unchanged   otherwise

The change in brackets is the change's median against the parent's, signed
so that a positive number is better.  Each workload also shows both sides'
median FMA-probe peak from the host fingerprint: when they differ by more
than 10%, the host ran at a different speed for the two sides and the
timings of that workload compare the host, not the code.

Above the metrics, each workload shows both sides' count of incorrect runs
and their summed `failed` operations.  Incorrect runs are not dropped.  When
the change has an incorrect run, or more failed operations than the parent,
the workload is FAILED: none of its verdicts counts, a gain included.

The exit code is 1 when any pair is worse or unresolved, or any workload
FAILED.  Standard library only.
"""
import argparse
import glob
import json
import os
import statistics
import sys

MIN_RUNS = 3
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE = 0.9


HOST_DRIFT = 0.10
PEAK = "fma_peak_gflops"


def load(directory):
    """({workload: {seed: {metric: value}}}, {workload: [incorrect runs,
    failed operations]}) from the untraced runs.  Incorrect runs keep their
    metrics: dropping them would let a change that fails on some seeds be
    judged on the seeds where it happened to work.  The host's FMA-probe
    peak rides along under PEAK."""
    runs, failures = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("trace"):
            continue
        result = doc["result"]
        counts = failures.setdefault(doc["workload"], [0, 0])
        counts[0] += 0 if result["correct"] else 1
        counts[1] += result["failed"]
        values = {name: m["value"] for name, m in result["metrics"].items()
                  if m["value"] is not None}
        values[PEAK] = doc["fingerprint"][PEAK]
        runs.setdefault(doc["workload"], {})[doc["seed"]] = values
    return runs, failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(base, new, better):
    """(how much worse the change's median is, as a share; the wider side's
    IQR / median; whether every change run beats every parent run; medians
    and quartiles)."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    b_q1, b_q3 = quartiles(base)
    n_q1, n_q3 = quartiles(new)
    worse_by = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (n_q3 - n_q1) / abs(n_med) if n_med else 0.0)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    return worse_by, spread, all_better, (b_med, b_q1, b_q3, n_med, n_q1, n_q3)


def win_share(base_runs, new_runs, metric, better):
    """(share of seed-matched pairs the change wins, number of pairs); ties
    count for neither."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = [(base_runs[s][metric], new_runs[s][metric])
             for s in sorted(set(base_runs) & set(new_runs))
             if metric in base_runs[s] and metric in new_runs[s]]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    return (wins / len(pairs) if pairs else 0.0), len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--spec", default=os.path.join(os.path.dirname(__file__), "..",
                                                       "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    (base, base_failures), (new, new_failures) = load(args.base), load(args.new)

    bad = 0
    print("%-16s %-16s %5s %26s %26s %10s  %s" % (
        "workload", "metric", "runs", "base median [q1, q3]", "new median [q1, q3]",
        "wins/pairs", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        b_bad, b_failed = base_failures.get(workload, [0, 0])
        n_bad, n_failed = new_failures.get(workload, [0, 0])
        failed = n_bad > 0 or n_failed > b_failed
        print("%-16s %-16s %5s incorrect runs %d vs %d, failed operations %d vs %d%s" % (
            workload, "correctness", "", b_bad, n_bad, b_failed, n_failed,
            "  FAILED: no metric of this workload counts" if failed else ""))
        bad += failed
        peaks = [[r[PEAK] for r in side.get(workload, {}).values()] for side in (base, new)]
        if all(peaks):
            b_peak, n_peak = (statistics.median(p) for p in peaks)
            drift = abs(n_peak - b_peak) / b_peak
            print("%-16s host FMA probe %.0f vs %.0f GFLOP/s%s" % (
                workload, b_peak, n_peak,
                "  HOST DRIFT: timings compare the host" if drift > HOST_DRIFT else ""))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r[name] for r in base.get(workload, {}).values() if name in r]
            n = [r[name] for r in new.get(workload, {}).values() if name in r]
            if len(b) < MIN_RUNS or len(n) < MIN_RUNS:
                print("%-16s %-16s %2d/%-2d %s" % (workload, name, len(b), len(n),
                                                    "unresolved (fewer than 3 runs a side)"))
                bad += 1
                continue
            worse_by, spread, all_better, stats = summarize(b, n, metric["better"])
            b_med, b_q1, b_q3, n_med, n_q1, n_q3 = stats
            wins, pairs = win_share(base.get(workload, {}), new.get(workload, {}), name,
                                    metric["better"])
            if worse_by > metric["bound"]:
                call = "worse (%+.1f%%, bound %.1f%%)" % (100 * worse_by, 100 * metric["bound"])
            elif spread > metric["bound"] and not all_better:
                call = "unresolved (spread %.1f%% > bound %.1f%%)" % (100 * spread,
                                                                       100 * metric["bound"])
            elif (pairs >= MIN_PAIRS_FOR_GAIN and wins >= WIN_SHARE and worse_by < 0 and
                  abs(n_med - b_med) > (b_q3 - b_q1)):
                call = "improved (%+.1f%%)" % (-100 * worse_by)
            else:
                call = "unchanged (%+.1f%%)" % (-100 * worse_by)
            bad += call.startswith(("worse", "unresolved"))
            row = "%-16s %-16s %2d/%-2d %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %4.0f%%/%-3d  %s"
            print(row % (workload, name, len(b), len(n), b_med, b_q1, b_q3, n_med, n_q1, n_q3,
                         100 * wins, pairs, call))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
