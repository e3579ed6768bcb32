#!/usr/bin/env python3
"""Compares two sets of perfbench result files, workload by workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by run.py or a directory of
them (run.py writes them under $CARGO_TARGET_DIR/perfbench/results). Each
file is one run; a set of several runs (several seeds) is compared on the
median and quartiles of its per-run medians. A set of one run falls back
on the quartiles of that run's iterations.

For every end-to-end metric of BENCHMARK.json it prints both medians with
their quartiles, the change, and a verdict:

  better / worse   the NEW median moved the better or worse way by more
                   than the metric's bound;
  same             it moved by less than the bound;
  unresolved       either side's spread (q3 - q1 over the median) exceeds
                   the bound, so a change of that size cannot be told from
                   noise -- unless every NEW run beats every BASE run;
                   or, for a time scaled to the reference host speed, the
                   host's speed moved between the sets by more than the
                   bound, so the verdict would rest on that scaling.

Each workload's header line gives both sets' median host-speed slice.

It only reports; its exit code is 0 whenever both sets could be read.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(path):
    files = []
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))
                 if f.endswith(".json")]
    else:
        files = [path]
    by_workload = {}
    for f in files:
        with open(f) as fh:
            record = json.load(fh)
        if record.get("trace"):
            continue  # traced runs carry no end-to-end numbers
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def per_run_values(records, metric):
    """The values to compare: one median per run, or the iterations of a
    lone run."""
    if len(records) >= 2:
        return [r["end_to_end"][metric]["median"] for r in records]
    return [it[metric] for it in records[0]["iterations"] if not it["traced"]]


# The end-to-end times drive.cc scales to the reference host speed.
HOST_SCALED = {"frames_per_s", "cpu_us_per_frame", "setup_s"}


def host_shift(base, new):
    """Median host-speed slice of each set, and the share by which they
    differ: how much of a time's change the scaling accounts for."""
    b = statistics.median(r["host_slice_ns"]["median"] for r in base)
    n = statistics.median(r["host_slice_ns"]["median"] for r in new)
    return b, n, abs(n / b - 1.0)


def spread(q1, med, q3):
    return (q3 - q1) / med if med else float("inf")


def verdict(metric, base, new, shift):
    bound, higher = metric["bound"], metric["better"] == "higher"
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    change = (nm - bm) / bm if bm else float("inf")
    gain = change if higher else -change
    all_better = (min(new) > max(base)) if higher else (max(new) < min(base))
    if max(spread(b1, bm, b3), spread(n1, nm, n3)) > bound and not all_better:
        word = "unresolved"
    elif metric["name"] in HOST_SCALED and shift > bound:
        word = "unresolved (host speed moved)"
    elif gain > bound:
        word = "better"
    elif gain < -bound:
        word = "worse"
    else:
        word = "same"
    return (b1, bm, b3), (n1, nm, n3), change, word


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load_set(sys.argv[1]), load_set(sys.argv[2])
    if not base or not new:
        print("no untraced result files found", file=sys.stderr)
        return 2
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print("%s: only in %s" % (workload, "BASE" if workload in base else "NEW"))
            continue
        b, n = base[workload], new[workload]
        b_slice, n_slice, shift = host_shift(b, n)
        print("%s (BASE %d run(s), NEW %d run(s)); host-speed slice BASE %.0f ns, "
              "NEW %.0f ns" % (workload, len(b), len(n), b_slice, n_slice))
        print("  %-20s %-36s %-36s %8s  %s" % ("metric", "BASE median [q1, q3]",
                                              "NEW median [q1, q3]", "change", "verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bq, nq, change, word = verdict(metric, per_run_values(b, name),
                                           per_run_values(n, name), shift)
            print("  %-20s %-36s %-36s %+7.1f%%  %s (bound %g)" % (
                name, fmt(bq), fmt(nq), 100 * change, word, metric["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
