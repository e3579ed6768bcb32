#!/usr/bin/env python3
"""Small-scale self-test of the benchmark. Run from the checkout root:

    python3 perfbench/selftest.py

It checks that:
- every workload of BENCHMARK.json runs at 1/20 scale, passes its output
  check, and prints exactly the end-to-end metrics, none of them zero;
- the traced run prints exactly the per-layer metrics;
- paced_union, kept out of BENCHMARK.json, still runs and passes its
  exactly-once check;
- wal_resume, kept out of BENCHMARK.json, still runs. Its byte-identity
  check fails on some seeds, a program defect (NOTES.md, "Defects the
  benchmark found"): a failure is printed as `xfail`, a pass as `ok`;
- in a directory holding only BENCHMARK.json and perfbench/, run.py fails
  fast without printing a result.

Exit code 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
           "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}

    for w in spec["workloads"]:
        name = w["name"]
        for trace, expected in ((0, e2e), (1, layers)):
            proc, result = run(name, trace)
            tag = "%s --trace %d" % (name, trace)
            check(proc.returncode == 0 and result is not None,
                  tag + ": exits 0 with a result line")
            if result is None:
                sys.stderr.write(proc.stderr[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result has exactly the keys correct, attempted, failed, metrics")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, tag + ": output check passes")
            check(set(result["metrics"]) == expected,
                  tag + ": metric names match BENCHMARK.json")
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      tag + ": no end-to-end metric is zero")

    proc, result = run("paced_union", 1)
    check(proc.returncode == 0 and result is not None and result["correct"],
          "paced_union --trace 1: runs and passes its output check")
    proc, result = run("wal_resume", 0)
    check(proc.returncode == 0 and result is not None,
          "wal_resume --trace 0: exits 0 with a result line")
    if result is not None and not result["correct"]:
        print("xfail wal_resume --trace 0: byte-identity fails (known defect)")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run(spec["workloads"][0]["name"], 0, cwd=bare)
    check(proc.returncode != 0 and result is None,
          "without the engine sources: fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
