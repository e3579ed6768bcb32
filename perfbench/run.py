#!/usr/bin/env python3
"""Live-path benchmark of StreamETS: builds the engine and the harness from
the checkout, runs one workload, checks its output, and prints one JSON
result as the last line of stdout.

    python3 perfbench/run.py --workload union_replay --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under that root; so do the run's work files and
a result file that records the host and the run. See perfbench/NOTES.md
for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("union_replay", "wal_restart", "spill_join", "paced_union",
             "wal_resume")
DRIVE_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=3):
    log("perfbench: " + msg)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the harness in Release; returns the
    binary path. Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/CMakeLists.txt) not found next to perfbench/")
    # A build tree configured from another checkout cannot be reused.
    home = cmake_cache(out_dir, "CMAKE_HOME_DIRECTORY")
    if home and os.path.realpath(home) != os.path.realpath(HERE):
        shutil.rmtree(out_dir)
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out_dir, "perfbench")


def cmake_cache(out_dir, key):
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """sha256 over the engine and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def host_record(out_dir, cores):
    compiler = cmake_cache(out_dir, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True, timeout=10).stdout.splitlines()[0]
        except (OSError, subprocess.SubprocessError, IndexError):
            pass
    build_type = cmake_cache(out_dir, "CMAKE_BUILD_TYPE")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "build_type": build_type,
        "release_build": build_type == "Release",
        "compiler": version or compiler,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "pinned_cores": cores,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every schedule (the self-test uses 0.05)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the checkout root")
    spec = load_spec()

    out_dir = build_dir()
    t_build = time.monotonic()
    binary = build(out_dir)
    build_s = time.monotonic() - t_build

    # The server child gets the last usable core, the generator the one
    # before it; with a single core both run unpinned.
    cpus = sorted(os.sched_getaffinity(0))
    serve_core, gen_core = (cpus[-1], cpus[-2]) if len(cpus) >= 2 else (-1, -1)
    work = os.path.join(out_dir, "work", args.workload)
    subprocess.run(["rm", "-rf", work], check=True)
    os.makedirs(work)

    load_before = os.getloadavg()
    cmd = [binary, "drive", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--dir", work,
           "--serve-core", str(serve_core), "--gen-core", str(gen_core)]
    # Its own process group, so a timeout or a SIGTERM to this script stops
    # the server children too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop_group(signum, frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_group)
    signal.signal(signal.SIGINT, stop_group)
    try:
        stdout, stderr = proc.communicate(timeout=DRIVE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload did not finish within %d s" % DRIVE_TIMEOUT_S, 1)
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        fail("workload failed (exit %d)" % proc.returncode, 1)
    iters, layers, run = [], [], {}
    for line in stdout.splitlines():
        tag, _, body = line.partition(" ")
        if tag == "ITER":
            iters.append(json.loads(body))
        elif tag == "LAYERS":
            layers.append(json.loads(body))
        elif tag == "RUN":
            run = json.loads(body)
    if not iters or not run:
        fail("workload printed no result", 1)
    subprocess.run(["rm", "-rf", work], check=True)

    untraced = [it for it in iters if not it["traced"] and not it["warmup"]]
    traced = [it for it in iters if it["traced"]]
    attempted = int(sum(it["attempted"] for it in iters))
    failed = int(sum(max(0, it["failed"]) for it in iters))
    correct = failed == 0 and all(it["digest_ok"] for it in iters)

    def summary(records, key):
        vals = [r[key] for r in records]
        q1, med, q3 = quartiles(vals)
        return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}

    e2e = {m["name"]: summary(untraced, m["name"]) for m in spec["end_to_end"]}
    # Latency percentiles come from all measured samples pooled, not from
    # a median of per-iteration percentiles.
    for name in ("lat_p50_ms", "lat_p99_ms"):
        e2e[name].update(median=run[name], samples=int(run["lat_samples"]))
    per_layer = {}
    if args.trace:
        # Every layer figure the run measured, those of the workloads kept
        # out of BENCHMARK.json (recovery.*, gen.*) too; the printed result
        # carries the ones BENCHMARK.json names.
        for name in sorted({k for rec in layers for k in rec}):
            per_layer[name] = summary(layers, name)
        cpu_u = statistics.median(r["cpu_us_per_frame"] for r in untraced)
        cpu_t = statistics.median(r["cpu_us_per_frame"] for r in traced)
        per_layer["trace.overhead_frac"] = {"median": cpu_t / cpu_u - 1.0,
                                            "n": len(traced)}
    printed, source = ((spec["per_layer"], per_layer) if args.trace
                       else (spec["end_to_end"], e2e))

    result_file = os.path.join(out_dir, "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(result_file), exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_record(out_dir, {"server": serve_core, "generator": gen_core}),
        "run": {
            "seconds": args.seconds,
            "scale": args.scale,
            "iterations": len(iters),
            "build_s": build_s,
            "load_average_before": load_before,
            "load_average_after": os.getloadavg(),
            **run,
        },
        "latency_samples": int(run["lat_samples"]),
        # Median host-speed slice of each measured iteration; the end-to-end
        # times are scaled from it to the reference speed (NOTES.md).
        "host_slice_ns": summary(untraced, "host_slice_ns"),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": per_layer,
        "iterations": iters,
        "layers": layers,
    }
    if record["host"]["build_type"] != "Release":
        log("perfbench: WARNING: %s build, numbers are not comparable"
            % (record["host"]["build_type"] or "unknown"))
    with open(result_file, "w") as f:
        json.dump(record, f, indent=1)
    print("result file: " + os.path.relpath(result_file, ROOT))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]]["median"],
                                "unit": m["unit"]} for m in printed},
    }))


if __name__ == "__main__":
    main()
