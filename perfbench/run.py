#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench_bench (the library plus the workload code in perfbench/src) under
.bench_build/perfbench; later runs rebuild incrementally. The workload's
frozen parameters come from perfbench/config.json, the metric names and
units from BENCHMARK.json.

Every OODGNN_* environment variable is removed before perfbench_bench starts,
so ambient toggles (threads, compiled modes, quantization, forced scalar
kernels, profiling) cannot change what is measured; the provenance line
records which ones were cleared.

Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}; end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. The line before it is the provenance record. The full report
(and, for traced runs, the span log) is kept under .bench_build/. The
exit status is nonzero when the build fails, a correctness gate fails,
or perfbench_bench's output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_bench")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_quiet(cmd, env, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        log("%s failed: %s" % (cmd[0], error))
        return False
    return done.returncode == 0


def build(env):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], env,
                         BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench_bench", "-j", BUILD_JOBS], env,
                     BUILD_TIMEOUT_S)


def git_state(env):
    """(sha, dirty) of the checkout, or ("unknown", None) outside git."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode != 0:
            return "unknown", None
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None


def bench_args(workload, args, trace_out):
    """The perfbench_bench command line for one workload run."""
    cmd = [BINARY, "--kind", workload["kind"], "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    for key, value in workload["params"].items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    return cmd


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    workload = config["workloads"].get(args.workload)
    if workload is None:
        log("unknown workload %r; known: %s" %
            (args.workload, ", ".join(config["workloads"])))
        return 2

    cleared = sorted(k for k in os.environ if k.startswith("OODGNN_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("OODGNN_")}
    if not build(env):
        log("build failed")
        return 1

    out_dir = os.path.join(ROOT, ".bench_build", "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    trace_out = stem + ".spans.jsonl" if args.trace else ""
    try:
        done = subprocess.run(bench_args(workload, args, trace_out),
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench_bench exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        provenance = json.loads(lines[0])["provenance"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        log("perfbench_bench printed no result (exit %d)" % done.returncode)
        return 1

    declared = contract["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    measured = result["metrics"]
    if set(measured) != set(units):
        log("metric mismatch: missing %s, unexpected %s" %
            (sorted(set(units) - set(measured)),
             sorted(set(measured) - set(units))))
        return 1
    if any(measured[name] is None for name in units):
        log("non-finite metric: %s" %
            sorted(n for n in units if measured[n] is None))
        return 1

    sha, dirty = git_state(env)
    provenance.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "env_cleared": cleared,
        "params": workload["params"],
    })
    report = {
        "correct": bool(result["correct"]) and done.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": measured[name], "unit": units[name]}
                    for name in units},
    }
    with open(stem + ".json", "w") as f:
        json.dump({"provenance": provenance, "result": report,
                   "info": result.get("info", {})}, f, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(report), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
