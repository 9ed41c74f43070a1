#!/usr/bin/env python3
"""fleda end-to-end benchmark: one workload per invocation.

    python3 perfbench/run.py --workload paper_flnet --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Builds the library and the
workload runner (perfbench/workloads.cpp) with CMake into
$CARGO_TARGET_DIR (default .bench_build), runs the workload in its own
process with FLEDA_THREADS pinned, checks its outputs and prints, as the
last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
the profiler off. --trace 1 runs the workload twice -- once untraced,
once with the profiler on, each setting up and evaluating once -- and
reports the per-layer metrics, including the tracing overhead between
the two. Exits non-zero when a correctness check fails or the workload
cannot be built or run.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper_flnet", "fleet_k20k")
# parallel_for runs chunks on the pool workers and on the calling thread,
# so FLEDA_THREADS = nproc - 1 keeps the busy threads within nproc.
THREADS = max(1, min(4, os.cpu_count() or 1) - 1)
RUN_DEADLINE_S = 175.0
BUILD_TIMEOUT_S = 880.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    out = build_dir()
    configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", str(THREADS)], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "fleda_perfbench")


def run_child(binary, args, traced, deadline, probe=False):
    env = dict(os.environ)
    env["FLEDA_THREADS"] = str(THREADS)
    env["FLEDA_PROFILE"] = "1" if traced else "0"
    env.setdefault("FLEDA_PLAN", "auto")
    env.pop("FLEDA_TELEMETRY_FILE", None)
    cache = os.path.join(build_dir(), "data-cache")
    os.makedirs(cache, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--cache", cache]
    if probe:
        cmd.append("--probe")
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError("workload process exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    print("config: workload=%s seed=%d FLEDA_THREADS=%d FLEDA_PLAN=%s "
          "profiler=%s rounds=%d" % (result["workload"], args.seed,
                                     result["threads"], result["plan"],
                                     "on" if traced else "off",
                                     result["rounds"]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    # The build may take long on the first run; the workload's own
    # deadline starts after it.
    deadline = time.monotonic() + RUN_DEADLINE_S

    if args.trace == 0:
        results = [run_child(binary, args, False, deadline)]
        values = results[0]["e2e"]
        wanted = spec["end_to_end"]
    else:
        base = run_child(binary, args, False, deadline, probe=True)
        traced = run_child(binary, args, True, deadline, probe=True)
        results = [base, traced]
        values = dict(traced["layer"])
        untraced_rate = base["e2e"]["train_samples_per_s"]
        traced_rate = traced["e2e"]["train_samples_per_s"]
        values["obs.trace_overhead_pct"] = (
            100.0 * (untraced_rate - traced_rate) / untraced_rate
            if untraced_rate > 0 else 0.0)
        wanted = spec["per_layer"]

    # All eight end-to-end figures, with units. failed_update_share is
    # not a BENCHMARK.json metric (it reads 0 on a healthy run); the
    # result line carries it as the attempted/failed pair.
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_update_share"] = "share"
    for name, value in results[0]["e2e"].items():
        print("e2e %-22s %14.6g %s" % (name, value, units.get(name, "")))
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise RuntimeError("workload did not report " + m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = all(c["ok"] for r in results for c in r["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
