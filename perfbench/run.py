#!/usr/bin/env python3
"""Builds the lrt benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the repository's libraries plus the lrt_perfbench binary) in
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs only check the
build. The last line of standard output is the binary's JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

`--workload all` runs every workload of BENCHMARK.json untraced and
prints each end-to-end metric by name with its unit; it exits non-zero
when any output check fails. lrt_perfbench also runs lrtd_cold and
mc_campaign, which are not gated workloads (see perfbench/README.md).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary's own limit is 170 s; this one catches a binary that hangs.
RUN_TIMEOUT_S = 178


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(directory):
    """Configures (once) and builds lrt_perfbench; returns its path."""
    os.makedirs(directory, exist_ok=True)
    binary = os.path.join(directory, "lrt_perfbench")
    # Serialize concurrent runs in one checkout around the build.
    with open(os.path.join(directory, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", directory, *generator,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", directory, "--target",
                      "lrt_perfbench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                raise SystemExit(f"run.py: build step failed: {' '.join(step)}")
    return binary


def run_binary(binary, directory, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               # Relative, so AF_UNIX socket paths stay short.
               "--work-dir", os.path.relpath(directory, ROOT)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout.splitlines()


def check_metrics(result, names):
    """The result must carry exactly the declared metrics."""
    missing = sorted(set(names) - set(result["metrics"]))
    extra = sorted(set(result["metrics"]) - set(names))
    if missing or extra:
        sys.stderr.write(f"run.py: metrics missing {missing}, "
                         f"undeclared {extra}\n")
        return False
    return True


def run_all(binary, directory, bench, seed, seconds):
    declared = bench["end_to_end"]
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        code, lines = run_binary(binary, directory, workload, seed, seconds, 0)
        if code != 0 or not lines:
            status = 1
        if not lines or not lines[-1].startswith("{\"correct\""):
            print(f"{workload}: no result (exit {code})")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or not check_metrics(
                result, [m["name"] for m in declared]):
            status = 1
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric in declared:
            value = result["metrics"].get(metric["name"], {}).get("value")
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {metric['name']:<18} {shown:>14} {metric['unit']}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        raise SystemExit("run.py: --seed must be >= 0")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit(f"run.py: no lrt sources under {ROOT}; run from "
                         "the root of a repository checkout")
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    directory = build_dir()
    binary = build(directory)

    if args.workload == "all":
        return run_all(binary, directory, bench, args.seed, seconds)
    code, lines = run_binary(binary, directory, args.workload, args.seed,
                             seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code == 0:
        declared = bench["per_layer" if args.trace else "end_to_end"]
        if not check_metrics(json.loads(lines[-1]),
                             [m["name"] for m in declared]):
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
