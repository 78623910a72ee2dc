#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady.

    python3 perfbench/steadiness.py                  # the proof: 2 sets of 10
    python3 perfbench/steadiness.py --runs 5 --sets 1 --workloads lrtd_cold

Runs every workload (or the --workloads listed) --runs times per set for
BENCHMARK.json's run_seconds, each run with its own seed, alternating the
workload order from round to round. For each set it prints every
end-to-end metric's median, quartiles, and spread (the distance between
the quartiles as a share of the median, quartiles as
statistics.quantiles(values, n=4) gives them) against the metric's bound
in BENCHMARK.json. Spreads must stay within the bound (setup_s is
exempt); "tight" marks spreads below a third of it. With two or more
sets it also reports, per metric, the change of each later set's median
against the first set's as a share of the first; its magnitude must stay
within the bound, whichever way it goes. Exits 0 only when every check
holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# Seeds of set s are SEED_BASE + s * runs + i, i = 0 .. runs - 1.
SEED_BASE = 1000


def run_once(workload, seed):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"steadiness: {workload} seed {seed} failed "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"steadiness: {workload} seed {seed}: output "
                         "check failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads")
    args = parser.parse_args()
    if args.runs < 2 or args.sets < 1:
        raise SystemExit("steadiness: need --runs >= 2 and --sets >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])

    # samples[set][workload][metric] -> values
    samples = []
    for s in range(args.sets):
        data = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for i in range(args.runs):
            order = workloads if (s * args.runs + i) % 2 == 0 else \
                workloads[::-1]
            for workload in order:
                seed = SEED_BASE + s * args.runs + i
                values = run_once(workload, seed)
                for m in metrics:
                    data[workload][m["name"]].append(values[m["name"]])
                print(f"set {s + 1} run {i + 1:2d} {workload:<14} " +
                      " ".join(f"{m['name']}={values[m['name']]:.6g}"
                               for m in metrics), flush=True)
        samples.append(data)

    ok = True
    for s, data in enumerate(samples):
        print(f"\nset {s + 1}: median [q1, q3] spread/bound")
        for workload in workloads:
            print(f"  {workload}")
            for m in metrics:
                med, q1, q3, sp = spread(data[workload][m["name"]])
                exempt = m["name"] == "setup_s"
                good = exempt or sp <= m["bound"]
                ok = ok and good
                mark = "tight" if sp < m["bound"] / 3 else \
                    ("ok" if good else "TOO WIDE")
                if exempt:
                    mark += " (exempt)"
                print(f"    {m['name']:<18} {med:14.6g} [{q1:.6g}, {q3:.6g}]"
                      f"  {sp:.4f}/{m['bound']}  {mark}")
    for s in range(1, len(samples)):
        print(f"\nset {s + 1} against set 1: change of the median / bound")
        for workload in workloads:
            for m in metrics:
                first = statistics.median(samples[0][workload][m["name"]])
                later = statistics.median(samples[s][workload][m["name"]])
                share = (later - first) / first if first else 0.0
                good = abs(share) <= m["bound"]
                ok = ok and good
                print(f"  {workload:<14} {m['name']:<18} {share:+.4f}/"
                      f"{m['bound']}  {'ok' if good else 'APART'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
