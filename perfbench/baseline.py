#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record its baseline.

    python3 perfbench/baseline.py [--runs 10] [--workloads cold ...]
                                  [--first-seed 1] [--write]

Run from the repository root. For each workload it runs perfbench/run.py
untraced once per seed (first-seed .. first-seed + runs - 1), each in
its own process, then once traced with the first seed. It prints every
end-to-end metric's median, quartiles and spread (interquartile range
over median) next to the metric's bound from BENCHMARK.json, and exits
non-zero when a run is incorrect or a spread other than setup_s exceeds
its bound. --write stores the figures, the traced run's per-layer
numbers and the lane count in perfbench/baseline.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    table = {}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            outcome = run(workload, seed, seconds, False)
            ok = ok and outcome["correct"]
            for name in bounds:
                values[name].append(outcome["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        end_to_end = {}
        for name, samples in values.items():
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]["bound"]
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                                "spread": spread, "bound": bound,
                                "unit": bounds[name]["unit"]}
            verdict = "ok" if spread <= bound / 3 else (
                "WITHIN BOUND" if spread <= bound else "OVER BOUND")
            if name != "setup_s" and spread > bound:
                ok = False
            print("  %-26s median %12.5g  q1 %12.5g  q3 %12.5g  "
                  "spread %.4f of bound %.2f  %s" % (
                      name, median, q1, q3, spread, bound, verdict))
        traced = run(workload, args.first_seed, seconds, True)
        ok = ok and traced["correct"]
        table[workload] = {
            "runs": args.runs,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    if args.write:
        path = os.path.join(HERE, "baseline.json")
        workloads = {}
        if os.path.exists(path):
            with open(path) as f:
                workloads = json.load(f)["workloads"]
        workloads.update(table)
        baseline = {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "run_seconds": seconds,
            "workloads": workloads,
        }
        with open(path, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
