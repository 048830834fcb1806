#!/usr/bin/env python3
"""Allocation-query benchmark: cold, warm-sweep and fully-warm queries.

    python3 perfbench/run.py --workload cold|warm-sweep|fully-warm|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The script builds perfbench/ (which
compiles the library sources under src/) into .bench_build, has the
benchmark program generate the workload's request lines from the seed,
and runs them in a separate process against fresh stores under
.bench_work. That process is one closed-loop client sending every batch
through api::QueryEngine::answerBatch on `nproc` lanes; it checks every
answer and the path the engine took.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json and perfbench/README.md). Every metric is printed
by name with its unit; the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold", "warm-sweep", "fully-warm")
# Answers to this seed's questions were recorded in digests.json.
DEFAULT_SEED = 1
# latency_p90_ms needs this many samples to be more than a rough
# figure; smaller runs still print it, flagged with the sample count.
P90_MIN_SAMPLES = 100
RUN_TIMEOUT_S = 170
# Carried beside bench.unattributed_ms, which is its absolute value.
UNATTRIBUTED_SIGNED = "bench.unattributed_signed_ms"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; returns the binary."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "query_bench")


def quantile(samples, n, i):
    """The i-th of the n-quantiles of samples, interpolated between
    the smallest and largest sample."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=n, method="inclusive")[i]


def typical_cycle(result):
    """Batch latencies of a typical shape cycle, by position.

    A run is a whole number of shape cycles, every cycle asking the
    same kinds of question in the same positions. A position's typical
    latency is the lower decile of its latencies over the run's cycles.
    Other work on a shared machine only ever adds time, in bursts of a
    second or so, so the lower decile is what the question costs the
    program while any change in that cost still moves it."""
    latency = result["latency_ms"]
    cycle = result["cycle"]
    cycles = [latency[i:i + cycle] for i in range(0, len(latency), cycle)]
    return [quantile([c[j] for c in cycles], 10, 0) for j in range(cycle)]


def end_to_end(result):
    """The untraced run's user-facing figures, all from the typical
    cycle: throughput is a cycle's questions over the typical cycle's
    time, and the latency percentiles are taken over its batches."""
    typical = typical_cycle(result)
    cycles = len(result["latency_ms"]) // len(typical)
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "queries_per_s": (result["lines"] / cycles /
                          (sum(typical) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(typical), "ms"),
        "latency_p90_ms": (quantile(typical, 10, 8), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "store_mb_per_measurement": (
            result["measurement_bytes"] / 1e6 /
            max(1, result["measurements"]),
            "MB"),
    }


def per_layer(result, failed):
    """The traced run's layer figures plus its own bookkeeping."""
    metrics = {name: (m["value"], m["unit"])
               for name, m in result["layers"].items()
               if name != UNATTRIBUTED_SIGNED}
    metrics["bench.failed_frac"] = (failed / max(1, result["lines"]),
                                    "frac")
    metrics["bench.queries"] = (result["lines"], "count")
    metrics["store.mb"] = (result["store_bytes"] / 1e6, "MB")
    return metrics


def compare_digests(workload, digests):
    """(compared, mismatched): answers, by position in the seeded
    stream, checked against the ones recorded for DEFAULT_SEED."""
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f).get(workload, {})
    compared = [pos for pos in digests if pos in recorded]
    return len(compared), sum(1 for pos in compared
                              if recorded[pos] != digests[pos])


def record_digests(workload, digests):
    path = os.path.join(HERE, "digests.json")
    with open(path) as f:
        table = json.load(f)
    table[workload] = dict(sorted(digests.items()))
    with open(path, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def run_workload(binary, workload, seed, seconds, trace, record):
    lanes = len(os.sched_getaffinity(0))
    work = os.path.join(ROOT, ".bench_work",
                        "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup = os.path.join(work, "setup.ndjson")
        requests = os.path.join(work, "requests.ndjson")
        result_path = os.path.join(work, "result.json")
        subprocess.run([binary, "emit", "--workload", workload,
                        "--seed", str(seed), "--lanes", str(lanes),
                        "--setup", setup, "--requests", requests],
                       check=True, timeout=60, stdout=sys.stderr)
        started = time.monotonic()
        subprocess.run([binary, "run", "--workload", workload,
                        "--setup", setup, "--requests", requests,
                        "--work", os.path.join(work, "stores"),
                        "--seconds", str(seconds),
                        "--trace", "1" if trace else "0",
                        "--lanes", str(lanes), "--result", result_path],
                       check=True, timeout=RUN_TIMEOUT_S,
                       stdout=sys.stderr)
        elapsed = time.monotonic() - started
        with open(result_path) as f:
            result = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if record:
        record_digests(workload, result["digests"])
    compared = mismatched = 0
    if seed == DEFAULT_SEED:
        compared, mismatched = compare_digests(workload, result["digests"])
    failed = int(result["failed"]) + mismatched
    problems = list(result["path_errors"]) + list(result["failures"])
    if mismatched:
        problems.append("%d answers differ from the recorded digests"
                        % mismatched)
    if seed == DEFAULT_SEED and compared == 0:
        problems.append("no answer was compared with a recorded digest")
    if not result["setup_ok"]:
        problems.append("a setup answer did not decode")
    correct = failed == 0 and not problems
    metrics = per_layer(result, failed) if trace else end_to_end(result)

    samples = len(result["latency_ms"])
    print("perfbench %s: seed %d, %s, %d lanes, %d questions in %d "
          "batches (%d cycles), %.1f s" % (
              workload, seed, "traced" if trace else "untraced", lanes,
              result["lines"], samples, samples // result["cycle"],
              elapsed))
    if not trace and samples < P90_MIN_SAMPLES:
        print("  latency_p90_ms rests on only %d samples" % samples)
    if result["exhausted"]:
        print("  every generated batch was answered before the time ran out")
    if seed == DEFAULT_SEED:
        print("  %d answers compared with recorded digests" % compared)
    signed = result["layers"].get(UNATTRIBUTED_SIGNED)
    if signed and signed["value"] < 0:
        print("  bench.unattributed_ms is negative (%.6f ms/query): the "
              "re-answered stages took longer than the answer" %
              signed["value"])
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-32s %16.6f %s" % (name, value, unit))
    print("  failed_frac %.6f (%d of %d)" % (failed / max(1, result["lines"]),
                                             failed, result["lines"]))
    for problem in problems:
        print("  FAIL: " + problem)
    return {
        "correct": correct,
        "attempted": int(result["lines"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's answer digests in "
                             "digests.json (use with the default seed)")
    args = parser.parse_args()
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error("--record-digests needs --seed %d" % DEFAULT_SEED)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        log("perfbench: build failed: %s" % error)
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            outcome = run_workload(binary, workload, args.seed,
                                   args.seconds, args.trace == 1,
                                   args.record_digests)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired, OSError, ValueError,
                KeyError) as error:
            log("perfbench: %s failed: %s" % (workload, error))
            return 1
        print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
