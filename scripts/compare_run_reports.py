#!/usr/bin/env python3
"""Compare two oma-run-report-v1 files for result identity.

Usage: compare_run_reports.py BASE.json OTHER.json [options]

The comparison covers counters and histograms -- the deterministic,
work-derived half of a report (docs/OBSERVABILITY.md). Wall-clock
gauges, phase call counts, throughput rates, store traffic, pool
shape and the per-run work counters (what was recorded or replayed --
a warm run skips exactly that work) legitimately differ between a
cold and a warm run of the same experiment, so they are excluded by
default:

  prefixes: time_ms/ calls/ rate/ bench/ store/ store_warm/
            threadpool/ speed/ replay/ trace/
  names:    sweep/records sweep/replays sweep/trace_skips

Everything else must match exactly: the artifact store's contract is
that a warm run reproduces the cold run's results bit for bit.

Options:
  --require-zero NAME      fail unless counter NAME is absent or 0 in
                           OTHER (e.g. sweep/records on a warm run)
  --require-positive NAME  fail unless counter NAME is > 0 in OTHER
                           (e.g. sweep/trace_skips on a warm run)

Exits non-zero listing every difference and failed requirement.
"""

import json
import sys

EXCLUDED_PREFIXES = (
    "time_ms/",
    "calls/",
    "rate/",
    "bench/",
    "store/",
    "store_warm/",
    "threadpool/",
    "speed/",
    "replay/",
    "trace/",
)
EXCLUDED_NAMES = {
    "sweep/records",
    "sweep/replays",
    "sweep/trace_skips",
}


def excluded(name):
    return name in EXCLUDED_NAMES or name.startswith(EXCLUDED_PREFIXES)


def comparable(section):
    return {k: v for k, v in section.items() if not excluded(k)}


def diff_section(what, base, other, errors):
    for key in sorted(set(base) | set(other)):
        if key not in base:
            errors.append(f"{what} {key}: only in OTHER ({other[key]!r})")
        elif key not in other:
            errors.append(f"{what} {key}: only in BASE ({base[key]!r})")
        elif base[key] != other[key]:
            errors.append(
                f"{what} {key}: BASE {base[key]!r} != OTHER {other[key]!r}")


def main(argv):
    args = argv[1:]
    require_zero, require_positive = [], []
    paths = []
    i = 0
    while i < len(args):
        if args[i] == "--require-zero" and i + 1 < len(args):
            require_zero.append(args[i + 1])
            i += 2
        elif args[i] == "--require-positive" and i + 1 < len(args):
            require_positive.append(args[i + 1])
            i += 2
        else:
            paths.append(args[i])
            i += 1
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2

    docs = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as e:
            print(f"{path}: unreadable or invalid JSON: {e}",
                  file=sys.stderr)
            return 2
    base, other = docs

    errors = []
    diff_section("counter", comparable(base["counters"]),
                 comparable(other["counters"]), errors)
    diff_section("histogram", comparable(base["histograms"]),
                 comparable(other["histograms"]), errors)

    other_counters = other["counters"]
    for name in require_zero:
        if other_counters.get(name, 0) != 0:
            errors.append(
                f"required zero: counter {name} is "
                f"{other_counters.get(name)!r} in {paths[1]}")
    for name in require_positive:
        if not other_counters.get(name, 0) > 0:
            errors.append(
                f"required positive: counter {name} is "
                f"{other_counters.get(name, 0)!r} in {paths[1]}")

    if errors:
        for e in errors:
            print(f"MISMATCH: {e}", file=sys.stderr)
        return 1
    compared = len(comparable(base["counters"])) + len(
        comparable(base["histograms"]))
    print(f"OK: {paths[0]} and {paths[1]} agree on {compared} "
          "counters/histograms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
