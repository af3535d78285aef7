#!/usr/bin/env python3
"""Perf-trajectory gate: diff a BENCH_pr.json against the committed baseline.

BENCH_pr.json (produced by the CI bench job, see .github/workflows/ci.yml) is
a `jq -s` merge of google-benchmark JSON files and the paper-style table JSON
twins ({"title", "header", "rows"}). This tool extracts the *deterministic*
metrics from both shapes — node accesses, distance computations, node counts,
fat factors — and fails when the candidate regressed by more than the
threshold against the baseline.

Wall-clock metrics (real_time / cpu_time / *_ms and *_ns columns) are machine
dependent and excluded by default; pass --check-time to gate them too (only
meaningful when baseline and candidate ran on comparable hardware).

Two additional modes back the CI threads matrix (both legs run on the same
runner, so their wall clocks ARE comparable):

  --require-identical
      Any deterministic-metric delta beyond the threshold in EITHER
      direction fails (improvements too). With --threshold 0 this demands
      bit-identical metrics — how CI proves the --threads=4 leg computes
      exactly what the --threads=1 leg computes.

  --require-speedup FACTOR --speedup-metric REGEX
      Extracts the wall-clock metrics whose key matches REGEX from both
      files and fails unless baseline/candidate >= FACTOR for every match
      (and unless at least one key matched). How CI proves the parallel
      leg actually wins graph-build wall time.

Candidate-side absolute bounds (usable with or without --baseline; a
--baseline may be omitted entirely when only bounds are requested):

  --require-floor REGEX=VALUE / --require-ceiling REGEX=VALUE
      Every candidate metric (deterministic or wall-clock) whose key
      matches REGEX must be >= / <= VALUE. Repeatable; a bound matching
      no metric is a usage error. How CI pins the neighbor bench's
      recall floor and mismatches == 0.

Exit codes: 0 ok, 1 regression or missing benchmark, 2 usage/input error.

Usage:
  diff_bench_json.py --baseline bench/baseline/BENCH_baseline.json \
                     --candidate bench-out/BENCH_pr.json [--threshold 0.15]

  # threads-matrix determinism + speedup (CI bench-compare job):
  diff_bench_json.py --baseline t1/BENCH_parallel.json \
                     --candidate t4/BENCH_parallel.json \
                     --threshold 0 --require-identical
  diff_bench_json.py --baseline t1/BENCH_parallel.json \
                     --candidate t4/BENCH_parallel.json \
                     --require-speedup 1.5 \
                     --speedup-metric 'Parallel/GraphBrute/'

Regenerating the baseline after an intentional perf change:
  run the CI bench job's commands locally (BUILDING.md) and commit the
  merged JSON as bench/baseline/BENCH_baseline.json.
"""

import argparse
import json
import re
import sys

# google-benchmark bookkeeping fields; everything else numeric on a
# benchmark entry is a user counter.
GB_STANDARD_FIELDS = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "family_index", "per_family_instance_index",
    "aggregate_name", "aggregate_unit", "time_unit", "label",
    "error_occurred", "error_message",
}
GB_TIME_FIELDS = {"real_time", "cpu_time"}


def is_time_metric(name):
    # Throughput (rps) is wall-clock derived and machine dependent, so it
    # rides with the time metrics: excluded from the deterministic diff,
    # available to --require-floor / --require-ceiling bounds.
    return (name in GB_TIME_FIELDS or name.endswith("_ms")
            or name.endswith("_ns")
            or name.endswith("_time") or name == "ms"
            or name == "rps" or name.endswith("_rps"))


def parse_float(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def extract_gb(doc):
    """(deterministic, time) metric dicts for one google-benchmark doc."""
    deterministic, time_metrics = {}, {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "?")
        for field, value in bench.items():
            # real_time / cpu_time are not in GB_STANDARD_FIELDS; they fall
            # through and land in time_metrics via is_time_metric below.
            if field in GB_STANDARD_FIELDS:
                continue
            if not isinstance(value, (int, float)):
                continue
            target = time_metrics if is_time_metric(field) else deterministic
            target[f"{name} :: {field}"] = float(value)
    return deterministic, time_metrics


def extract_table(doc):
    """(deterministic, time) metric dicts for one {"title","header","rows"}
    table document.

    Columns whose cells are non-numeric in any row are treated as row labels
    (so are columns named like workload parameters); the rest are metrics.
    """
    title = doc.get("title", "?")
    header = doc.get("header", [])
    rows = doc.get("rows", [])
    if not header or not rows:
        return {}, {}
    param_columns = {"n", "dim", "seed", "capacity", "queries", "r",
                     "radius", "threads"}
    label_idx = set()
    for i, column in enumerate(header):
        if column.lower() in param_columns:
            label_idx.add(i)
            continue
        for row in rows:
            if i < len(row) and parse_float(row[i]) is None:
                label_idx.add(i)
                break
    deterministic, time_metrics = {}, {}
    for row in rows:
        label = "/".join(row[i] for i in sorted(label_idx) if i < len(row))
        for i, column in enumerate(header):
            if i in label_idx or i >= len(row):
                continue
            value = parse_float(row[i])
            if value is None:
                continue
            target = time_metrics if is_time_metric(column) else deterministic
            target[f"{title} :: {label} :: {column}"] = value
    return deterministic, time_metrics


def extract_all(merged):
    docs = merged if isinstance(merged, list) else [merged]
    deterministic, time_metrics = {}, {}
    for doc in docs:
        if not isinstance(doc, dict):
            continue
        if "benchmarks" in doc:
            det, tm = extract_gb(doc)
        elif "rows" in doc:
            det, tm = extract_table(doc)
        else:
            continue
        deterministic.update(det)
        time_metrics.update(tm)
    return deterministic, time_metrics


def check_bounds(metrics, specs, kind):
    """Returns (failures, error) for --require-floor / --require-ceiling.

    Each spec is 'REGEX=VALUE'; every candidate metric (deterministic and
    wall-clock) whose key matches REGEX must be >= VALUE (floor) or
    <= VALUE (ceiling). A spec that matches nothing is a usage error —
    a silently-unmatched bound would gate nothing.
    """
    failures = []
    for spec in specs:
        pattern, sep, bound_text = spec.rpartition("=")
        bound = parse_float(bound_text)
        if not sep or not pattern or bound is None:
            return failures, f"malformed --require-{kind} '{spec}' " \
                             f"(expected REGEX=VALUE)"
        matcher = re.compile(pattern)
        matched = 0
        for key in sorted(metrics):
            if not matcher.search(key):
                continue
            matched += 1
            value = metrics[key]
            ok = value >= bound if kind == "floor" else value <= bound
            status = "ok" if ok else "OUT OF BOUNDS"
            relation = ">=" if kind == "floor" else "<="
            print(f"  {kind} {status:13s}: {key}: {value:g} "
                  f"(need {relation} {bound:g})")
            if not ok:
                failures.append(key)
        if matched == 0:
            return failures, f"no metric matched --require-{kind} '{spec}'"
    return failures, None


def check_speedup(base_time, cand_time, factor, pattern):
    """Returns (failures, matched) for the --require-speedup gate."""
    matcher = re.compile(pattern)
    failures, matched = [], 0
    for key in sorted(base_time):
        if not matcher.search(key) or key not in cand_time:
            continue
        matched += 1
        base, new = base_time[key], cand_time[key]
        speedup = base / new if new > 0 else float("inf")
        status = "ok" if speedup >= factor else "TOO SLOW"
        print(f"  speedup {status:8s}: {key}: {base:g} -> {new:g} "
              f"({speedup:.2f}x, need {factor:g}x)")
        if speedup < factor:
            failures.append(key)
    return failures, matched


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=None,
                        help="reference merged JSON; omit to run only the "
                             "candidate-side --require-floor/--require-"
                             "ceiling bounds")
    parser.add_argument("--candidate", required=True)
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative regression that fails the gate "
                             "(default 0.15 = +15%%)")
    parser.add_argument("--check-time", action="store_true",
                        help="also gate wall-clock metrics (requires "
                             "comparable hardware)")
    parser.add_argument("--require-identical", action="store_true",
                        help="fail on any delta beyond the threshold in "
                             "either direction (improvements too); with "
                             "--threshold 0 this demands bit-identical "
                             "deterministic metrics")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="FACTOR",
                        help="fail unless baseline/candidate wall time >= "
                             "FACTOR for every --speedup-metric match")
    parser.add_argument("--speedup-metric", default=None, metavar="REGEX",
                        help="wall-clock metric keys the speedup gate "
                             "applies to (required with --require-speedup)")
    parser.add_argument("--require-floor", action="append", default=[],
                        metavar="REGEX=VALUE",
                        help="fail unless every candidate metric matching "
                             "REGEX is >= VALUE (repeatable; matches "
                             "deterministic and wall-clock metrics)")
    parser.add_argument("--require-ceiling", action="append", default=[],
                        metavar="REGEX=VALUE",
                        help="fail unless every candidate metric matching "
                             "REGEX is <= VALUE (repeatable)")
    args = parser.parse_args()

    if (args.require_speedup is None) != (args.speedup_metric is None):
        print("error: --require-speedup and --speedup-metric go together",
              file=sys.stderr)
        return 2
    if args.baseline is None and args.require_speedup is not None:
        print("error: --require-speedup needs a --baseline",
              file=sys.stderr)
        return 2
    if args.baseline is None and not (args.require_floor
                                      or args.require_ceiling):
        print("error: nothing to do without a --baseline or bounds",
              file=sys.stderr)
        return 2

    try:
        base_det, base_time = {}, {}
        if args.baseline is not None:
            with open(args.baseline) as f:
                base_det, base_time = extract_all(json.load(f))
        with open(args.candidate) as f:
            cand_det, cand_time = extract_all(json.load(f))
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    baseline = dict(base_det)
    candidate = dict(cand_det)
    if args.check_time:
        baseline.update(base_time)
        candidate.update(cand_time)
    if args.baseline is not None and not baseline \
            and args.require_speedup is None:
        print(f"error: no comparable metrics in {args.baseline}",
              file=sys.stderr)
        return 2

    regressions, missing, improvements, compared = [], [], [], 0
    for key, base in sorted(baseline.items()):
        if key not in candidate:
            missing.append(key)
            continue
        compared += 1
        new = candidate[key]
        if base == 0:
            if new > 0:
                regressions.append((key, base, new, float("inf")))
            continue
        delta = (new - base) / abs(base)
        if delta > args.threshold:
            regressions.append((key, base, new, delta))
        elif delta < -args.threshold:
            improvements.append((key, base, new, delta))

    print(f"compared {compared} metrics "
          f"(threshold +{args.threshold * 100:.0f}%)")
    for key, base, new, delta in improvements:
        tag = "DIVERGED " if args.require_identical else "improved "
        print(f"  {tag}: {key}: {base:g} -> {new:g} ({delta * 100:+.1f}%)")
    for key in missing:
        print(f"  MISSING  : {key} (renamed or removed? regenerate the "
              f"baseline, see --help)")
    for key, base, new, delta in regressions:
        print(f"  REGRESSED: {key}: {base:g} -> {new:g} ({delta * 100:+.1f}%)")

    speedup_failures, speedup_matched = [], 0
    if args.require_speedup is not None:
        speedup_failures, speedup_matched = check_speedup(
            base_time, cand_time, args.require_speedup, args.speedup_metric)
        if speedup_matched == 0:
            print(f"error: no wall-clock metric matched "
                  f"'{args.speedup_metric}'", file=sys.stderr)
            return 2

    bound_failures = []
    all_candidate = dict(cand_det)
    all_candidate.update(cand_time)
    for specs, kind in ((args.require_floor, "floor"),
                        (args.require_ceiling, "ceiling")):
        failures, error = check_bounds(all_candidate, specs, kind)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
        bound_failures.extend(failures)

    failed = bool(regressions or missing or speedup_failures
                  or bound_failures)
    if args.require_identical and improvements:
        failed = True
    if failed:
        print("FAIL: perf gate")
        return 1
    print("OK: no regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
