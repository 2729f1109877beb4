#!/usr/bin/env python3
"""Aggregate all committed BENCH_pr*.json baselines into one trajectory.

    python3 scripts/bench_trajectory.py [BENCH_pr*.json ...]
        [--out trajectory.json] [--threshold T]

Each PR that touches the hot path records a bench baseline
(scripts/bench_baseline.py), so the repo accumulates BENCH_pr4.json,
BENCH_pr8.json, ... — a time series of every machine-independent ratio.
This script lines them up (sorted by PR number), prints the per-ratio
series, and gates two things:

  * **Trajectory regression**: for every ratio present in two or more
    baselines, the latest value must not exceed the earliest by more
    than ``--threshold`` (ratio_regressed from diff_runs.py).
    Point-to-point wobble between recordings is expected — different
    machines, different loads — but the first->last drift is the cost
    the instrumentation has actually accumulated over the PR sequence.
  * **Overhead budget lines**: documented hard ceilings, checked on the
    latest baseline that carries the ratio —

        telemetry_overhead_loaded   <= 1.10  (docs/TELEMETRY.md)
        tracing_increment_loaded    <= 1.10  (docs/TRACING.md)
        profiler_overhead_loaded    <= 1.02  (docs/PROFILING.md)

Absolute cpu_time series are printed for context but never gated: the
baselines come from different hosts.  --out writes the aggregated series
as JSON (the CI artifact).  Exit 0 when every gate passes, 1 otherwise,
2 on bad input.
"""

import argparse
import glob
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from diff_runs import ratio_regressed  # noqa: E402

# (ratio key, ceiling) — the budget lines the docs quote.  Checked on the
# newest baseline that records the ratio; older baselines predate the
# subsystem and legitimately lack it.
BUDGETS = [
    ("telemetry_overhead_loaded", 1.10),
    ("tracing_increment_loaded", 1.10),
    ("profiler_overhead_loaded", 1.02),
]


def pr_number(path):
    match = re.search(r"BENCH_pr(\d+)\.json$", os.path.basename(path))
    if match is None:
        raise SystemExit(
            f"bench_trajectory: {path}: expected a BENCH_pr<N>.json name"
        )
    return int(match.group(1))


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"bench_trajectory: {path}: {error}")
    if doc.get("schema") != "vrl-bench-baseline-v1":
        raise SystemExit(
            f"bench_trajectory: {path}: schema {doc.get('schema')!r}, "
            "want 'vrl-bench-baseline-v1'"
        )
    return doc


def build_series(paths):
    """{ratio_key: [(pr, value), ...]} over baselines sorted by PR number."""
    series = {}
    absolute = {}
    for path in paths:
        pr = pr_number(path)
        doc = load(path)
        for key, value in doc.get("ratios", {}).items():
            series.setdefault(key, []).append((pr, value))
        for name, bench in doc.get("benchmarks", {}).items():
            absolute.setdefault(name, []).append(
                (pr, bench["cpu_time"], bench["time_unit"])
            )
    return series, absolute


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baselines",
        nargs="*",
        help="BENCH_pr<N>.json files (default: glob the repo root)",
    )
    parser.add_argument("--out", help="write the aggregated series as JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed first->last relative growth per ratio (default 0.15: "
        "looser than the per-PR 10%% gate because endpoints span hosts)",
    )
    args = parser.parse_args()

    paths = args.baselines
    if not paths:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = glob.glob(os.path.join(root, "BENCH_pr*.json"))
    if len(paths) < 2:
        raise SystemExit(
            f"bench_trajectory: need at least two baselines, got {len(paths)}"
        )
    paths = sorted(paths, key=pr_number)
    prs = [pr_number(p) for p in paths]
    print(f"bench_trajectory: {len(paths)} baselines: pr{', pr'.join(map(str, prs))}")

    series, absolute = build_series(paths)
    failures = []

    for key in sorted(series):
        points = series[key]
        values = " ".join(f"pr{pr}={value:.4f}" for pr, value in points)
        print(f"bench_trajectory: ratio {key}: {values}")
        if len(points) < 2:
            continue
        (first_pr, first), (last_pr, last) = points[0], points[-1]
        if ratio_regressed(last, first, args.threshold):
            failures.append(
                f"ratio {key}: pr{first_pr} {first:.4f} -> pr{last_pr} "
                f"{last:.4f} (> +{args.threshold:.0%} over the sequence)"
            )

    for key, ceiling in BUDGETS:
        points = series.get(key)
        if not points:
            continue
        last_pr, last = points[-1]
        if last > ceiling:
            failures.append(
                f"budget {key}: pr{last_pr} {last:.4f} > ceiling {ceiling}"
            )
        else:
            print(
                f"bench_trajectory: budget {key}: pr{last_pr} {last:.4f} "
                f"<= {ceiling} OK"
            )

    if args.out:
        doc = {
            "schema": "vrl-bench-trajectory-v1",
            "source": "scripts/bench_trajectory.py",
            "baselines": [os.path.basename(p) for p in paths],
            "ratios": {
                key: [{"pr": pr, "value": value} for pr, value in points]
                for key, points in sorted(series.items())
            },
            "absolute_cpu_time": {
                name: [
                    {"pr": pr, "cpu_time": t, "time_unit": unit}
                    for pr, t, unit in points
                ]
                for name, points in sorted(absolute.items())
            },
        }
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bench_trajectory: wrote {args.out}")

    for failure in failures:
        print(f"bench_trajectory: REGRESSION: {failure}", file=sys.stderr)
    verdict = "FAIL" if failures else "OK"
    print(
        f"bench_trajectory: {verdict}: {len(series)} ratios tracked, "
        f"{len(failures)} regressed"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
