#!/usr/bin/env python3
"""Record or check the performance baseline (BENCH_pr4.json).

Record mode (the default) runs bench/microbench (google-benchmark JSON)
and bench/parallel_scaling, then writes a baseline file:

    python3 scripts/bench_baseline.py --build-dir build --out BENCH_pr4.json

Check mode re-runs the benches and compares against a committed baseline,
exiting 1 on regression:

    python3 scripts/bench_baseline.py --build-dir build --check BENCH_pr4.json

Two classes of metric, with different tolerances:

  * **Ratios** (telemetry/tracing overhead relative to the uninstrumented
    arm, parallel speedup) are machine-independent — they divide out the
    host's clock.  These fail at >10% regression (--threshold).
  * **Absolute times** (cpu_time per benchmark) move with the host, so a
    checked-in baseline from one machine cannot gate another at 10%.
    They fail only beyond --abs-threshold (default 0.5, i.e. 50% slower),
    a tripwire for gross regressions; tighten it on a dedicated runner.

Only regressions fail; getting faster never does.  --quick shortens the
benchmark min-time for smoke runs (use the default for real baselines).
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from diff_runs import ratio_regressed  # noqa: E402


RATIO_KEYS = [
    # (key, numerator benchmark, denominator benchmark) over cpu_time.
    ("telemetry_overhead_loaded", "BM_SimulateWindow/1/1", "BM_SimulateWindow/0/1"),
    ("tracing_overhead_loaded", "BM_SimulateWindow/2/1", "BM_SimulateWindow/0/1"),
    # The incremental cost of turning tracing on in an already-instrumented
    # run — the docs/TRACING.md budget number.  More stable than the
    # *_overhead_* ratios because the uninstrumented arm's own scatter
    # (±3% on a shared host) divides out.
    ("tracing_increment_loaded", "BM_SimulateWindow/2/1", "BM_SimulateWindow/1/1"),
    ("tracing_increment_idle", "BM_SimulateWindow/2/0", "BM_SimulateWindow/1/0"),
    ("tracing_firehose_loaded", "BM_SimulateWindow/3/1", "BM_SimulateWindow/0/1"),
    ("telemetry_overhead_idle", "BM_SimulateWindow/1/0", "BM_SimulateWindow/0/0"),
    ("tracing_overhead_idle", "BM_SimulateWindow/2/0", "BM_SimulateWindow/0/0"),
    ("tracing_firehose_idle", "BM_SimulateWindow/3/0", "BM_SimulateWindow/0/0"),
    # Policy tick with a recorder attached: counters only (/0), plus per-op
    # lineage records (/1; the key name predates the single lineage ring),
    # plus transitions-only tracing (/2).
    (
        "collect_due_telemetry_counters",
        "BM_VrlPolicyCollectDueTelemetry/0",
        "BM_VrlPolicyCollectDue",
    ),
    (
        "collect_due_telemetry_trace",
        "BM_VrlPolicyCollectDueTelemetry/1",
        "BM_VrlPolicyCollectDue",
    ),
    (
        "collect_due_tracing",
        "BM_VrlPolicyCollectDueTelemetry/2",
        "BM_VrlPolicyCollectDue",
    ),
    # Propose/grant refresh ticks, all against the plain VRL tick
    # (BM_VrlPolicyCollectDue, which also goes through
    # dram::GrantRefreshes; the key and arm names predate that and stay so
    # the committed baselines keep gating them): the controller's grant
    # accounting (propose_grant_shim_overhead), and the deferrable
    # DARP/SARP/VRL-Skip policies.
    (
        "propose_grant_shim_overhead",
        "BM_VrlPolicyGrantRefreshes",
        "BM_VrlPolicyCollectDue",
    ),
    (
        "darp_grant_vs_collect_due",
        "BM_ProposingPolicyGrant/0",
        "BM_VrlPolicyCollectDue",
    ),
    (
        "sarp_grant_vs_collect_due",
        "BM_ProposingPolicyGrant/1",
        "BM_VrlPolicyCollectDue",
    ),
    (
        "vrl_skip_grant_vs_collect_due",
        "BM_ProposingPolicyGrant/2",
        "BM_VrlPolicyCollectDue",
    ),
    # Attribution profiler (PR 10): the cost of profile_phases on an
    # already-instrumented window, against the same telemetry-only arm —
    # the "<= 2% of a loaded window" budget in docs/PROFILING.md.  The
    # profiler samples 1-in-64 phase timings, so this ratio should sit
    # well under the budget line.
    (
        "profiler_overhead_loaded",
        "BM_SimulateWindow/4/1",
        "BM_SimulateWindow/1/1",
    ),
    (
        "profiler_overhead_idle",
        "BM_SimulateWindow/4/0",
        "BM_SimulateWindow/1/0",
    ),
]

# google-benchmark reports cpu_time in each benchmark's own time_unit;
# ratios must compare seconds, not raw numbers.
TIME_UNIT_S = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def cpu_time_s(bench):
    return bench["cpu_time"] * TIME_UNIT_S[bench["time_unit"]]


def run_microbench(build_dir, quick):
    # Medians over interleaved repetitions: single runs scatter by ~±8% on
    # shared machines, which would trip a 10% ratio gate on pure noise.
    cmd = [
        os.path.join(build_dir, "bench", "microbench"),
        "--benchmark_format=json",
        "--benchmark_repetitions=3" if quick else "--benchmark_repetitions=5",
        "--benchmark_enable_random_interleaving=true",
        "--benchmark_report_aggregates_only=true",
    ]
    if quick:
        # Bare double: the tree's google-benchmark predates the "0.05s"
        # suffixed form.
        cmd.append("--benchmark_min_time=0.05")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    doc = json.loads(out.stdout)
    benchmarks = {}
    for bench in doc["benchmarks"]:
        if bench.get("aggregate_name") != "median":
            continue
        benchmarks[bench["run_name"]] = {
            "cpu_time": bench["cpu_time"],
            "real_time": bench["real_time"],
            "time_unit": bench["time_unit"],
        }
    return benchmarks


def run_parallel_scaling(build_dir):
    path = os.path.join(build_dir, "parallel_scaling_baseline.json")
    subprocess.run(
        [os.path.join(build_dir, "bench", "parallel_scaling"), "--json", path],
        check=True,
        capture_output=True,
        text=True,
    )
    with open(path) as f:
        report = json.load(f)
    rows = report["tables"]["scaling"]["rows"]
    scaling = {}
    for row in rows:
        if row["bit-identical"] != "yes":
            raise SystemExit("bench_baseline: parallel_scaling lost determinism")
        scaling[row["threads"]] = {
            "wall_s": float(row["wall (s)"]),
            "speedup": float(row["speedup"]),
        }
    return scaling


def collect(build_dir, quick):
    benchmarks = run_microbench(build_dir, quick)
    ratios = {}
    for key, numerator, denominator in RATIO_KEYS:
        if numerator in benchmarks and denominator in benchmarks:
            ratios[key] = round(
                cpu_time_s(benchmarks[numerator])
                / cpu_time_s(benchmarks[denominator]),
                6,
            )
    return {
        "schema": "vrl-bench-baseline-v1",
        "source": "scripts/bench_baseline.py",
        "benchmarks": benchmarks,
        "ratios": ratios,
        "parallel_scaling": run_parallel_scaling(build_dir),
    }


def check(current, baseline, threshold, abs_threshold):
    failures = []
    notes = []

    for key, base_value in baseline.get("ratios", {}).items():
        value = current["ratios"].get(key)
        if value is None:
            failures.append(f"ratio {key}: missing from current run")
            continue
        # Overhead ratios hover near 1.0; "10% regression" means the ratio
        # itself grew by >10% (e.g. 1.01 -> 1.12), not overhead*1.1.
        if ratio_regressed(value, base_value, threshold):
            failures.append(
                f"ratio {key}: {value:.4f} vs baseline {base_value:.4f} "
                f"(> +{threshold:.0%})"
            )
        else:
            notes.append(f"ratio {key}: {value:.4f} (baseline {base_value:.4f})")

    for threads, base_row in baseline.get("parallel_scaling", {}).items():
        row = current["parallel_scaling"].get(threads)
        if row is None:
            notes.append(f"speedup @{threads}t: not measured on this host")
            continue
        if row["speedup"] < base_row["speedup"] * (1.0 - threshold):
            failures.append(
                f"speedup @{threads} threads: {row['speedup']:.2f} vs "
                f"baseline {base_row['speedup']:.2f} (> -{threshold:.0%})"
            )
        else:
            notes.append(
                f"speedup @{threads}t: {row['speedup']:.2f} "
                f"(baseline {base_row['speedup']:.2f})"
            )

    for name, base_bench in baseline.get("benchmarks", {}).items():
        bench = current["benchmarks"].get(name)
        if bench is None:
            failures.append(f"benchmark {name}: missing from current run")
            continue
        if ratio_regressed(bench["cpu_time"], base_bench["cpu_time"], abs_threshold):
            failures.append(
                f"abs {name}: {bench['cpu_time']:.3g}{bench['time_unit']} vs "
                f"baseline {base_bench['cpu_time']:.3g}"
                f"{base_bench['time_unit']} (> +{abs_threshold:.0%})"
            )

    for note in notes:
        print(f"bench_baseline: {note}")
    for failure in failures:
        print(f"bench_baseline: REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_pr4.json", help="record mode output")
    parser.add_argument(
        "--check", metavar="BASELINE", help="compare against BASELINE instead"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed relative regression for ratio metrics (default 0.10)",
    )
    parser.add_argument(
        "--abs-threshold",
        type=float,
        default=0.50,
        help="allowed relative regression for absolute times (default 0.50)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="short benchmark runs (smoke only)"
    )
    args = parser.parse_args()

    current = collect(args.build_dir, args.quick)
    if args.check:
        with open(args.check) as f:
            baseline = json.load(f)
        return check(current, baseline, args.threshold, args.abs_threshold)

    with open(args.out, "w") as f:
        json.dump(current, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_baseline: wrote {args.out}")
    for key, value in sorted(current["ratios"].items()):
        print(f"bench_baseline: ratio {key} = {value:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
