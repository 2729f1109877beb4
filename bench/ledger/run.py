#!/usr/bin/env python3
"""Performance-ledger runner (Python standard library only).

Builds bench/ledger's vrl_bench program from the checkout it sits in, runs it
in fresh processes and reduces the results.

One measured run (the command BENCHMARK.json names; the last stdout line is
the JSON result, with the per-layer metrics under --trace 1):
    python3 bench/ledger/run.py --workload fig4_suite --seed 42 \\
        --seconds 25 --trace 0
Ledger: one warm-up per workload, then N runs alternating the order:
    python3 bench/ledger/run.py --ledger --runs 5 --seed 42 --out a.json
Compare two ledgers under the BENCHMARK.json bounds (exit 1 when a metric
regressed or is unresolved):
    python3 bench/ledger/run.py --compare a.json b.json
Regenerate the pinned digests (expected.json) for seeds 42 and 7:
    python3 bench/ledger/run.py --bless
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "ledger"
VRL_BENCH = BUILD / "vrl_bench"
TRACES = BUILD / "traces"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

# Threads each workload runs at (the library's own fan-outs; 1 = serial).
WORKLOADS = {
    "fig4_suite": 2,
    "tournament_ddr4": 1,
    "fault_vrt": 2,
    "table1_circuit": 1,
}
BLESS_SEEDS = (42, 7)


class RunError(Exception):
    pass


def build():
    """Configures once, then builds vrl_bench incrementally."""
    if not (ROOT / "src" / "core" / "vrl_system.hpp").is_file():
        raise RunError(f"no library sources under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "vrl_bench",
                  "-j", "2"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                raise RunError("build failed:\n" + "\n".join(tail))


def pins_for(seed, workload):
    """The pinned digests of (seed, workload) in leg order, or None."""
    if not EXPECTED.is_file():
        return None
    legs = json.loads(EXPECTED.read_text()).get(str(seed), {}).get(workload)
    return list(legs.values()) if legs else None


def run_bench(workload, seed, seconds, pins=None, trace=False):
    """Runs one vrl_bench process; returns its parsed report."""
    cmd = [str(VRL_BENCH), "--workload", workload, "--seed", str(seed),
           "--threads", str(WORKLOADS[workload]), "--seconds", str(seconds)]
    if pins:
        cmd += ["--expect", ",".join(pins)]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(TRACES / f"{workload}-{seed}.json")]
    env = {k: v for k, v in os.environ.items() if k != "VRL_THREADS"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          stdin=subprocess.DEVNULL, timeout=seconds + 120)
    report = {"exit": proc.returncode, "legs": [], "metrics": {},
              "failures": [], "attempted": 0, "failed": 0}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["leg"] and len(parts) >= 5:
            report["legs"].append({"label": parts[2], "digest": parts[3],
                                   "status": " ".join(parts[4:])})
        elif parts[:1] == ["metric"] and len(parts) == 4:
            try:
                report["metrics"][parts[1]] = (float(parts[2]), parts[3])
            except ValueError:
                pass  # "unchecked": no number to report
        elif parts[:1] == ["legs"]:
            fields = dict(p.split("=", 1) for p in parts[1:])
            report["attempted"] = int(fields["attempted"])
            report["failed"] = int(fields["failed"])
        elif parts[1:2] == ["FAIL"]:
            report["failures"].append(line)
    if proc.returncode not in (0, 1) or not report["metrics"]:
        raise RunError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                       f"{proc.stderr.strip()}")
    report["failures"] += [f"leg {leg['label']}: {leg['status']}"
                           for leg in report["legs"] if leg["status"] != "ok"]
    return report


def digests(report):
    return [leg["digest"] for leg in report["legs"]]


def benchmark_spec():
    return json.loads(BENCHMARK.read_text())


# -- One measured run (the command BENCHMARK.json names) --------------------

def measure(workload, seed, seconds, traced):
    """One vrl_bench process measures for `seconds`.  A traced process traces
    every second pass, and its later passes, traced or not, must reproduce
    the first, untraced, pass exactly."""
    spec = benchmark_spec()
    pins = pins_for(seed, workload)
    report = run_bench(workload, seed, seconds, pins, traced)
    for failure in report["failures"]:
        print(failure, file=sys.stderr)
    names = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {m["name"]: {"value": report["metrics"][m["name"]][0],
                           "unit": m["unit"]} for m in names}
    print(f"{workload} seed={seed} "
          f"passes={int(report['metrics']['passes'][0])} "
          f"pins={'checked' if pins else 'unchecked'}")
    print(json.dumps({"correct": report["exit"] == 0
                      and not report["failures"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


# -- Ledger, comparison and blessing ----------------------------------------

def summarize(values):
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"n": len(values), "values": values,
            "median": statistics.median(values), "q1": q1, "q3": q3}


def ledger(runs, seed, seconds, out, traced):
    for workload in WORKLOADS:
        run_bench(workload, seed, 0)  # warm-up, untimed
    samples = {w: {} for w in WORKLOADS}
    reference = {}
    failures = []
    for i in range(runs):
        order = list(WORKLOADS) if i % 2 == 0 else list(reversed(WORKLOADS))
        for workload in order:
            for as_traced in ([False, True] if traced else [False]):
                report = run_bench(workload, seed, seconds,
                                    pins_for(seed, workload), as_traced)
                failures += [f"{workload}: {f}" for f in report["failures"]]
                reference.setdefault(workload, digests(report))
                if digests(report) != reference[workload]:
                    failures.append(f"{workload}: digests changed between "
                                    "processes")
                for name, (value, unit) in report["metrics"].items():
                    # From a traced process, only the per-layer metrics:
                    # they are dotted.
                    if as_traced and "." not in name:
                        continue
                    samples[workload].setdefault(name, (unit, []))[1].append(
                        value)
    result = {"seed": seed, "runs": runs, "seconds": seconds,
              "workloads": {}, "legs": reference, "failures": failures}
    for workload, metrics in samples.items():
        rows = {name: {"unit": unit, **summarize(values)}
                for name, (unit, values) in metrics.items()}
        result["workloads"][workload] = rows
        print(f"\n{workload}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12}  n  unit")
        for name, row in rows.items():
            print(f"  {name:34} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['n']:2d}  {row['unit']}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if out:
        Path(out).write_text(json.dumps(result, indent=1) + "\n")
    return 1 if failures else 0


def compare(path_a, path_b):
    """B against A under the BENCHMARK.json bounds.  A metric whose
    run-to-run spread exceeds its bound is unresolved, unless every run of B
    reads better than every run of A."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    bad = 0
    print(f"{'workload':16} {'metric':12} {'A':>10} {'B':>10} {'worse':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        for m in benchmark_spec()["end_to_end"]:
            name, bound = m["name"], m["bound"]
            ra, rb = a[workload][name], b[workload][name]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (rb["median"] - ra["median"]) / ra["median"]
            spread = max((r["q3"] - r["q1"]) / r["median"] for r in (ra, rb))
            all_better = all(sign * (vb - va) < 0 for va in ra["values"]
                             for vb in rb["values"])
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(f"{workload:16} {name:12} {ra['median']:10.5g} "
                  f"{rb['median']:10.5g} {worse:+8.2%} {spread:7.2%} "
                  f"{bound:6.0%}  {verdict}")
    return 1 if bad else 0


def bless():
    pins = {}
    for seed in BLESS_SEEDS:
        pins[str(seed)] = {}
        for workload in WORKLOADS:
            report = run_bench(workload, seed, 0)
            if report["exit"] != 0:
                raise RunError(f"{workload} seed {seed} fails its checks; "
                               "not blessing:\n" + "\n".join(report["failures"]))
            pins[str(seed)][workload] = {leg["label"]: leg["digest"]
                                         for leg in report["legs"]}
            print(f"blessed {workload} seed {seed}: "
                  f"{len(report['legs'])} legs")
    EXPECTED.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


def seed_arg(text):
    if not text.isdigit() or int(text) >= 2 ** 64:
        raise argparse.ArgumentTypeError(f"not a 64-bit unsigned seed: {text}")
    return int(text)


def count_arg(text):
    if not text.isdigit() or not 0 < int(text) <= 3600:
        raise argparse.ArgumentTypeError(f"not an integer in [1, 3600]: {text}")
    return int(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=list(WORKLOADS))
    mode.add_argument("--ledger", action="store_true")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"))
    mode.add_argument("--bless", action="store_true")
    parser.add_argument("--seed", type=seed_arg, default=42)
    parser.add_argument("--seconds", type=count_arg, default=25)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--runs", type=count_arg, default=5,
                        help="ledger: runs per workload")
    parser.add_argument("--with-trace", action="store_true",
                        help="ledger: add a traced process to every run")
    parser.add_argument("--out", help="ledger: write the result set here")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        build()
        if args.bless:
            return bless()
        if args.ledger:
            return ledger(args.runs, args.seed, args.seconds, args.out,
                          args.with_trace)
        measure(args.workload, args.seed, args.seconds, args.trace == "1")
        return 0
    except (RunError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
