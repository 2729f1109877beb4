#!/usr/bin/env python3
"""Same-machine A/B of the performance ledger: a git revision against the
working tree.

Checks out REV in a temporary git worktree, builds bench/ledger's vrl_bench
in each tree from a fresh build directory, runs the two trees'
`run.py --ledger --runs 1` alternately RUNS times, merges each tree's runs
into one ledger and compares them with `run.py --compare`:

    python3 scripts/ledger_ab.py --ref HEAD~ [--runs 5] [--seed 42]
        [--seconds 25] [--out ledger-ab]

With --workload NAME it A/Bs that one workload in RUNS alternating pairs
(default 10) of single vrl_bench processes, pins checked, after one untimed
warm-up per tree.  For each end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles, the change of the median and the number
of pairs the working tree won, so a claim of "better in at least 9 of 10
pairs, by more than the reference's quartile distance" reads off directly:

    python3 scripts/ledger_ab.py --ref HEAD~ --workload tournament_ddr4
        [--runs 10] [--seed 42] [--seconds 5] [--out ledger-ab]

and writes every pair's values to `<out>/<workload>_seed<seed>.json`.

Each tree's build directory is `<tree>/.bench_build/ledger`, where its
run.py builds; the script empties it first and, after the build, prints
the CMAKE_HOME_DIRECTORY of the cache next to each vrl_bench.  A cache that
names another tree (a checkout copied together with its build directory)
fails the run, since that binary would measure the other tree's sources.

Writes `ref.json` (REV) and `work.json` (the working tree), plus one
`<tree>_<i>.json` and `.log` per run, under --out.  Nothing under
bench/ledger/ is written.  Exit status: run.py --compare's (0 when every
gated metric is `ok`), or 1 when a build, a run or a pin check fails (with
--workload: 0 unless a build, a run, a pin check or the digest comparison
fails).  Python standard library only.
"""

import argparse
import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # loading run.py leaves no __pycache__ there


class AbError(Exception):
    pass


def load_runner(tree, label):
    """The tree's bench/ledger/run.py as a module (its paths point into it)."""
    path = tree / "bench" / "ledger" / "run.py"
    spec = importlib.util.spec_from_file_location(f"ledger_run_{label}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cache_home(build_dir):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1])
    raise AbError(f"no CMAKE_HOME_DIRECTORY in {build_dir}/CMakeCache.txt")


def fresh_build(tree, label):
    runner = load_runner(tree, label)
    if runner.BUILD.exists():
        shutil.rmtree(runner.BUILD)
    try:
        runner.build()
    except runner.RunError as error:
        raise AbError(f"{label}: {error}") from error
    home = cache_home(runner.BUILD)
    print(f"{label}: {runner.VRL_BENCH} CMAKE_HOME_DIRECTORY={home}",
          flush=True)
    if home.resolve() != (tree / "bench" / "ledger").resolve():
        raise AbError(f"{label}: {runner.BUILD} was configured for {home}, "
                      f"not for {tree}")
    return runner


def run_ledger(tree, label, index, args, out):
    result = out / f"{label}_{index}.json"
    log = out / f"{label}_{index}.log"
    cmd = [sys.executable, str(tree / "bench" / "ledger" / "run.py"),
           "--ledger", "--runs", "1", "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(result)]
    print(f"run {index + 1}/{args.runs}: {label}", flush=True)
    with open(log, "w") as handle:
        code = subprocess.run(cmd, stdout=handle, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode
    if code != 0:
        raise AbError(f"{label} run {index + 1} failed; see {log}")
    return json.loads(result.read_text())


def ab_workload(runners, args, out):
    """RUNS alternating pairs of one workload; prints the pair table."""
    workload = args.workload
    pins = runners["work"].pins_for(args.seed, workload)
    for runner in runners.values():
        runner.run_bench(workload, args.seed, 0)  # warm-up, untimed
    reports = {"ref": [], "work": []}
    for i in range(args.runs):
        order = ["ref", "work"] if i % 2 == 0 else ["work", "ref"]
        print(f"pair {i + 1}/{args.runs}: {' then '.join(order)}", flush=True)
        for label in order:
            reports[label].append(runners[label].run_bench(
                workload, args.seed, args.seconds, pins))
    failures = [f"{label} run {i + 1}: {failure}"
                for label, runs in reports.items()
                for i, report in enumerate(runs)
                for failure in report["failures"]]
    legs = {label: runners[label].digests(runs[0])
            for label, runs in reports.items()}
    same = legs["ref"] == legs["work"]
    if not same:
        failures.append("leg digests differ between the trees")
    print(f"\n{workload} seed={args.seed} seconds={args.seconds} "
          f"pairs={args.runs} pins={'checked' if pins else 'unchecked'} "
          f"leg digests: {'identical' if same else 'DIFFER'}")
    print(f"{'metric':12} {'ref median':>11} {'[q1, q3]':>19} "
          f"{'work median':>11} {'[q1, q3]':>19} {'change':>8} "
          f"{'ref IQR':>8}  won")
    table = {}
    summarize = runners["work"].summarize
    for m in runners["work"].benchmark_spec()["end_to_end"]:
        name = m["name"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        values = {label: [r["metrics"][name][0] for r in runs]
                  for label, runs in reports.items()}
        rows = {label: summarize(v) for label, v in values.items()}
        ref, work = rows["ref"], rows["work"]
        won = sum(sign * (w - r) < 0
                  for r, w in zip(values["ref"], values["work"]))
        change = (work["median"] - ref["median"]) / ref["median"]
        iqr = (ref["q3"] - ref["q1"]) / ref["median"]
        table[name] = {"unit": m["unit"], "better": m["better"],
                       "ref": ref, "work": work, "won": won}
        print(f"{name:12} {ref['median']:11.5g} "
              f"[{ref['q1']:8.4g}, {ref['q3']:8.4g}] {work['median']:11.5g} "
              f"[{work['q1']:8.4g}, {work['q3']:8.4g}] {change:+8.2%} "
              f"{iqr:8.2%}  {won}/{args.runs}")
    path = out / f"{workload}_seed{args.seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": args.seed,
                                "seconds": args.seconds, "ref": args.ref,
                                "pairs": args.runs, "metrics": table,
                                "failures": failures}, indent=1) + "\n")
    print(f"pairs: {path}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def merge(ledgers, summarize):
    """One ledger from single-run ledgers: every metric's values pooled."""
    merged = {key: ledgers[0][key] for key in ("seed", "seconds", "legs")}
    merged["runs"] = len(ledgers)
    merged["failures"] = [f for ledger in ledgers for f in ledger["failures"]]
    merged["workloads"] = {}
    for workload, metrics in ledgers[0]["workloads"].items():
        rows = {}
        for name, row in metrics.items():
            values = [v for ledger in ledgers
                      for v in ledger["workloads"][workload][name]["values"]]
            rows[name] = {"unit": row["unit"], **summarize(values)}
        merged["workloads"][workload] = rows
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git revision to compare")
    parser.add_argument("--workload",
                        choices=list(load_runner(ROOT, "work").WORKLOADS),
                        help="A/B this one workload in alternating pairs")
    parser.add_argument("--runs", type=int,
                        help="ledger runs per tree, alternating (default 5), "
                             "or pairs with --workload (default 10)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=25,
                        help="run.py --seconds per workload run")
    parser.add_argument("--out", default="ledger-ab",
                        help="directory for the ledgers and logs")
    args = parser.parse_args()
    if args.runs is None:
        args.runs = 10 if args.workload else 5
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ledger_ab_"))
    ref_tree = scratch / "ref"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                        str(ref_tree), args.ref], check=True,
                       stdin=subprocess.DEVNULL)
        trees = {"ref": ref_tree, "work": ROOT}
        runners = {label: fresh_build(tree, label)
                   for label, tree in trees.items()}
        if args.workload:
            return ab_workload(runners, args, out)
        ledgers = {label: [] for label in trees}
        for i in range(args.runs):
            order = ["ref", "work"] if i % 2 == 0 else ["work", "ref"]
            for label in order:
                ledgers[label].append(
                    run_ledger(trees[label], label, i, args, out))
        paths = {}
        for label, runs in ledgers.items():
            paths[label] = out / f"{label}.json"
            merged = merge(runs, runners["work"].summarize)
            paths[label].write_text(json.dumps(merged, indent=1) + "\n")
        same = ledgers["ref"][0]["legs"] == ledgers["work"][0]["legs"]
        print(f"leg digests: {'identical' if same else 'DIFFER'} "
              f"between {args.ref} and the working tree")
        print(f"ledgers: {paths['ref']} (A, {args.ref}), "
              f"{paths['work']} (B, working tree)", flush=True)
        return subprocess.run(
            [sys.executable, str(ROOT / "bench" / "ledger" / "run.py"),
             "--compare", str(paths["ref"]), str(paths["work"])],
            stdin=subprocess.DEVNULL).returncode
    except (AbError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as error:
        print(f"ledger_ab.py: {error}", file=sys.stderr)
        return 1
    finally:
        if ref_tree.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(ref_tree)],
                           stdin=subprocess.DEVNULL)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
