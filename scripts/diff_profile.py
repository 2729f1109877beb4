#!/usr/bin/env python3
"""Diff two vrl.profile.v1 attribution exports and gate on regressions.

    python3 scripts/diff_profile.py baseline.json current.json [--threshold T]

Nodes are matched by ``path`` (the ';'-joined root chain — stable across
runs because the tree is deterministic; docs/PROFILING.md).  For each
common node the per-call inclusive and exclusive costs are compared with
the same ``ratio_regressed`` gate as scripts/diff_runs.py: a phase
regresses when its cost per call grew by more than ``--threshold``
relative to the baseline.  Per-call (not total) cost is what is gated so
a run that simply does more work — more windows, more legs — does not
read as a slowdown.

Call counts are compared exactly by default: the profiler's counts are
deterministic, so a count change means the simulation itself changed.
Relax with --allow-count-drift when diffing different configurations.

Scrubbed exports (--profile-scrub, all times zero) skip the time gates
and compare tree shape + counts only — that is the CI byte-identity mode.

Exit 0 when nothing regressed, 1 otherwise, 2 on bad input.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from diff_runs import ratio_regressed  # noqa: E402


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"diff_profile: {path}: {error}")
    if doc.get("schema") != "vrl.profile.v1":
        raise SystemExit(
            f"diff_profile: {path}: schema {doc.get('schema')!r}, "
            "want 'vrl.profile.v1' (a --profile-out JSON export)"
        )
    return {node["path"]: node for node in doc.get("nodes", [])}


def scrubbed(nodes):
    return all(
        node.get("inclusive_s", 0) == 0 and node.get("exclusive_s", 0) == 0
        for node in nodes.values()
    )


def diff(baseline, current, threshold, allow_count_drift):
    regressions = []
    notes = []
    skip_times = scrubbed(baseline) or scrubbed(current)
    if skip_times:
        notes.append("times scrubbed on at least one side: comparing shape/counts only")

    for path in sorted(set(baseline) | set(current)):
        base = baseline.get(path)
        node = current.get(path)
        if base is None:
            notes.append(f"{path}: new phase (not in baseline)")
            continue
        if node is None:
            regressions.append(f"{path}: phase disappeared from current run")
            continue
        if base["calls"] != node["calls"]:
            message = f"{path}: calls {base['calls']} -> {node['calls']}"
            if allow_count_drift:
                notes.append(message)
            else:
                regressions.append(message + " (counts are deterministic)")
        if base.get("units", 0) != node.get("units", 0):
            message = f"{path}: units {base.get('units', 0)} -> {node.get('units', 0)}"
            if allow_count_drift:
                notes.append(message)
            else:
                regressions.append(message + " (counts are deterministic)")
        if skip_times:
            continue
        for field in ("inclusive_s", "exclusive_s"):
            base_per_call = base[field] / max(1, base["calls"])
            per_call = node[field] / max(1, node["calls"])
            if ratio_regressed(per_call, base_per_call, threshold):
                regressions.append(
                    f"{path}: {field}/call {base_per_call:.3e} -> "
                    f"{per_call:.3e} (> +{threshold:.0%})"
                )
            elif per_call != base_per_call:
                notes.append(
                    f"{path}: {field}/call {base_per_call:.3e} -> {per_call:.3e}"
                )
    return regressions, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline --profile-out JSON")
    parser.add_argument("current", help="current --profile-out JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed relative per-call cost growth (default 0.10)",
    )
    parser.add_argument(
        "--allow-count-drift",
        action="store_true",
        help="call/unit count changes are noted, not failed "
        "(for diffing different configurations)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    regressions, notes = diff(
        baseline, current, args.threshold, args.allow_count_drift
    )

    for note in notes:
        print(f"diff_profile: {note}")
    for regression in regressions:
        print(f"diff_profile: REGRESSION: {regression}", file=sys.stderr)
    compared = len(set(baseline) & set(current))
    verdict = "FAIL" if regressions else "OK"
    print(
        f"diff_profile: {verdict}: {compared} phases compared, "
        f"{len(regressions)} regressed"
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
