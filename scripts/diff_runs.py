#!/usr/bin/env python3
"""vrl-diff: compare two exported runs and gate on regressions.

    python3 scripts/diff_runs.py baseline.json current.json [--threshold T]

Both inputs are either report JSON files written by the uniform `--json`
flag (bench/reporting.hpp) or trace JSONL files written by `--trace-out
foo.jsonl`.  Every numeric value is extracted into a flat metric map:

  * ``meta.<key>``                      numeric report metadata
  * ``telemetry.<name>.<field>``        telemetry table entries
  * ``<table>.<row-key>.<column>``      other tables, rows keyed by their
                                        first column
  * ``trace.<summary>.<field>``         span/lineage summary accounting of
                                        a JSONL trace, plus per-type line
                                        counts

The gate is ``ratio_regressed`` (defined here; scripts/diff_profile.py,
bench_baseline.py and bench_trajectory.py import it), applied in BOTH
directions: a metric regresses when it moved by more than
``--threshold`` relative to the baseline either way.  The default
threshold is 0 — the simulator is deterministic (docs/EXPERIMENTS.md), so
two runs of the same configuration must produce identical metrics and any
drift is a real behaviour change.  Raise the threshold when diffing runs
that are *expected* to differ (other seeds, hosts, configs).

Keys present on only one side are reported; they fail the gate unless
--allow-missing.  Exit code: 0 when no metric regressed, 1 otherwise,
2 on bad input.
"""

import argparse
import json
import sys


def ratio_regressed(value, base_value, threshold):
    """True when `value` regressed past `base_value` by more than `threshold`.

    "10% regression" means the metric itself grew by >10% relative to the
    baseline (e.g. a 1.01 overhead ratio rising past 1.111), not an absolute
    +0.10.  Every gate in scripts/ imports it from here, so they all agree
    on what a regression is.  Baselines at (or below) zero cannot be
    ratio-gated: any positive value counts as a regression, zero/negative
    never does.
    """
    if base_value <= 0.0:
        return value > 0.0
    return value > base_value * (1.0 + threshold)


def to_number(text):
    """The report writer renders every cell as a string; recover numbers."""
    if isinstance(text, (int, float)):
        return float(text)
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def extract_report(doc, path):
    metrics = {}
    for key, value in doc.get("meta", {}).items():
        number = to_number(value)
        if number is not None:
            metrics[f"meta.{key}"] = number
    for table_name, table in doc.get("tables", {}).items():
        headers = table.get("headers", [])
        if not headers:
            continue
        if table_name == "telemetry":
            for row in table.get("rows", []):
                number = to_number(row.get("value"))
                if number is not None:
                    metrics[f"telemetry.{row['name']}.{row['field']}"] = number
            continue
        if table_name in ("profile", "profile_tree"):
            continue  # wall-time phase tables (--profile): machine-dependent
            # ("profile" only appears in reports of earlier revisions;
            # attribution counts are gated by scripts/diff_profile.py on
            # the scrubbed --profile-out export instead)
        key_column = headers[0]
        for index, row in enumerate(table.get("rows", [])):
            row_key = row.get(key_column, str(index))
            for column in headers[1:]:
                number = to_number(row.get(column))
                if number is not None:
                    metrics[f"{table_name}.{row_key}.{column}"] = number
    if not metrics:
        raise SystemExit(f"diff_runs: {path}: no numeric metrics found")
    return metrics


def extract_trace_jsonl(path):
    metrics = {}
    counts = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise SystemExit(f"diff_runs: {path}:{lineno}: {error}")
            kind = record.get("type", "?")
            counts[kind] = counts.get(kind, 0) + 1
            if kind in ("span_summary", "lineage_summary"):
                for field in ("recorded", "retained", "dropped"):
                    if field in record:
                        metrics[f"trace.{kind}.{field}"] = float(record[field])
    for kind, count in counts.items():
        if not kind.endswith("_summary"):
            metrics[f"trace.lines.{kind}"] = float(count)
    if not metrics:
        raise SystemExit(f"diff_runs: {path}: no trace records found")
    return metrics


def load_metrics(path):
    if path.endswith(".jsonl"):
        return extract_trace_jsonl(path)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"diff_runs: {path}: {error}")
    return extract_report(doc, path)


def diff(baseline, current, threshold, allow_missing):
    regressions = []
    changed = []
    for key in sorted(set(baseline) | set(current)):
        base_value = baseline.get(key)
        value = current.get(key)
        if base_value is None or value is None:
            side = "baseline" if base_value is None else "current"
            message = f"{key}: only in {'current' if side == 'baseline' else 'baseline'}"
            if allow_missing:
                changed.append(message)
            else:
                regressions.append(message)
            continue
        if value == base_value:
            continue
        # Symmetric gate: drifting up OR down past the threshold fails.
        moved = ratio_regressed(value, base_value, threshold) or ratio_regressed(
            base_value, value, threshold
        )
        delta = f"{key}: {base_value:g} -> {value:g}"
        if moved:
            regressions.append(delta)
        else:
            changed.append(delta)
    return regressions, changed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline export (.json report / .jsonl trace)")
    parser.add_argument("current", help="current export of the same kind")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.0,
        help="allowed relative drift either way (default 0: exact match)",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="metrics present on only one side are noted, not failed",
    )
    args = parser.parse_args()

    baseline = load_metrics(args.baseline)
    current = load_metrics(args.current)
    regressions, changed = diff(baseline, current, args.threshold, args.allow_missing)

    compared = len(set(baseline) & set(current))
    for note in changed:
        print(f"diff_runs: drift (within threshold): {note}")
    for regression in regressions:
        print(f"diff_runs: REGRESSION: {regression}", file=sys.stderr)
    verdict = "FAIL" if regressions else "OK"
    print(
        f"diff_runs: {verdict}: {compared} metrics compared, "
        f"{len(regressions)} regressed, {len(changed)} drifted within threshold"
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
