#!/usr/bin/env python3
"""Check that the telemetry fixtures lost only records the lineage still pins.

The golden `*.telemetry.jsonl` fixtures once carried the event ring
(`"type":"event"` lines plus an `event_summary`) beside their metric lines.
The event ring recorded the same transitions as the lineage ring, which is
now the only one.  This check compares each fixture at a base revision that
still has the event lines with the working tree and asserts:

  * the working-tree fixture equals the base fixture minus its event and
    event_summary lines, byte for byte;
  * in every run section, the deleted events equal the sibling
    `.lineage.jsonl` records in order on (kind, cycle, row, a=detail,
    value), and the event summary's recorded/retained/dropped equal the
    lineage summary's.  The one allowed difference: an `Adaptive(VRL)`
    demotion's value, where the lineage carries the failure pressure and
    the event ring carried 0.

Usage: scripts/check_fixture_event_drop.py --base REV
Exits 0 when every fixture passes, 1 otherwise.
"""

import argparse
import json
import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path("tests/golden")
FIXTURES = ["traced_flat_vrl_access", "refresh_op_streams"]


def sections(lines):
    """Splits fixture lines into run sections keyed by their header line."""
    out = {}
    key = ""
    for line in lines:
        if line.startswith('{"run":'):
            key = line
        out.setdefault(key, []).append(line)
    return out


def check(name, base):
    old = subprocess.run(
        ["git", "show", f"{base}:{GOLDEN / (name + '.telemetry.jsonl')}"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    new = (GOLDEN / f"{name}.telemetry.jsonl").read_text().splitlines()
    lineage = sections(
        (GOLDEN / f"{name}.lineage.jsonl").read_text().splitlines())
    errors = []
    is_event = lambda line: line.startswith(
        ('{"type":"event"', '{"type":"event_summary"'))
    if [line for line in old if not is_event(line)] != new:
        errors.append("metric lines differ from the base fixture")
    for key, lines in sections(old).items():
        events = [json.loads(l) for l in lines if is_event(l)]
        records = [json.loads(l) for l in lineage.get(key, [])
                   if not l.startswith('{"run":')]
        if len(events) != len(records):
            errors.append(f"{key or 'run'}: {len(events)} events vs "
                          f"{len(records)} lineage lines")
            continue
        for i, (event, record) in enumerate(zip(events, records)):
            if event["type"] == "event_summary":
                same = all(event[f] == record.get(f)
                           for f in ("recorded", "retained", "dropped"))
                same = same and record["type"] == "lineage_summary"
            else:
                value_ok = event["value"] == record["value"] or (
                    record["kind"] == "demotion" and event["value"] == 0
                    and record["cause"] == "Adaptive(VRL)")
                same = value_ok and record["type"] == "lineage" and all(
                    event[f] == record[f] for f in ("kind", "cycle", "row"))
                same = same and event["a"] == record["detail"]
            if not same:
                errors.append(f"{key or 'run'} line {i}: {event} != {record}")
    return len([l for l in old if is_event(l)]), errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="revision whose fixtures still carry event lines")
    args = parser.parse_args()
    failed = False
    for name in FIXTURES:
        deleted, errors = check(name, args.base)
        for error in errors:
            print(f"{name}: {error}")
        failed = failed or bool(errors)
        print(f"{name}: {deleted} deleted event lines "
              f"{'FAIL' if errors else 'all repeat pinned lineage'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
