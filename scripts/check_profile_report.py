#!/usr/bin/env python3
"""Validate a vrl.profile.v1 attribution export (--profile-out foo.json).

    python3 scripts/check_profile_report.py profile.json [--expect-phase NAME]

Checks the invariants the profiler (src/telemetry/profiler.hpp) promises:

  * schema is ``vrl.profile.v1`` with integer ``frames``/``drops`` >= 0
  * the node list is a well-formed forest: every ``parent`` is -1 or a
    smaller ``id`` (parents are created before children), ``depth`` is
    parent depth + 1, ``path`` is the ';'-joined root chain
  * per node: ``calls`` >= 0 (0 only for a frame still open when the
    snapshot was taken) and ``exclusive_s <= inclusive_s`` (+eps)
  * ``frames == sum(node.calls)`` — every counted frame is attributed
    (drops are accounted separately, never silently lost)

Deliberately NOT checked: parent inclusive >= sum(child inclusive).  Hot
phases are sampled 1-in-64 and scaled (telemetry::PhaseAccumulator folds
its estimate into the tree), so a child's estimate can legitimately
overshoot its parent's measured time.

--expect-phase NAME (repeatable) requires a node with that name, so CI
can assert the controller/campaign wiring actually produced frames.
Exit 0 on success, 1 on violation, 2 on bad input.
"""

import argparse
import json
import sys


EPS = 1e-9


def fail(message):
    print(f"check_profile_report: FAIL: {message}", file=sys.stderr)
    return 1


def check(doc, expect_phases):
    if doc.get("schema") != "vrl.profile.v1":
        return fail(f"schema is {doc.get('schema')!r}, want 'vrl.profile.v1'")
    frames = doc.get("frames")
    drops = doc.get("drops")
    if not isinstance(frames, int) or frames < 0:
        return fail(f"frames is {frames!r}, want a non-negative integer")
    if not isinstance(drops, int) or drops < 0:
        return fail(f"drops is {drops!r}, want a non-negative integer")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list):
        return fail("nodes is not a list")

    total_calls = 0
    names = set()
    for index, node in enumerate(nodes):
        where = f"node {index}"
        if node.get("id") != index:
            return fail(f"{where}: id {node.get('id')!r} != position {index}")
        parent = node.get("parent")
        if not isinstance(parent, int) or parent >= index or parent < -1:
            return fail(
                f"{where}: parent {parent!r} must be -1 or a smaller id "
                "(parents precede children)"
            )
        depth = node.get("depth")
        want_depth = 0 if parent < 0 else nodes[parent]["depth"] + 1
        if depth != want_depth:
            return fail(f"{where}: depth {depth!r}, want {want_depth}")
        name = node.get("name")
        if not name:
            return fail(f"{where}: empty name")
        want_path = name if parent < 0 else f"{nodes[parent]['path']};{name}"
        if node.get("path") != want_path:
            return fail(f"{where}: path {node.get('path')!r}, want {want_path!r}")
        # calls == 0 is legal: a snapshot can see a node whose frame is
        # still open (opened at BeginPhase, counted at EndPhase), and a
        # PhaseAccumulator that never started folds a node with no calls.
        calls = node.get("calls")
        if not isinstance(calls, int) or calls < 0:
            return fail(f"{where} ({name}): calls {calls!r}, want >= 0")
        units = node.get("units")
        if not isinstance(units, int) or units < 0:
            return fail(f"{where} ({name}): units {units!r}, want >= 0")
        inclusive = node.get("inclusive_s")
        exclusive = node.get("exclusive_s")
        if not isinstance(inclusive, (int, float)) or inclusive < 0:
            return fail(f"{where} ({name}): inclusive_s {inclusive!r}")
        if not isinstance(exclusive, (int, float)) or exclusive < 0:
            return fail(f"{where} ({name}): exclusive_s {exclusive!r}")
        if exclusive > inclusive + EPS:
            return fail(
                f"{where} ({name}): exclusive_s {exclusive} > "
                f"inclusive_s {inclusive}"
            )
        total_calls += calls
        names.add(name)

    if frames != total_calls:
        return fail(
            f"frames {frames} != sum of node calls {total_calls} "
            "(a frame was lost without landing in drops)"
        )
    for phase in expect_phases:
        if phase not in names:
            return fail(f"expected phase {phase!r} not present in the tree")

    print(
        f"check_profile_report: OK: {len(nodes)} nodes, {frames} frames, "
        f"{drops} dropped"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="profile JSON (--profile-out)")
    parser.add_argument(
        "--expect-phase",
        action="append",
        default=[],
        metavar="NAME",
        help="require a node with this name (repeatable)",
    )
    args = parser.parse_args()

    try:
        with open(args.report) as f:
            body = f.read()
    except OSError as error:
        raise SystemExit(f"check_profile_report: {error}")

    try:
        doc = json.loads(body)
    except json.JSONDecodeError as error:
        raise SystemExit(f"check_profile_report: not valid JSON: {error}")
    return check(doc, args.expect_phase)


if __name__ == "__main__":
    sys.exit(main())
