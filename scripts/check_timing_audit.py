#!/usr/bin/env python3
"""Validate a timing audit log produced by refresh_tournament --audit-out.

    python3 scripts/check_timing_audit.py audit.log [--expect-preset NAME] \
        [--allow-violations]

The file holds one or more sections, each the byte-deterministic rendering
of one dram::AuditReport (src/dram/auditor.hpp):

    # vrl timing audit v1
    # preset=<label> commands=<n> violations=<k>
    violation at=<cycle> rule=<rule> ch=<c> rk=<r> bg=<g> bk=<b> <detail>
    ...
    # end

Checks (stdlib only, no third-party deps):
  * every section opens with the v1 header, carries a preset/commands/
    violations line, and closes with `# end`;
  * each section's violation-line count matches its declared count, lines
    parse, and cycles are non-decreasing within a section;
  * each section audited a non-zero number of commands (an empty sweep
    would pass vacuously);
  * without --allow-violations, every section declares zero violations —
    the conformance contract CI enforces.

Exit code 0 on a valid (and clean) log, 1 with a diagnostic otherwise.
"""

import argparse
import re
import sys

HEADER = "# vrl timing audit v1"
META_RE = re.compile(r"^# preset=(\S+) commands=(\d+) violations=(\d+)$")
VIOLATION_RE = re.compile(
    r"^violation at=(\d+) rule=(\S+) ch=(\d+) rk=(\d+) bg=(\d+) bk=(\d+) (.+)$"
)


def fail(message):
    print(f"check_timing_audit: FAIL: {message}", file=sys.stderr)
    return 1


def parse_sections(path, lines):
    """Yields (preset, commands, declared, violations) or raises ValueError."""
    i = 0
    while i < len(lines):
        if lines[i] != HEADER:
            raise ValueError(f"line {i + 1}: expected {HEADER!r}, got {lines[i]!r}")
        if i + 1 >= len(lines):
            raise ValueError(f"line {i + 2}: missing preset line")
        meta = META_RE.match(lines[i + 1])
        if not meta:
            raise ValueError(f"line {i + 2}: bad preset line {lines[i + 1]!r}")
        preset, commands, declared = meta.group(1), int(meta.group(2)), int(meta.group(3))
        i += 2
        violations = []
        while i < len(lines) and lines[i] != "# end":
            match = VIOLATION_RE.match(lines[i])
            if not match:
                raise ValueError(f"line {i + 1}: bad violation line {lines[i]!r}")
            violations.append((int(match.group(1)), match.group(2)))
            i += 1
        if i >= len(lines):
            raise ValueError(f"{path}: section {preset!r} missing '# end'")
        i += 1  # consume "# end"
        yield preset, commands, declared, violations


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("audit", help="audit log (--audit-out output)")
    parser.add_argument(
        "--expect-preset",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless a section for this preset exists; repeatable",
    )
    parser.add_argument(
        "--allow-violations",
        action="store_true",
        help="only validate the format; do not fail on declared violations",
    )
    args = parser.parse_args()

    with open(args.audit) as f:
        lines = f.read().splitlines()
    if not lines:
        return fail(f"{args.audit}: empty file")

    seen = {}
    try:
        for preset, commands, declared, violations in parse_sections(
            args.audit, lines
        ):
            if preset in seen:
                return fail(f"{args.audit}: duplicate section for {preset!r}")
            if len(violations) != declared:
                return fail(
                    f"{args.audit}: section {preset!r} declares {declared} "
                    f"violations but lists {len(violations)}"
                )
            if commands == 0:
                return fail(
                    f"{args.audit}: section {preset!r} audited zero commands"
                )
            cycles = [at for at, _ in violations]
            if cycles != sorted(cycles):
                return fail(
                    f"{args.audit}: section {preset!r} violations not "
                    "cycle-ordered"
                )
            seen[preset] = (commands, declared)
    except ValueError as error:
        return fail(f"{args.audit}: {error}")

    for preset in args.expect_preset:
        if preset not in seen:
            have = ", ".join(sorted(seen)) or "none"
            return fail(f"{args.audit}: no section for {preset!r} (have: {have})")

    dirty = {p: d for p, (_, d) in seen.items() if d}
    if dirty and not args.allow_violations:
        detail = ", ".join(f"{p}:{d}" for p, d in sorted(dirty.items()))
        return fail(f"{args.audit}: timing violations {{{detail}}}")

    summary = "; ".join(
        f"{p}: {c} commands, {d} violations" for p, (c, d) in sorted(seen.items())
    )
    print(f"check_timing_audit: OK: {args.audit}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
