#!/usr/bin/env python3
"""Validate a Prometheus text exposition scraped from GET /metrics.

    python3 scripts/check_metrics.py scrape.txt [earlier_scrape.txt ...]

The structural mirror of scripts/check_trace.py for the monitoring plane
(docs/OBSERVABILITY.md).  Checks (stdlib only):

  * every line is a comment, blank, or matches the exposition grammar
    ``name{labels} value`` (version 0.0.4);
  * every sample's family has a preceding ``# TYPE`` line, each family is
    declared exactly once, and sample names agree with the declared type
    (counters end in ``_total``; histograms expose only
    ``_bucket``/``_sum``/``_count`` series);
  * histogram buckets are cumulative: counts never decrease as ``le``
    grows, an ``le="+Inf"`` bucket exists, and it equals ``_count`` —
    validated per non-``le`` label set, so each labeled histogram series
    stands on its own;
  * no duplicate sample (same name + labels) within one scrape.

With two or more files (oldest first), counters must additionally be
monotone non-decreasing across scrapes — the live-publishing contract:
a later scrape of the same run can never lose counted events.  Labels are
part of the sample identity, so each labeled series (e.g. the per-endpoint
``obs_scrape_requests_total``) must grow independently and may never
vanish between scrapes.

Exit code 0 when every file (and the cross-scrape check) passes, 1 with a
diagnostic otherwise.
"""

import argparse
import re
import sys

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>-?[0-9]+))?$"
)
LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')
TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$"
)
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def fail(message):
    print(f"check_metrics: FAIL: {message}", file=sys.stderr)
    return None


def parse_value(text):
    if text in ("+Inf", "Inf"):
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    try:
        return float(text)  # accepts NaN
    except ValueError:
        return None


def family_of(name, types):
    """The declared family a sample name belongs to, or None."""
    if name in types:
        return name
    for suffix in HISTOGRAM_SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return None


def parse_exposition(path):
    """Parse one exposition file into (types, samples) or None on error.

    types: family -> declared type.  samples: (name, labels) -> value.
    """
    types = {}
    samples = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            where = f"{path}:{lineno}"
            if line == "" or line.startswith("# HELP"):
                continue
            if line.startswith("# TYPE"):
                match = TYPE_RE.match(line)
                if match is None:
                    return fail(f"{where}: malformed TYPE line: {line!r}")
                family = match.group(1)
                if family in types:
                    return fail(f"{where}: duplicate TYPE for {family}")
                types[family] = match.group(2)
                continue
            if line.startswith("#"):
                continue  # other comments are legal
            match = SAMPLE_RE.match(line)
            if match is None:
                return fail(f"{where}: not a valid sample line: {line!r}")
            name = match.group("name")
            value = parse_value(match.group("value"))
            if value is None:
                return fail(f"{where}: bad value {match.group('value')!r}")
            labels = ()
            if match.group("labels"):
                pairs = []
                for part in match.group("labels").rstrip(",").split(","):
                    label = LABEL_RE.match(part)
                    if label is None:
                        return fail(f"{where}: bad label {part!r}")
                    pairs.append((label.group(1), label.group(2)))
                labels = tuple(sorted(pairs))
            family = family_of(name, types)
            if family is None:
                return fail(f"{where}: sample {name} has no preceding TYPE")
            declared = types[family]
            if declared == "counter" and not name.endswith("_total"):
                return fail(f"{where}: counter sample {name} lacks _total suffix")
            if declared == "histogram" and name == family:
                return fail(
                    f"{where}: histogram {family} exposes a bare sample "
                    f"(expected {family}_bucket/_sum/_count)"
                )
            if (name, labels) in samples:
                return fail(f"{where}: duplicate sample {name}{dict(labels)}")
            samples[(name, labels)] = value
    if not samples:
        return fail(f"{path}: no samples")
    return types, samples


def check_histograms(path, types, samples):
    # Labeled histograms are independent series sharing one family: group
    # by the non-le label set so each series' buckets are validated on their
    # own.
    ok = True
    for family, declared in types.items():
        if declared != "histogram":
            continue
        series = {}  # non-le labels -> {"buckets": [...], "count", "sum"}
        for (name, labels), value in samples.items():
            if name not in (f"{family}_bucket", f"{family}_count", f"{family}_sum"):
                continue
            others = tuple(pair for pair in labels if pair[0] != "le")
            entry = series.setdefault(
                others, {"buckets": [], "count": None, "sum": False}
            )
            if name == f"{family}_bucket":
                le = dict(labels).get("le")
                if le is None:
                    fail(f"{path}: {name} sample without an le label")
                    ok = False
                    continue
                entry["buckets"].append(
                    (float("inf") if le == "+Inf" else float(le), value)
                )
            elif name == f"{family}_count":
                entry["count"] = value
            else:
                entry["sum"] = True
        for others, entry in series.items():
            buckets = sorted(entry["buckets"])
            tag = f"{family}{dict(others)}" if others else family
            if not buckets or buckets[-1][0] != float("inf"):
                fail(f"{path}: histogram {tag} has no le=\"+Inf\" bucket")
                ok = False
                continue
            previous = -1.0
            for le, value in buckets:
                if value < previous:
                    fail(
                        f"{path}: histogram {tag} is not cumulative at "
                        f'le="{le:g}": {value:g} < {previous:g}'
                    )
                    ok = False
                previous = value
            if entry["count"] is None or not entry["sum"]:
                fail(f"{path}: histogram {tag} is missing _count or _sum")
                ok = False
            elif buckets[-1][1] != entry["count"]:
                fail(
                    f"{path}: histogram {tag} le=\"+Inf\" bucket "
                    f"{buckets[-1][1]:g} != _count {entry['count']:g}"
                )
                ok = False
    return ok


def check_monotone(earlier_path, earlier, later_path, later):
    """Counters may only grow between an earlier and a later scrape."""
    earlier_types, earlier_samples = earlier
    later_types, later_samples = later
    ok = True
    for key, before in earlier_samples.items():
        name, labels = key
        family = family_of(name, earlier_types)
        if earlier_types.get(family) != "counter":
            continue
        if later_types.get(family) != "counter":
            fail(f"{later_path}: counter {family} vanished since {earlier_path}")
            ok = False
            continue
        after = later_samples.get(key)
        if after is None:
            fail(f"{later_path}: counter sample {name} vanished")
            ok = False
        elif after < before:
            fail(
                f"{later_path}: counter {name} went backwards: "
                f"{before:g} -> {after:g}"
            )
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scrapes",
        nargs="+",
        metavar="SCRAPE",
        help="exposition file(s); with several, oldest first",
    )
    args = parser.parse_args()

    parsed = []
    for path in args.scrapes:
        result = parse_exposition(path)
        if result is None:
            return 1
        if not check_histograms(path, *result):
            return 1
        parsed.append(result)

    for (earlier_path, earlier), (later_path, later) in zip(
        zip(args.scrapes, parsed), zip(args.scrapes[1:], parsed[1:])
    ):
        if not check_monotone(earlier_path, earlier, later_path, later):
            return 1

    for path, (types, samples) in zip(args.scrapes, parsed):
        kinds = {}
        for declared in types.values():
            kinds[declared] = kinds.get(declared, 0) + 1
        summary = ", ".join(f"{count} {kind}s" for kind, count in sorted(kinds.items()))
        print(f"check_metrics: OK: {path}: {len(samples)} samples ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
