#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"

/// \file export.hpp
/// JSONL and CSV exporters for metric snapshots and event traces
/// (schemas documented in docs/TELEMETRY.md).
///
/// Exports are byte-deterministic: metrics emit in name order (the
/// snapshot map is sorted), events in trace order, and doubles print
/// through a fixed shortest-round-trip format — so two deterministic runs
/// produce byte-identical files, which is how the determinism contract is
/// tested end to end.

namespace vrl::telemetry {

/// Shortest decimal representation that round-trips the double, with a
/// fixed "%.17g"-then-trim strategy; used by every exporter so numeric
/// formatting is identical across files.
std::string FormatDouble(double value);

/// Escapes a string for embedding in a JSON string literal (quotes not
/// included).
std::string JsonEscape(std::string_view text);

// -- JSONL -------------------------------------------------------------------
// One self-describing JSON object per line:
//   {"type":"metric","name":...,"kind":"counter","count":N}
//   {"type":"metric","name":...,"kind":"histogram","count":N,"sum":S,
//    "edges":[...],"counts":[...]}
//   {"type":"event","kind":"sensing_failure","cycle":C,"row":R,"a":A,
//    "value":V}
//   {"type":"event_summary","recorded":N,"retained":K,"dropped":D}

void WriteMetricsJsonl(std::ostream& os, const MetricsSnapshot& snapshot);
void WriteEventsJsonl(std::ostream& os, const EventTrace& trace);

// -- CSV ---------------------------------------------------------------------
// Metrics: long format, one row per scalar facet:
//   name,kind,field,value
// where counters emit field "count"; gauges "value"; histograms "count",
// "sum" and one "le_<edge>" / "le_inf" row per bucket.
// Events: kind,cycle,row,a,value with a trailing
//   _summary,recorded,retained,dropped header comment row.

void WriteMetricsCsv(std::ostream& os, const MetricsSnapshot& snapshot);
void WriteEventsCsv(std::ostream& os, const EventTrace& trace);

}  // namespace vrl::telemetry
