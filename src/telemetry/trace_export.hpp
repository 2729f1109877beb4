#pragma once

#include <ostream>
#include <string>

#include "telemetry/tracing.hpp"

/// \file trace_export.hpp
/// Exporters for Tracer spans and the Recorder's refresh lineage
/// (docs/TRACING.md).
///
/// Two formats, both byte-deterministic for deterministic runs (spans and
/// lineage emit in record order, labels resolve through the tracer's and
/// the lineage's interned tables, doubles go through FormatDouble):
///
///  * Chrome `trace_event` JSON — loadable in Perfetto / chrome://tracing.
///    Spans are `X` (complete) events; each controller run is a "process"
///    (track group) whose "threads" are the banks; lineage records are
///    global instant (`i`) events on a dedicated "lineage" process.  One
///    trace `ts` unit is one simulator cycle (the viewer labels it µs —
///    see docs/TRACING.md).
///  * JSONL — one self-describing object per line, mirroring export.hpp's
///    metric stream, with a trailing summary line per stream that states
///    the drop counts.

namespace vrl::telemetry {

/// Writes the whole trace (spans + lineage) as one Chrome trace_event
/// JSON object: {"traceEvents":[...]}.
void WriteChromeTrace(std::ostream& os, const Tracer& tracer,
                      const Lineage& lineage);

// -- JSONL -------------------------------------------------------------------
//   {"type":"span","id":I,"parent":P,"name":"...","group":G,"track":T,
//    "start":S,"end":E,"a":A,"b":B}
//   {"type":"span_summary","recorded":N,"retained":K,"dropped":D}
//   {"type":"lineage","kind":"partial_refresh","cycle":C,"row":R,
//    "cause":"VRL","detail":D,"value":V}
//   {"type":"lineage_summary","recorded":N,"retained":K,"dropped":D}

void WriteSpansJsonl(std::ostream& os, const Tracer& tracer);
void WriteLineageJsonl(std::ostream& os, const Lineage& lineage);

/// Both JSONL streams back to back (spans, then lineage).
void WriteTraceJsonl(std::ostream& os, const Tracer& tracer,
                     const Lineage& lineage);

using TraceWriter = void (*)(std::ostream&, const Tracer&, const Lineage&);

/// The writer a `--trace-out` path selects by its extension
/// (SelectOutputFormat, export.hpp): ".json" WriteChromeTrace, ".jsonl"
/// WriteTraceJsonl.
/// \throws vrl::ConfigError on any other extension.
TraceWriter TraceFileWriter(const std::string& path);

/// Writes the trace to `path` with its TraceFileWriter.
/// \throws vrl::ConfigError on an unknown extension (before the file is
/// created) or when the file cannot be opened.
void WriteTraceFile(const std::string& path, const Tracer& tracer,
                    const Lineage& lineage);

}  // namespace vrl::telemetry
