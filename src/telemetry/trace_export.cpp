#include "telemetry/trace_export.hpp"

#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "telemetry/export.hpp"

namespace vrl::telemetry {
namespace {

/// Chrome "process" ids: 0 is the driver group, 1..N the tracer's track
/// groups, N+1 the synthetic lineage process.
std::uint32_t LineagePid(const Tracer& tracer) {
  return static_cast<std::uint32_t>(tracer.groups().size()) + 1;
}

void WriteProcessName(std::ostream& os, bool& first, std::uint32_t pid,
                      std::string_view name) {
  os << (first ? "" : ",\n") << R"({"name":"process_name","ph":"M","pid":)"
     << pid << R"(,"tid":0,"args":{"name":")" << JsonEscape(name) << "\"}}";
  first = false;
}

}  // namespace

void WriteChromeTrace(std::ostream& os, const Tracer& tracer,
                      const Lineage& lineage) {
  os << "{\"traceEvents\":[\n";
  bool first = true;

  WriteProcessName(os, first, 0, "driver");
  for (std::size_t g = 0; g < tracer.groups().size(); ++g) {
    WriteProcessName(os, first, static_cast<std::uint32_t>(g) + 1,
                     tracer.label(tracer.groups()[g]));
  }
  if (lineage.recorded() != 0) {
    WriteProcessName(os, first, LineagePid(tracer), "lineage");
  }

  // Name the tracks: tid T of a controller-run group is bank T.
  std::set<std::pair<std::uint32_t, std::uint64_t>> tracks;
  for (const SpanRecord& span : tracer.spans()) {
    tracks.emplace(span.group, span.track);
  }
  for (const auto& [pid, tid] : tracks) {
    os << (first ? "" : ",\n") << R"({"name":"thread_name","ph":"M","pid":)"
       << pid << R"(,"tid":)" << tid << R"(,"args":{"name":")"
       << (pid == 0 ? "main" : "bank " + std::to_string(tid)) << "\"}}";
    first = false;
  }

  for (const SpanRecord& span : tracer.spans()) {
    os << (first ? "" : ",\n") << R"({"name":")"
       << JsonEscape(tracer.label(span.name))
       << R"(","cat":"span","ph":"X","ts":)" << span.start << R"(,"dur":)"
       << span.end - span.start << R"(,"pid":)" << span.group << R"(,"tid":)"
       << span.track << R"(,"args":{"id":)" << span.id << R"(,"parent":)"
       << span.parent << R"(,"a":)" << span.a << R"(,"b":)" << span.b
       << "}}";
    first = false;
  }

  for (const LineageRecord& record : lineage.Retained()) {
    os << (first ? "" : ",\n") << R"({"name":")"
       << EventKindName(record.kind)
       << R"(","cat":"lineage","ph":"i","s":"g","ts":)" << record.cycle
       << R"(,"pid":)" << LineagePid(tracer) << R"(,"tid":0,"args":{"row":)"
       << record.row << R"(,"cause":")"
       << JsonEscape(lineage.label(record.cause)) << R"(","detail":)"
       << record.detail << R"(,"value":)" << FormatDouble(record.value)
       << "}}";
    first = false;
  }

  os << "\n]}\n";
}

void WriteSpansJsonl(std::ostream& os, const Tracer& tracer) {
  for (const SpanRecord& span : tracer.spans()) {
    os << R"({"type":"span","id":)" << span.id << R"(,"parent":)"
       << span.parent << R"(,"name":")" << JsonEscape(tracer.label(span.name))
       << R"(","group":)" << span.group << R"(,"track":)" << span.track
       << R"(,"start":)" << span.start << R"(,"end":)" << span.end
       << R"(,"a":)" << span.a << R"(,"b":)" << span.b << "}\n";
  }
  os << R"({"type":"span_summary","recorded":)" << tracer.recorded_spans()
     << R"(,"retained":)" << tracer.spans().size() << R"(,"dropped":)"
     << tracer.dropped_spans() << "}\n";
}

void WriteLineageJsonl(std::ostream& os, const Lineage& lineage) {
  for (const LineageRecord& record : lineage.Retained()) {
    os << R"({"type":"lineage","kind":")" << EventKindName(record.kind)
       << R"(","cycle":)" << record.cycle << R"(,"row":)" << record.row
       << R"(,"cause":")" << JsonEscape(lineage.label(record.cause))
       << R"(","detail":)" << record.detail << R"(,"value":)"
       << FormatDouble(record.value) << "}\n";
  }
  os << R"({"type":"lineage_summary","recorded":)" << lineage.recorded()
     << R"(,"retained":)" << lineage.size() << R"(,"dropped":)"
     << lineage.dropped() << "}\n";
}

void WriteTraceJsonl(std::ostream& os, const Tracer& tracer,
                     const Lineage& lineage) {
  WriteSpansJsonl(os, tracer);
  WriteLineageJsonl(os, lineage);
}

TraceWriter TraceFileWriter(const std::string& path) {
  constexpr OutputFormat<TraceWriter> kFormats[] = {
      {".json", WriteChromeTrace}, {".jsonl", WriteTraceJsonl}};
  return SelectOutputFormat("trace", path, kFormats);
}

void WriteTraceFile(const std::string& path, const Tracer& tracer,
                    const Lineage& lineage) {
  const TraceWriter write = TraceFileWriter(path);
  std::ofstream os(path);
  if (!os) {
    throw ConfigError("WriteTraceFile: cannot open " + path);
  }
  write(os, tracer, lineage);
}

}  // namespace vrl::telemetry
