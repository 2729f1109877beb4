#include "runtime/codec.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "telemetry/export.hpp"

namespace vrl::runtime {
namespace {

[[noreturn]] void Malformed(std::string_view what, const std::string& line) {
  throw ParseError("runtime codec: malformed " + std::string(what) +
                   " record: '" + line + "'");
}

std::string ReadToken(std::istringstream& is, std::string_view what,
                      const std::string& line) {
  std::string token;
  if (!(is >> token)) {
    Malformed(what, line);
  }
  return token;
}

std::uint64_t ReadU64(std::istringstream& is, std::string_view what,
                      const std::string& line) {
  const std::optional<std::uint64_t> value =
      ParseWholeUnsigned(ReadToken(is, what, line));
  if (!value) {
    Malformed(what, line);
  }
  return *value;
}

std::size_t ReadSize(std::istringstream& is, std::string_view what,
                     const std::string& line) {
  return static_cast<std::size_t>(ReadU64(is, what, line));
}

double ReadDouble(std::istringstream& is, std::string_view what,
                  const std::string& line) {
  return DecodeDouble(ReadToken(is, what, line));
}

bool ReadBool(std::istringstream& is, std::string_view what,
              const std::string& line) {
  return ReadU64(is, what, line) != 0;
}

/// Opens a record line and consumes its leading tag.
std::istringstream OpenRecord(const std::string& line, std::string_view tag) {
  std::istringstream is(line);
  std::string seen;
  if (!(is >> seen) || seen != tag) {
    throw ParseError("runtime codec: expected '" + std::string(tag) +
                     "' record, got: '" + line + "'");
  }
  return is;
}

}  // namespace

std::string EncodeDouble(double value) {
  if (std::isnan(value)) {
    return "nan";
  }
  if (std::isinf(value)) {
    return value > 0 ? "inf" : "-inf";
  }
  // FormatDouble is shortest-round-trip for finite values (export.cpp), so
  // DecodeDouble's strtod recovers the exact bits.
  return telemetry::FormatDouble(value);
}

double DecodeDouble(std::string_view token) {
  if (token == "nan") {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (token == "inf") {
    return std::numeric_limits<double>::infinity();
  }
  if (token == "-inf") {
    return -std::numeric_limits<double>::infinity();
  }
  const std::string text(token);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty()) {
    throw ParseError("runtime codec: bad double token '" + text + "'");
  }
  return value;
}

std::string EscapeToken(std::string_view text) {
  if (text.empty()) {
    return "%";  // Never produced otherwise ('%' escapes to %25).
  }
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '%':
        out += "%25";
        break;
      case ' ':
        out += "%20";
        break;
      case '\n':
        out += "%0A";
        break;
      case '\r':
        out += "%0D";
        break;
      case '\t':
        out += "%09";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string UnescapeToken(std::string_view token) {
  if (token == "%") {
    return "";
  }
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size()) {
      throw ParseError("runtime codec: truncated %-escape in token '" +
                       std::string(token) + "'");
    }
    const std::optional<std::uint64_t> code =
        ParseWholeUnsigned(token.substr(i + 1, 2), 16);
    if (!code) {
      throw ParseError("runtime codec: bad %-escape in token '" +
                       std::string(token) + "'");
    }
    out += static_cast<char>(*code);
    i += 2;
  }
  return out;
}

LineCursor::LineCursor(std::string_view payload) {
  std::string line;
  std::istringstream is{std::string(payload)};
  while (std::getline(is, line)) {
    if (!line.empty()) {
      lines_.push_back(line);
    }
  }
}

std::string_view LineCursor::PeekTag() const {
  if (AtEnd()) {
    return {};
  }
  const std::string& line = lines_[index_];
  const std::size_t space = line.find(' ');
  return std::string_view(line).substr(
      0, space == std::string::npos ? line.size() : space);
}

const std::string& LineCursor::Next() {
  if (AtEnd()) {
    throw ParseError("runtime codec: unexpected end of payload");
  }
  return lines_[index_++];
}

void EncodeSnapshot(std::ostream& os,
                    const telemetry::MetricsSnapshot& snapshot) {
  for (const auto& [name, metric] : snapshot.metrics) {
    switch (metric.kind) {
      case telemetry::MetricKind::kCounter:
        os << "metric " << EscapeToken(name) << " counter " << metric.count
           << '\n';
        break;
      case telemetry::MetricKind::kGauge:
        // count is the written flag: Absorb() ignores never-written gauges,
        // so dropping it would silently discard a leg's gauges.
        os << "metric " << EscapeToken(name) << " gauge " << metric.count
           << ' ' << EncodeDouble(metric.value) << '\n';
        break;
      case telemetry::MetricKind::kHistogram: {
        os << "metric " << EscapeToken(name) << " histogram " << metric.count
           << ' ' << EncodeDouble(metric.value) << ' ' << metric.edges.size();
        for (const double edge : metric.edges) {
          os << ' ' << EncodeDouble(edge);
        }
        for (const std::uint64_t count : metric.counts) {
          os << ' ' << count;
        }
        os << '\n';
        break;
      }
    }
  }
  os << "end_metrics\n";
}

telemetry::MetricsSnapshot DecodeSnapshot(LineCursor& cursor) {
  telemetry::MetricsSnapshot snapshot;
  while (cursor.PeekTag() == "metric") {
    const std::string& line = cursor.Next();
    std::istringstream is = OpenRecord(line, "metric");
    const std::string name = UnescapeToken(ReadToken(is, "metric name", line));
    const std::string kind = ReadToken(is, "metric kind", line);
    telemetry::MetricValue value;
    if (kind == "counter") {
      value.kind = telemetry::MetricKind::kCounter;
      value.count = ReadU64(is, "counter value", line);
    } else if (kind == "gauge") {
      value.kind = telemetry::MetricKind::kGauge;
      value.count = ReadU64(is, "gauge written flag", line);
      value.value = ReadDouble(is, "gauge value", line);
    } else if (kind == "histogram") {
      value.kind = telemetry::MetricKind::kHistogram;
      value.count = ReadU64(is, "histogram count", line);
      value.value = ReadDouble(is, "histogram sum", line);
      const std::size_t edges = ReadSize(is, "histogram edge count", line);
      value.edges.reserve(edges);
      for (std::size_t i = 0; i < edges; ++i) {
        value.edges.push_back(ReadDouble(is, "histogram edge", line));
      }
      value.counts.reserve(edges + 1);
      for (std::size_t i = 0; i < edges + 1; ++i) {
        value.counts.push_back(ReadU64(is, "histogram bucket", line));
      }
    } else {
      Malformed("metric kind '" + kind + "' in", line);
    }
    if (!snapshot.metrics.emplace(name, std::move(value)).second) {
      throw ParseError("runtime codec: duplicate metric '" + name + "'");
    }
  }
  const std::string& terminator = cursor.Next();
  if (terminator != "end_metrics") {
    Malformed("snapshot terminator", terminator);
  }
  return snapshot;
}

void EncodeCampaignReport(std::ostream& os,
                          const fault::CampaignReport& report) {
  os << "campaign " << report.refreshes << ' ' << report.partial_refreshes
     << ' ' << report.detected_failures << ' ' << report.corrected_failures
     << ' ' << report.unrecovered_failures << ' '
     << EncodeDouble(report.min_margin) << ' ' << report.refresh_busy_cycles
     << ' ' << report.simulated_cycles << ' ' << report.events.size() << '\n';
  for (const fault::SensingFailureEvent& event : report.events) {
    os << "event " << event.row << ' ' << event.at_cycle << ' '
       << EncodeDouble(event.at_s) << ' ' << EncodeDouble(event.margin) << ' '
       << (event.was_full ? 1 : 0) << ' ' << (event.corrected ? 1 : 0)
       << '\n';
  }
  const fault::AdaptiveStats& a = report.adaptive;
  os << "adaptive " << a.failures_signalled << ' ' << a.demotions << ' '
     << a.promotions << ' ' << a.forced_full_refreshes << ' '
     << a.fallback_entries << ' ' << a.fallback_exits << ' '
     << a.saturated_failures << ' ' << a.rows_demoted_now << ' '
     << (a.in_fallback ? 1 : 0) << '\n';
}

fault::CampaignReport DecodeCampaignReport(LineCursor& cursor) {
  fault::CampaignReport report;
  const std::string& line = cursor.Next();
  std::istringstream is = OpenRecord(line, "campaign");
  report.refreshes = ReadSize(is, "refreshes", line);
  report.partial_refreshes = ReadSize(is, "partial refreshes", line);
  report.detected_failures = ReadSize(is, "detected failures", line);
  report.corrected_failures = ReadSize(is, "corrected failures", line);
  report.unrecovered_failures = ReadSize(is, "unrecovered failures", line);
  report.min_margin = ReadDouble(is, "min margin", line);
  report.refresh_busy_cycles = ReadU64(is, "busy cycles", line);
  report.simulated_cycles = ReadU64(is, "simulated cycles", line);
  const std::size_t events = ReadSize(is, "event count", line);
  report.events.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    const std::string& event_line = cursor.Next();
    std::istringstream es = OpenRecord(event_line, "event");
    fault::SensingFailureEvent event;
    event.row = ReadSize(es, "event row", event_line);
    event.at_cycle = ReadU64(es, "event cycle", event_line);
    event.at_s = ReadDouble(es, "event time", event_line);
    event.margin = ReadDouble(es, "event margin", event_line);
    event.was_full = ReadBool(es, "event op", event_line);
    event.corrected = ReadBool(es, "event outcome", event_line);
    report.events.push_back(event);
  }
  const std::string& adaptive_line = cursor.Next();
  std::istringstream as = OpenRecord(adaptive_line, "adaptive");
  fault::AdaptiveStats& a = report.adaptive;
  a.failures_signalled = ReadSize(as, "failures signalled", adaptive_line);
  a.demotions = ReadSize(as, "demotions", adaptive_line);
  a.promotions = ReadSize(as, "promotions", adaptive_line);
  a.forced_full_refreshes =
      ReadSize(as, "forced full refreshes", adaptive_line);
  a.fallback_entries = ReadSize(as, "fallback entries", adaptive_line);
  a.fallback_exits = ReadSize(as, "fallback exits", adaptive_line);
  a.saturated_failures = ReadSize(as, "saturated failures", adaptive_line);
  a.rows_demoted_now = ReadSize(as, "rows demoted", adaptive_line);
  a.in_fallback = ReadBool(as, "fallback flag", adaptive_line);
  return report;
}

void EncodeWorkloadResult(std::ostream& os,
                          const core::WorkloadResult& result) {
  os << "workload " << EscapeToken(result.workload) << ' '
     << EncodeDouble(result.raidr_overhead) << ' '
     << EncodeDouble(result.vrl_overhead) << ' '
     << EncodeDouble(result.vrl_access_overhead) << ' '
     << EncodeDouble(result.raidr_refresh_power_mw) << ' '
     << EncodeDouble(result.vrl_refresh_power_mw) << ' '
     << EncodeDouble(result.vrl_access_refresh_power_mw) << '\n';
}

core::WorkloadResult DecodeWorkloadResult(LineCursor& cursor) {
  const std::string& line = cursor.Next();
  std::istringstream is = OpenRecord(line, "workload");
  core::WorkloadResult result;
  result.workload = UnescapeToken(ReadToken(is, "workload name", line));
  result.raidr_overhead = ReadDouble(is, "raidr overhead", line);
  result.vrl_overhead = ReadDouble(is, "vrl overhead", line);
  result.vrl_access_overhead = ReadDouble(is, "vrl-access overhead", line);
  result.raidr_refresh_power_mw = ReadDouble(is, "raidr power", line);
  result.vrl_refresh_power_mw = ReadDouble(is, "vrl power", line);
  result.vrl_access_refresh_power_mw =
      ReadDouble(is, "vrl-access power", line);
  return result;
}

void EncodeSweepResult(std::ostream& os, const core::SweepResult& result) {
  os << "sweep " << result.point.nbits << ' '
     << EncodeDouble(result.point.partial_target) << ' '
     << EncodeDouble(result.point.retention_guardband) << ' '
     << result.point.subarrays << ' ' << EncodeDouble(result.vrl_normalized)
     << ' ' << EncodeDouble(result.vrl_access_normalized) << ' '
     << EncodeDouble(result.logic_area_um2) << ' '
     << EncodeDouble(result.area_fraction) << ' '
     << EncodeDouble(result.mean_mprsf) << ' ' << result.clamped_rows << '\n';
}

core::SweepResult DecodeSweepResult(LineCursor& cursor) {
  const std::string& line = cursor.Next();
  std::istringstream is = OpenRecord(line, "sweep");
  core::SweepResult result;
  result.point.nbits = ReadSize(is, "nbits", line);
  result.point.partial_target = ReadDouble(is, "partial target", line);
  result.point.retention_guardband = ReadDouble(is, "guardband", line);
  result.point.subarrays = ReadSize(is, "subarrays", line);
  result.vrl_normalized = ReadDouble(is, "vrl normalized", line);
  result.vrl_access_normalized = ReadDouble(is, "vrl-access normalized", line);
  result.logic_area_um2 = ReadDouble(is, "logic area", line);
  result.area_fraction = ReadDouble(is, "area fraction", line);
  result.mean_mprsf = ReadDouble(is, "mean mprsf", line);
  result.clamped_rows = ReadSize(is, "clamped rows", line);
  return result;
}

}  // namespace vrl::runtime
