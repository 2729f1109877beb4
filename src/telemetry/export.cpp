#include "telemetry/export.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace vrl::telemetry {

std::string FormatDouble(double value) {
  if (std::isnan(value)) {
    return "null";  // JSON has no NaN; CSV readers treat null as missing.
  }
  if (std::isinf(value)) {
    return value > 0 ? "1e9999" : "-1e9999";
  }
  // Integral values print exactly (no trailing ".0") so counters exported
  // through double-valued fields stay readable; everything else uses the
  // shortest representation that round-trips.
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) {
      break;
    }
  }
  return buf;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void WriteDoubleArray(std::ostream& os, const std::vector<double>& values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) {
      os << ',';
    }
    os << FormatDouble(values[i]);
  }
  os << ']';
}

void WriteCountArray(std::ostream& os,
                     const std::vector<std::uint64_t>& values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) {
      os << ',';
    }
    os << values[i];
  }
  os << ']';
}

}  // namespace

bool EndsWithIgnoringCase(std::string_view path, std::string_view suffix) {
  const auto same = [](char lower, char c) {
    return lower == std::tolower(static_cast<unsigned char>(c));
  };
  return path.size() >= suffix.size() &&
         std::equal(suffix.begin(), suffix.end(), path.end() - suffix.size(),
                    same);
}

void WriteMetricsJsonl(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const auto& [name, metric] : snapshot.metrics) {
    os << "{\"type\":\"metric\",\"name\":\"" << JsonEscape(name)
       << "\",\"kind\":\"" << MetricKindName(metric.kind) << '"';
    switch (metric.kind) {
      case MetricKind::kCounter:
        os << ",\"count\":" << metric.count;
        break;
      case MetricKind::kGauge:
        os << ",\"value\":" << FormatDouble(metric.value);
        break;
      case MetricKind::kHistogram:
        os << ",\"count\":" << metric.count
           << ",\"sum\":" << FormatDouble(metric.value) << ",\"edges\":";
        WriteDoubleArray(os, metric.edges);
        os << ",\"counts\":";
        WriteCountArray(os, metric.counts);
        break;
    }
    os << "}\n";
  }
}

}  // namespace vrl::telemetry
