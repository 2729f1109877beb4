#include "obs/prometheus.hpp"

#include <cmath>

#include "telemetry/export.hpp"

namespace vrl::obs {
namespace {

using telemetry::FormatDouble;
using telemetry::MetricKind;
using telemetry::MetricValue;

/// Quantile suffix for the gauge name: q = 0.5 -> "p50", 0.999 -> "p99_9".
std::string QuantileSuffix(double q) {
  std::string text = FormatDouble(q * 100.0);
  for (char& c : text) {
    if (c == '.') {
      c = '_';
    }
  }
  return "p" + text;
}

void TypeLine(std::ostream& os, const std::string& name,
              std::string_view type) {
  os << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

std::string SanitizeMetricName(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) {
      c = '_';
    }
  }
  return out;
}

std::string PrometheusDouble(double value) {
  if (std::isnan(value)) {
    return "NaN";
  }
  if (std::isinf(value)) {
    return value > 0.0 ? "+Inf" : "-Inf";
  }
  return FormatDouble(value);
}

void RenderPrometheus(std::ostream& os,
                      const telemetry::MetricsSnapshot& snapshot,
                      const PrometheusOptions& options) {
  for (const auto& [raw_name, value] : snapshot.metrics) {
    const std::string name = options.prefix + SanitizeMetricName(raw_name);
    switch (value.kind) {
      case MetricKind::kCounter:
        TypeLine(os, name + "_total", "counter");
        os << name << "_total " << value.count << '\n';
        break;
      case MetricKind::kGauge:
        TypeLine(os, name, "gauge");
        os << name << ' ' << PrometheusDouble(value.value) << '\n';
        break;
      case MetricKind::kHistogram: {
        TypeLine(os, name, "histogram");
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < value.edges.size(); ++i) {
          cumulative += value.counts[i];
          os << name << "_bucket{le=\"" << PrometheusDouble(value.edges[i])
             << "\"} " << cumulative << '\n';
        }
        os << name << "_bucket{le=\"+Inf\"} " << value.count << '\n';
        os << name << "_sum " << PrometheusDouble(value.value) << '\n';
        os << name << "_count " << value.count << '\n';
        if (value.count != 0) {
          for (const double q : options.quantiles) {
            const std::string quantile_name =
                name + '_' + QuantileSuffix(q);
            TypeLine(os, quantile_name, "gauge");
            os << quantile_name << ' '
               << PrometheusDouble(telemetry::HistogramQuantile(
                      value.edges, value.counts, q))
               << '\n';
          }
        }
        break;
      }
    }
  }
}

}  // namespace vrl::obs
