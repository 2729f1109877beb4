#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"

/// \file prometheus.hpp
/// Prometheus text-exposition rendering of a telemetry::MetricsSnapshot —
/// the /metrics endpoint of obs::MonitorServer (docs/OBSERVABILITY.md).
///
/// The output follows the text exposition format version 0.0.4: one
/// `# TYPE` line per metric family followed by its samples, counters
/// suffixed `_total`, histograms as *cumulative* `_bucket{le="..."}` series
/// closed by `le="+Inf"` plus `_sum`/`_count`.  Rendering is deterministic:
/// the snapshot map is name-sorted and doubles print through the exporters'
/// shortest-round-trip format, so two scrapes of the same snapshot are
/// byte-identical (scripts/check_metrics.py validates the grammar in CI).

namespace vrl::obs {

struct PrometheusOptions {
  /// Prepended to every metric name (after sanitization).
  std::string prefix = "vrl_";
  /// Quantile gauges rendered per histogram via HistogramQuantile
  /// (`<name>_p50`, `<name>_p99`, ...).  Skipped for empty histograms.
  std::vector<double> quantiles = {0.5, 0.99};
};

/// Metric name with every character outside [a-zA-Z0-9_:] replaced by '_'
/// (the registry's dotted names become underscored Prometheus names).
std::string SanitizeMetricName(std::string_view name);

/// A double in exposition syntax: FormatDouble for finite values, "NaN" /
/// "+Inf" / "-Inf" for the specials (which FormatDouble renders as JSON).
std::string PrometheusDouble(double value);

/// Renders `snapshot` as Prometheus text exposition.
void RenderPrometheus(std::ostream& os,
                      const telemetry::MetricsSnapshot& snapshot,
                      const PrometheusOptions& options = {});

}  // namespace vrl::obs
