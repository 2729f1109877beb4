#include "telemetry/metrics.hpp"

#include <limits>
#include <utility>

#include "common/error.hpp"

namespace vrl::telemetry {

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  if (edges_.empty()) {
    throw ConfigError("Histogram: need at least one bucket edge");
  }
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    if (!(edges_[i - 1] < edges_[i])) {
      throw ConfigError("Histogram: edges must be strictly increasing");
    }
  }
  counts_.assign(edges_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  // First bucket whose closing edge is >= value; the final slot catches
  // values above the last edge.  Bucket counts are small (tens of edges),
  // so a linear scan beats binary search on the hot path.
  std::size_t bucket = edges_.size();
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (value <= edges_[i]) {
      bucket = i;
      break;
    }
  }
  ++counts_[bucket];
  ++total_;
  sum_ += value;
}

void Histogram::MergeCounts(const std::vector<std::uint64_t>& counts,
                            double sum) {
  if (counts.size() != counts_.size()) {
    throw ConfigError("Histogram::MergeCounts: bucket count mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += counts[i];
    total_ += counts[i];
  }
  sum_ += sum;
}

double Histogram::Quantile(double q) const {
  return HistogramQuantile(edges_, counts_, q);
}

double HistogramQuantile(const std::vector<double>& edges,
                         const std::vector<std::uint64_t>& counts, double q) {
  if (!(q >= 0.0 && q <= 1.0)) {
    throw ConfigError("HistogramQuantile: q must be in [0, 1]");
  }
  if (edges.empty() || counts.size() != edges.size() + 1) {
    throw ConfigError(
        "HistogramQuantile: counts must have edges.size() + 1 buckets");
  }
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) {
    total += c;
  }
  if (total == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // The target rank under the cumulative-count convention: the smallest
  // bucket whose cumulative count reaches rank holds the quantile.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) {
      continue;
    }
    if (i == edges.size()) {
      return edges.back();  // Overflow bucket: no upper bound.
    }
    const double upper = edges[i];
    const double lower = i == 0 ? (edges[0] > 0.0 ? 0.0 : edges[0])
                                : edges[i - 1];
    const double below =
        static_cast<double>(cumulative) - static_cast<double>(counts[i]);
    const double within = rank - below;
    const double fraction =
        counts[i] == 0 ? 1.0 : within / static_cast<double>(counts[i]);
    return lower + (upper - lower) * fraction;
  }
  return edges.back();  // Unreachable: cumulative == total >= rank.
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::Cell& MetricsRegistry::FindOrCreate(std::string_view name,
                                                     MetricKind kind) {
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    it = cells_.emplace(std::string(name), Cell{}).first;
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    throw ConfigError("MetricsRegistry: '" + std::string(name) +
                      "' already registered as " +
                      std::string(MetricKindName(it->second.kind)));
  }
  return it->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  return FindOrCreate(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  return FindOrCreate(name, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> edges) {
  Cell& cell = FindOrCreate(name, MetricKind::kHistogram);
  if (!cell.histogram) {
    cell.histogram = std::make_unique<Histogram>(std::move(edges));
  } else if (cell.histogram->edges() != edges) {
    throw ConfigError("MetricsRegistry: histogram '" + std::string(name) +
                      "' already registered with different edges");
  }
  return *cell.histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, cell] : cells_) {
    MetricValue value;
    value.kind = cell.kind;
    switch (cell.kind) {
      case MetricKind::kCounter:
        value.count = cell.counter.value();
        break;
      case MetricKind::kGauge:
        value.value = cell.gauge.value();
        value.count = cell.gauge.written() ? 1 : 0;
        break;
      case MetricKind::kHistogram:
        value.edges = cell.histogram->edges();
        value.counts = cell.histogram->counts();
        value.count = cell.histogram->total();
        value.value = cell.histogram->sum();
        break;
    }
    snap.metrics.emplace(name, std::move(value));
  }
  return snap;
}

void MetricsRegistry::Absorb(const MetricsSnapshot& snapshot) {
  for (const auto& [name, theirs] : snapshot.metrics) {
    switch (theirs.kind) {
      case MetricKind::kCounter:
        GetCounter(name).Add(theirs.count);
        break;
      case MetricKind::kGauge: {
        Gauge& gauge = GetGauge(name);
        if (theirs.count != 0) {
          gauge.Set(theirs.value);
        }
        break;
      }
      case MetricKind::kHistogram:
        GetHistogram(name, theirs.edges)
            .MergeCounts(theirs.counts, theirs.value);
        break;
    }
  }
}

std::vector<double> LatencyBucketEdges() {
  std::vector<double> edges;
  for (double edge = 16.0; edge <= 65536.0; edge *= 2.0) {
    edges.push_back(edge);
  }
  return edges;
}

std::vector<double> SlackBucketEdges() {
  // 0 = issued exactly at its deadline tick; then powers of two up to a
  // full base refresh window (25.6M cycles at 2.5 ns) of postponement.
  std::vector<double> edges{0.0};
  for (double edge = 1024.0; edge <= 33'554'432.0; edge *= 4.0) {
    edges.push_back(edge);
  }
  return edges;
}

}  // namespace vrl::telemetry
