#include "telemetry/metrics.hpp"

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
