#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// \file metrics.hpp
/// The metrics half of the telemetry subsystem (docs/TELEMETRY.md): typed
/// metric cells, a name-keyed registry, and an immutable MetricsSnapshot
/// that MetricsRegistry::Absorb merges back into live cells.
///
/// Determinism contract: every metric is a pure function of the simulated
/// work, so two runs of the same experiment produce equal snapshots
/// regardless of thread count — provided concurrent work records into
/// per-task recorders merged in task-index order (see
/// telemetry::ShardedRecorder and docs/PARALLEL.md).  Wall clock is not a
/// metric: it is recorded by the attribution profiler (profiler.hpp).
///
/// Hot-path cost: callers resolve cells once (`registry.GetCounter(...)`
/// returns a stable reference) and then pay one add/compare per update —
/// no name lookup per event.

namespace vrl::telemetry {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Human-readable kind name ("counter", "gauge", "histogram").
std::string_view MetricKindName(MetricKind kind);

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void Set(double value) {
    value_ = value;
    written_ = true;
  }
  double value() const { return value_; }
  bool written() const { return written_; }

 private:
  double value_ = 0.0;
  bool written_ = false;
};

/// Fixed-bucket histogram.  Bucket semantics (exercised by
/// tests/telemetry_test.cpp):
///
///   bucket 0             counts v <= edges[0]
///   bucket i (0<i<n)     counts edges[i-1] < v <= edges[i]
///   bucket n (overflow)  counts v > edges[n-1]
///
/// so counts().size() == edges().size() + 1 and a value exactly on an edge
/// lands in the bucket the edge closes.
class Histogram {
 public:
  /// \throws vrl::ConfigError unless `edges` is non-empty and strictly
  /// increasing.
  explicit Histogram(std::vector<double> edges);

  void Observe(double value);

  /// Adds another histogram's buckets (same edges) — the registry's
  /// snapshot-absorption path.
  /// \throws vrl::ConfigError on a bucket-count size mismatch.
  void MergeCounts(const std::vector<std::uint64_t>& counts, double sum);

  const std::vector<double>& edges() const { return edges_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t total() const { return total_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> counts_;  ///< edges_.size() + 1 buckets.
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Exported value of one metric — the snapshot-side mirror of a cell.
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  ///< Counter value; histogram sample count.
  double value = 0.0;       ///< Gauge value; histogram sum.
  std::vector<double> edges;          ///< kHistogram only.
  std::vector<std::uint64_t> counts;  ///< kHistogram only.

  bool operator==(const MetricValue&) const = default;
};

/// Point-in-time copy of a registry: a name-sorted map of metric values.
/// Snapshots merge only through MetricsRegistry::Absorb; the experiment
/// drivers absorb per-task shards in task-index order, which makes merged
/// metrics independent of thread count.
struct MetricsSnapshot {
  std::map<std::string, MetricValue> metrics;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Name-keyed metric store.  Get* calls create the cell on first use and
/// return a reference that stays valid for the registry's lifetime, so hot
/// paths resolve names once and update through the reference.
class MetricsRegistry {
 public:
  /// \throws vrl::ConfigError when `name` exists with a different kind.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// \throws vrl::ConfigError when `name` exists with different edges or a
  /// different kind, or when `edges` is invalid.
  Histogram& GetHistogram(std::string_view name, std::vector<double> edges);

  MetricsSnapshot Snapshot() const;

  /// Merges a snapshot into the live cells (creating them as needed) —
  /// how per-task shard results land in a caller's sink recorder, and the
  /// only snapshot merge.  Counters and histogram buckets add; a gauge
  /// takes the snapshot's value only when the snapshot wrote it.
  /// \throws vrl::ConfigError on kind or histogram-edge mismatch.
  void Absorb(const MetricsSnapshot& snapshot);

  std::size_t size() const { return cells_.size(); }

 private:
  // std::map nodes never move, so references into a Cell stay valid for
  // the registry's lifetime — the stable-reference guarantee above.
  struct Cell {
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Cell& FindOrCreate(std::string_view name, MetricKind kind);

  std::map<std::string, Cell, std::less<>> cells_;
};

/// Histogram bucket edges suited to DRAM command-latency distributions in
/// cycles (powers of two from kLatencyFirstBucketEdge to 65536).
std::vector<double> LatencyBucketEdges();

/// Closing edge of the first LatencyBucketEdges() bucket.
inline constexpr std::uint64_t kLatencyFirstBucketEdge = 16;

/// Bucket count of LatencyBucketEdges() histograms (edges + overflow) —
/// compile-time so always-on accumulators can be fixed-size arrays.
/// Agreement with LatencyBucketEdges() is pinned by
/// tests/telemetry_test.cpp.
inline constexpr std::size_t kLatencyBucketCount = 14;

/// Bucket index a latency of `cycles` lands in under LatencyBucketEdges()
/// semantics (Histogram::Observe), computed with a bit scan instead of an
/// edge walk.  Inline: it sits in the bank's per-request path, where an
/// out-of-line call is a measurable share of the per-request cost
/// (docs/TELEMETRY.md).  Callers accumulate bucket counts locally and flush
/// via Histogram::MergeCounts; agreement with Observe is pinned by
/// tests/telemetry_test.cpp.
inline std::size_t LatencyBucketIndex(std::uint64_t cycles) {
  // Edges run 2^4 .. 2^16, so bucket i closes at 2^(4+i) and the bucket of
  // `cycles` is ceil(log2(cycles)) - 4, clamped to [0, 13].  Branchless on
  // purpose: whether a request is a first-bucket row hit is data-dependent
  // and a compare here mispredicts often enough to dominate the per-request
  // instrumentation cost.  Subtracting (cycles != 0) decrements with a
  // 0-stays-0 underflow guard, `| 15` floors the result at the first bucket.
  const auto width = static_cast<std::size_t>(std::bit_width(
      (cycles - static_cast<std::uint64_t>(cycles != 0)) |
      (kLatencyFirstBucketEdge - 1)));
  const std::size_t bucket = width - 4;
  return bucket < 13 ? bucket : 13;
}

/// Edges for refresh-slack distributions in cycles: how far past its
/// deadline an op was issued (0 on-time bucket plus powers of two of tREFI
/// scale).
std::vector<double> SlackBucketEdges();

/// Bucket index a slack of `slack` cycles lands in under SlackBucketEdges()
/// semantics — the per-refresh-op analogue of LatencyBucketIndex, used by
/// RefreshPolicy's batched op recording.  Agreement with Observe is pinned
/// by tests/telemetry_test.cpp.
inline std::size_t SlackBucketIndex(std::uint64_t slack) {
  // Edges are {0, 1024 * 4^k for k = 0..7}: bucket i >= 2 closes at
  // 2^(8+2i), so the bucket is ceil((ceil(log2(slack)) - 8) / 2) + 1,
  // clamped to [1, 9].  Branchless like LatencyBucketIndex: refresh slack
  // straddles the low edges, so compares here mispredict.  Subtracting
  // (slack != 0) decrements with a 0-stays-0 underflow guard, `| 511`
  // floors the width at bucket 1, and subtracting (slack == 0) maps
  // on-time ops to the dedicated bucket 0.
  const auto width = static_cast<std::size_t>(std::bit_width(
      (slack - static_cast<std::uint64_t>(slack != 0)) | 511));
  const std::size_t bucket =
      (width - 7) / 2 - static_cast<std::size_t>(slack == 0);
  return bucket < 9 ? bucket : 9;
}

}  // namespace vrl::telemetry
