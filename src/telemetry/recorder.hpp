#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/tracing.hpp"

/// \file recorder.hpp
/// Recorder — the telemetry session object the instrumented layers write
/// into — plus ShardedRecorder (deterministic aggregation across parallel
/// tasks).
///
/// A Recorder is deliberately single-threaded: determinism comes from
/// giving every parallel task its own shard and merging shards in
/// task-index order, never from synchronizing a shared recorder (the same
/// pre-sized-slot rule as docs/PARALLEL.md).  All instrumentation points
/// accept a null recorder and cost one branch when telemetry is off.

namespace vrl::telemetry {

struct RecorderOptions {
  /// Record the high-frequency lineage classes: one record per full/partial
  /// refresh op and per VRL-Access activation reset (the latter fires on
  /// nearly every row activation).  Complete causal replay, but one ring
  /// write per op.  Off by default: the low-rate transitions (demotions,
  /// promotions, fallbacks, sensing failures, ...) are always recorded,
  /// and the policy.* metrics already carry the aggregate story (overhead
  /// table in docs/TRACING.md).
  bool lineage_ops = false;
  /// Own a Tracer with default caps (docs/TRACING.md): causal spans on
  /// the simulator clock.  Off by default — when off, `tracer()` is null
  /// and every tracing site costs one pointer compare; when on, the
  /// measured overhead stays within the budget documented in
  /// docs/TRACING.md.
  bool enable_tracing = false;
  /// Own a Profiler with default caps (docs/PROFILING.md) attributing a
  /// run's wall time to its phases — the `--profile` report and the only
  /// wall-clock record.  When off, `profiler()` is null and every
  /// profiling site costs one pointer compare.
  bool profile_phases = false;
};

/// One telemetry session: a metrics registry plus the lineage ring.
class Recorder {
 public:
  explicit Recorder(RecorderOptions options = {});

  const RecorderOptions& options() const { return options_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  Lineage& lineage() { return lineage_; }
  const Lineage& lineage() const { return lineage_; }

  /// The owned tracer, or null when `RecorderOptions::enable_tracing` is
  /// off — instrumentation gates on this pointer.
  Tracer* tracer() { return tracer_.get(); }
  const Tracer* tracer() const { return tracer_.get(); }

  /// The owned attribution profiler, or null when
  /// `RecorderOptions::profile_phases` is off — profiling sites gate on
  /// this pointer, same as tracer().
  Profiler* profiler() { return profiler_.get(); }
  const Profiler* profiler() const { return profiler_.get(); }

  // -- Convenience pass-throughs ---------------------------------------------
  Counter& counter(std::string_view name) {
    return metrics_.GetCounter(name);
  }
  Gauge& gauge(std::string_view name) { return metrics_.GetGauge(name); }
  Histogram& histogram(std::string_view name, std::vector<double> edges) {
    return metrics_.GetHistogram(name, std::move(edges));
  }

  MetricsSnapshot Snapshot() const { return metrics_.Snapshot(); }

  /// Merges another recorder's metrics, lineage, spans and profile into
  /// this one.  Callers merging parallel work MUST absorb shards in
  /// task-index order.
  void Absorb(const Recorder& other);

 private:
  RecorderOptions options_;
  MetricsRegistry metrics_;
  Lineage lineage_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<Profiler> profiler_;
};

/// One recorder per parallel task, merged in task-index order: the bridge
/// between telemetry and common/parallel.hpp.  Task i writes only to
/// shard(i); after the fan-out completes, MergeInto() folds the shards
/// into a sink in index order, so the aggregate is bit-identical for every
/// thread count and completion order.
class ShardedRecorder {
 public:
  ShardedRecorder(std::size_t shards, RecorderOptions options = {});

  std::size_t size() const { return shards_.size(); }
  Recorder& shard(std::size_t index) { return *shards_[index]; }
  const Recorder& shard(std::size_t index) const { return *shards_[index]; }

  /// Absorbs every shard into `sink`, index order.
  void MergeInto(Recorder& sink) const;

 private:
  std::vector<std::unique_ptr<Recorder>> shards_;
};

}  // namespace vrl::telemetry
