#include "telemetry/recorder.hpp"

#include "common/parallel.hpp"

namespace vrl::telemetry {

Recorder::Recorder(RecorderOptions options) : options_(options) {
  if (options_.enable_tracing) {
    tracer_ = std::make_unique<Tracer>();
  }
  if (options_.profile_phases) {
    profiler_ = std::make_unique<Profiler>();
  }
}

void Recorder::Absorb(const Recorder& other) {
  metrics_.Absorb(other.metrics_.Snapshot());
  lineage_.Absorb(other.lineage_);
  if (tracer_ != nullptr && other.tracer_ != nullptr) {
    tracer_->Absorb(*other.tracer_);
  }
  if (profiler_ != nullptr && other.profiler_ != nullptr) {
    profiler_->Absorb(*other.profiler_);
  }
}

ShardedRecorder::ShardedRecorder(std::size_t shards, RecorderOptions options) {
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Recorder>(options));
  }
}

void ShardedRecorder::MergeInto(Recorder& sink) const {
  for (const auto& shard : shards_) {
    sink.Absorb(*shard);
  }
}

void ParallelForShards(
    std::string_view label, std::size_t n, Recorder* sink,
    const std::function<void(std::size_t, Recorder*)>& body,
    std::size_t threads, const std::vector<std::size_t>& claim_order) {
  const std::unique_ptr<ShardedRecorder> shards =
      sink == nullptr ? nullptr
                      : std::make_unique<ShardedRecorder>(n, sink->options());
  ParallelFor(
      label, n,
      [&](std::size_t k) {
        const std::size_t i = claim_order.empty() ? k : claim_order[k];
        body(i, shards ? &shards->shard(i) : nullptr);
      },
      threads);
  if (shards) {
    shards->MergeInto(*sink);
  }
}

}  // namespace vrl::telemetry
