#include "telemetry/recorder.hpp"

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

}  // namespace vrl::telemetry
