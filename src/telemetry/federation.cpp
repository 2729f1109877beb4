#include "telemetry/federation.hpp"

#include <tuple>

namespace vrl::telemetry {
namespace {

/// Bumps a counter-kind MetricValue in a snapshot — the synthetic
/// per-member series the registry maintains itself.
void AddCounter(MetricsSnapshot& snapshot, const std::string& name,
                std::uint64_t n) {
  MetricValue& value = snapshot.metrics[name];
  value.kind = MetricKind::kCounter;
  value.count += n;
}

}  // namespace

void FederatedRegistry::Absorb(std::string_view worker,
                               const WorkerFrame& frame) {
  const std::pair<std::string, std::string> key(
      std::string(worker), "leg" + std::to_string(frame.leg));
  Member& member = members_[key];
  member.snapshot.MergeFrom(frame.delta);
  AddCounter(member.snapshot, "worker.frames_total", 1);
  AddCounter(member.snapshot, "worker.events_total", frame.events);
  ++member.frames;
  member.events += frame.events;
  ++frames_received_;
  events_received_ += frame.events;
  // Cumulative per-attempt counters: the latest frame's value supersedes
  // earlier ones from the same attempt, and a retried attempt gets its own
  // entry — summing the map is therefore exact.
  dropped_[std::make_tuple(key.first, frame.leg, frame.attempt)] = {
      frame.frames_dropped, frame.events_dropped};
}

MetricsSnapshot FederatedRegistry::Aggregate() const {
  MetricsSnapshot out;
  for (const auto& [key, member] : members_) {
    out.MergeFrom(member.snapshot);
  }
  return out;
}

std::uint64_t FederatedRegistry::frames_dropped() const {
  std::uint64_t total = 0;
  for (const auto& [key, drops] : dropped_) {
    total += drops.first;
  }
  return total;
}

std::uint64_t FederatedRegistry::events_dropped() const {
  std::uint64_t total = 0;
  for (const auto& [key, drops] : dropped_) {
    total += drops.second;
  }
  return total;
}

}  // namespace vrl::telemetry
