#include "telemetry/events.hpp"

#include <string>

#include "common/error.hpp"

namespace vrl::telemetry {

std::string_view EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kFullRefresh:
      return "full_refresh";
    case EventKind::kPartialRefresh:
      return "partial_refresh";
    case EventKind::kForcedFullRefresh:
      return "forced_full_refresh";
    case EventKind::kMprsfReset:
      return "mprsf_reset";
    case EventKind::kDemotion:
      return "demotion";
    case EventKind::kPromotion:
      return "promotion";
    case EventKind::kFallbackEnter:
      return "fallback_enter";
    case EventKind::kFallbackExit:
      return "fallback_exit";
    case EventKind::kSensingFailure:
      return "sensing_failure";
  }
  return "?";
}

std::uint32_t LabelTable::Intern(std::string_view label) {
  const auto it = index_.find(label);
  if (it != index_.end()) {
    return it->second;
  }
  const auto index = static_cast<std::uint32_t>(labels_.size());
  labels_.emplace_back(label);
  index_.emplace(labels_.back(), index);
  return index;
}

const std::string& LabelTable::label(std::uint32_t index) const {
  if (index >= labels_.size()) {
    throw ConfigError("label index " + std::to_string(index) +
                      " out of range");
  }
  return labels_[index];
}

std::vector<std::uint32_t> LabelTable::InternAll(const LabelTable& other) {
  std::vector<std::uint32_t> map;
  map.reserve(other.labels_.size());
  for (const std::string& label : other.labels_) {
    map.push_back(Intern(label));
  }
  return map;
}

Lineage::Lineage(std::size_t capacity) : capacity_(capacity) {}

std::vector<LineageRecord> Lineage::Retained() const {
  std::vector<LineageRecord> out;
  out.reserve(ring_.size());
  // Wrapped iff the ring is at capacity; before that, slot order is record
  // order and next_ stays 0.
  const std::size_t start = ring_.size() == capacity_ ? next_ : 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void Lineage::Absorb(const Lineage& other) {
  // Relabelling is idempotent for causes both sides interned, so merged
  // tables are identical however the work was sharded — provided shards
  // are absorbed in task-index order.
  const std::vector<std::uint32_t> cause_map = labels_.InternAll(other.labels_);
  for (const LineageRecord& record : other.Retained()) {
    LineageRecord copy = record;
    copy.cause = cause_map.at(record.cause);  // Causes must be interned.
    Add(copy);
  }
  // Add() already counted the retained records; add the ones `other` had
  // displaced before the merge.
  recorded_ += other.dropped();
}

}  // namespace vrl::telemetry
