#include "telemetry/tracing.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace vrl::telemetry {

Tracer::Tracer(TracerOptions options) : options_(options) {}

std::uint32_t Tracer::NewTrackGroup(std::string_view label) {
  groups_.push_back(Intern(label));
  return static_cast<std::uint32_t>(groups_.size());
}

SpanId Tracer::BeginSpan(std::string_view name, Cycles start,
                         std::uint32_t group, std::uint64_t track,
                         std::int64_t a, std::int64_t b) {
  // Intern only when the record will be kept — past the cap the label
  // table must not grow (and the lookup is the expensive part).
  if (spans_.size() >= options_.max_spans) {
    const SpanId id = next_id_++;
    ++dropped_spans_;
    open_.push_back({id, kDroppedIndex});
    return id;
  }
  return BeginSpan(Intern(name), start, group, track, a, b);
}

SpanId Tracer::BeginSpan(std::uint32_t name_label, Cycles start,
                         std::uint32_t group, std::uint64_t track,
                         std::int64_t a, std::int64_t b) {
  const SpanId id = next_id_++;
  const SpanId parent = open_.empty() ? 0 : open_.back().id;
  if (spans_.size() < options_.max_spans) {
    ReserveSpans();
    SpanRecord record;
    record.id = id;
    record.parent = parent;
    record.name = name_label;
    record.group = group;
    record.track = track;
    record.start = start;
    record.end = start;
    record.a = a;
    record.b = b;
    open_.push_back({id, spans_.size()});
    spans_.push_back(record);
  } else {
    ++dropped_spans_;
    open_.push_back({id, kDroppedIndex});
  }
  return id;
}

void Tracer::EndSpan(SpanId id, Cycles end) {
  if (open_.empty() || open_.back().id != id) {
    throw ConfigError(
        "Tracer::EndSpan: spans must close innermost-first (id " +
        std::to_string(id) + " is not the innermost open span)");
  }
  if (open_.back().index != kDroppedIndex) {
    spans_[open_.back().index].end = end;
  }
  open_.pop_back();
}

void Tracer::CompleteSpan(std::string_view name, Cycles start, Cycles end,
                          std::uint32_t group, std::uint64_t track,
                          std::int64_t a, std::int64_t b) {
  const SpanId id = BeginSpan(name, start, group, track, a, b);
  EndSpan(id, end);
}

void Tracer::CompleteSpan(std::uint32_t name_label, Cycles start, Cycles end,
                          std::uint32_t group, std::uint64_t track,
                          std::int64_t a, std::int64_t b) {
  // Appends directly — a closed span never visits the open stack, which
  // keeps the per-tick burst spans of MemoryController::Run cheap (this
  // overload is their hot path; see docs/TRACING.md on overhead).
  const SpanId id = next_id_++;
  if (spans_.size() >= options_.max_spans) {
    ++dropped_spans_;
    return;
  }
  ReserveSpans();
  SpanRecord record;
  record.id = id;
  record.parent = open_.empty() ? 0 : open_.back().id;
  record.name = name_label;
  record.group = group;
  record.track = track;
  record.start = start;
  record.end = end;
  record.a = a;
  record.b = b;
  spans_.push_back(record);
}

void Tracer::Absorb(const Tracer& other) {
  if (!other.open_.empty()) {
    throw ConfigError("Tracer::Absorb: other tracer has open spans");
  }
  // Remap the other tracer's label indices into this table (idempotent for
  // labels both sides interned, so merged tables are identical regardless
  // of how work was sharded — provided shards are absorbed in task-index
  // order).
  const std::vector<std::uint32_t> label_map =
      labels_.InternAll(other.labels_);
  // Group g of `other` becomes group group_base + g here.
  const auto group_base = static_cast<std::uint32_t>(groups_.size());
  for (const std::uint32_t label : other.groups_) {
    groups_.push_back(label_map[label]);
  }
  // Span ids were assigned sequentially from 1, so a fixed offset keeps
  // parent links intact (0 stays "no parent").
  const SpanId id_base = next_id_ - 1;
  spans_.reserve(std::min(options_.max_spans,
                          spans_.size() + other.spans_.size()));
  for (const SpanRecord& span : other.spans_) {
    if (spans_.size() < options_.max_spans) {
      SpanRecord copy = span;
      copy.id += id_base;
      copy.parent += copy.parent == 0 ? 0 : id_base;
      copy.name = label_map[span.name];
      copy.group += span.group == 0 ? 0 : group_base;
      spans_.push_back(copy);
    } else {
      ++dropped_spans_;
    }
  }
  next_id_ += other.next_id_ - 1;
  dropped_spans_ += other.dropped_spans_;
}

}  // namespace vrl::telemetry
