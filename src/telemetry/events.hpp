#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"

/// \file events.hpp
/// The refresh lineage: the "why" behind the metric counters.
///
/// Instrumented layers append fixed-size LineageRecords (a refresh issued,
/// an MPRSF counter reset by an activation, an adaptive demotion, a sensing
/// failure, ...) together with the interned label of what caused them into
/// one bounded ring.  Every Recorder owns one, so the low-rate transitions
/// are recorded whether or not tracing is on.  On overflow the *oldest*
/// records are overwritten — the ring always holds the newest window of
/// activity, where the incident under audit is — and the number of
/// displaced records is counted, so exporters can state exactly what was
/// dropped (tests/tracing_test.cpp pins this behaviour).

namespace vrl::telemetry {

/// What happened.  The `row`, `detail` (d below) and `value` payload fields are
/// kind-specific; see the catalogue in docs/TELEMETRY.md.
enum class EventKind : std::uint8_t {
  kFullRefresh,        ///< Full-latency refresh issued (d = slack cycles).
  kPartialRefresh,     ///< Partial refresh issued (d = slack cycles).
  kForcedFullRefresh,  ///< Recovery write-back forced by the adaptive layer.
  kMprsfReset,         ///< Activation reset a row's partial counter (d =
                       ///< counter value before the reset).
  kDemotion,           ///< Adaptive demotion (d = new ladder level, value =
                       ///< failures in the current window).
  kPromotion,          ///< Adaptive promotion (d = new ladder level).
  kFallbackEnter,      ///< Bank entered JEDEC fallback (d = failures).
  kFallbackExit,       ///< Bank left fallback.
  kSensingFailure,     ///< Refresh sensed below threshold (d = 1 when
                       ///< corrected, value = charge margin).
  kLegResumed,         ///< Campaign leg skipped via the journal on resume
                       ///< (row = leg index; docs/RESILIENCE.md).
};

/// Stable machine-readable kind name ("full_refresh", ...).
std::string_view EventKindName(EventKind kind);

/// Interned label strings, indexed in first-intern order — deterministic
/// for deterministic instrumentation.  Shared by the lineage ring (cause
/// labels), the Tracer (span names and track groups) and the Profiler
/// (phase names).
class LabelTable {
 public:
  /// Interns `label`, returning its stable index.  Idempotent.
  std::uint32_t Intern(std::string_view label);

  /// The interned label for `index`.
  /// \throws vrl::ConfigError when out of range.
  const std::string& label(std::uint32_t index) const;

  std::size_t size() const { return labels_.size(); }

  /// Interns every label of `other` in its order and returns the index map
  /// other-index -> this-index: the relabelling step of a shard merge.
  std::vector<std::uint32_t> InternAll(const LabelTable& other);

 private:
  std::vector<std::string> labels_;
  std::map<std::string, std::uint32_t, std::less<>> index_;
};

/// One refresh-lineage record: a row's state transition and its cause.
struct LineageRecord {
  EventKind kind = EventKind::kFullRefresh;
  Cycles cycle = 0;
  std::uint64_t row = 0;    ///< Subject row (0 when not row-scoped).
  std::uint32_t cause = 0;  ///< Interned label of the deciding layer.
  std::int64_t detail = 0;  ///< Kind-specific (slack cycles, ladder level,
                            ///< counter before reset, ...).
  double value = 0.0;       ///< Kind-specific real payload (margin, ...).

  bool operator==(const LineageRecord&) const = default;
};

/// Bounded lineage ring keeping the newest records, plus the cause labels
/// they refer to.  Single-threaded like its Recorder: shard per task and
/// Absorb() in task-index order.
class Lineage {
 public:
  /// \param capacity maximum retained records; 0 disables retention
  ///                 (every record is counted as dropped).
  explicit Lineage(std::size_t capacity = std::size_t{1} << 18);

  /// Interns a cause label (LabelTable::Intern).  Instrumented layers
  /// intern once at attachment so the hot path records a fixed index.
  std::uint32_t Intern(std::string_view cause) { return labels_.Intern(cause); }
  const std::string& label(std::uint32_t index) const {
    return labels_.label(index);
  }

  /// Appends one record.  Past the cap the ring overwrites the oldest
  /// record (newest win) and the displacement is counted.
  void Add(const LineageRecord& record) {
    ++recorded_;
    if (ring_.size() < capacity_) {
      // The first append reserves the whole cap: a record costs ~3x more
      // during vector growth than into reserved capacity, and reserve only
      // claims virtual address space — pages materialize per record
      // actually written, so an idle ring allocates nothing.
      if (ring_.size() == ring_.capacity()) {
        ring_.reserve(capacity_);
      }
      ring_.push_back(record);
    } else if (!ring_.empty()) {
      ring_[next_] = record;
      // Conditional wrap instead of % — an integer divide per record
      // would dominate the append cost.
      ++next_;
      if (next_ == ring_.size()) {
        next_ = 0;
      }
    }
  }

  /// Retained records, oldest first.
  std::vector<LineageRecord> Retained() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  /// Total records ever added (retained + dropped).
  std::uint64_t recorded() const { return recorded_; }
  /// Records displaced by overflow (or rejected by zero capacity).
  std::uint64_t dropped() const { return recorded_ - ring_.size(); }

  /// Replays `other`'s retained window (oldest first, causes relabelled)
  /// through this ring and accumulates its drop count — the shard-merge
  /// path.  The merged ring keeps the newest records across the shard
  /// boundary.
  void Absorb(const Lineage& other);

 private:
  std::size_t capacity_;
  LabelTable labels_;
  std::vector<LineageRecord> ring_;
  std::size_t next_ = 0;  ///< Ring slot the next record displaces.
  std::uint64_t recorded_ = 0;
};

}  // namespace vrl::telemetry
