#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "telemetry/events.hpp"

/// \file tracing.hpp
/// Causal span tracing.
///
/// Where the metric cells answer "how many" and the lineage ring
/// (events.hpp) answers "what changed, and why", the tracer answers
/// **when**: hierarchical spans timestamped on the *simulator* clock (so
/// traces are deterministic and thread-count independent).
///
/// Determinism follows the Recorder rules (docs/TELEMETRY.md): a Tracer is
/// single-threaded; parallel drivers trace into per-shard tracers and
/// Absorb() merges them in task-index order, remapping span ids, interned
/// labels and track groups so the merged trace is byte-identical for every
/// VRL_THREADS.  Exporters live in trace_export.hpp (Chrome trace_event
/// JSON + JSONL).
///
/// Spans are bounded and keep the oldest records past the cap (the
/// hierarchy's roots and the head of a run are where causality starts);
/// the drop count is exact, so exports state precisely what was truncated.

namespace vrl::telemetry {

/// Identifies one span within a Tracer.  0 means "no span" (the parent of
/// a top-level span).  Ids are assigned sequentially and remapped on
/// Absorb, so they are stable across thread counts but not across runs
/// with different instrumentation.
using SpanId = std::uint64_t;

/// One closed (or still open) span.  `name` and all other label fields
/// are indices into the owning tracer's label table (`Tracer::label`).
struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;        ///< Enclosing span, 0 for top level.
  std::uint32_t name = 0;   ///< Interned label index.
  std::uint32_t group = 0;  ///< Track group (Chrome pid); 0 = driver.
  std::uint64_t track = 0;  ///< Track within the group (Chrome tid; the
                            ///< bank index for controller spans).
  Cycles start = 0;
  Cycles end = 0;          ///< == start until EndSpan closes it.
  std::int64_t a = 0;      ///< Span-specific payload (e.g. op count).
  std::int64_t b = 0;      ///< Second payload (e.g. full-refresh count).

  bool operator==(const SpanRecord&) const = default;
};

struct TracerOptions {
  /// Retained-span cap, oldest win (the hierarchy's roots and the head of
  /// the run are where causality starts); further BeginSpan calls still
  /// return valid ids (nesting stays consistent) but store nothing and
  /// count a drop.
  std::size_t max_spans = std::size_t{1} << 18;
};

/// Deterministic span collector.  Single-threaded by design — shard per
/// task and Absorb() in task-index order, exactly like Recorder.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  const TracerOptions& options() const { return options_; }

  // -- Labels -----------------------------------------------------------------

  /// Interns `label`, returning its stable index.  Idempotent; indices are
  /// assigned in first-intern order (deterministic for deterministic
  /// instrumentation).
  std::uint32_t Intern(std::string_view label) { return labels_.Intern(label); }

  /// The interned label for `index` (throws on out-of-range).
  const std::string& label(std::uint32_t index) const {
    return labels_.label(index);
  }

  std::size_t label_count() const { return labels_.size(); }

  // -- Track groups -----------------------------------------------------------

  /// Opens a new track group (a Chrome "process": one per controller run)
  /// and returns its id.  Group 0 always exists and is the driver group.
  std::uint32_t NewTrackGroup(std::string_view label);

  /// Label indices of the non-driver groups, in creation order; group id
  /// g corresponds to `groups()[g - 1]`.
  const std::vector<std::uint32_t>& groups() const { return groups_; }

  // -- Spans ------------------------------------------------------------------

  /// Opens a span whose parent is the innermost still-open span.  `start`
  /// is a simulator-clock cycle.  Always returns a fresh id, even when the
  /// record itself is dropped by the cap.
  SpanId BeginSpan(std::string_view name, Cycles start,
                   std::uint32_t group = 0, std::uint64_t track = 0,
                   std::int64_t a = 0, std::int64_t b = 0);

  /// BeginSpan with a pre-interned name — per-tick call sites intern once
  /// outside their loop so the hot path skips the label-table lookup.
  SpanId BeginSpan(std::uint32_t name_label, Cycles start,
                   std::uint32_t group = 0, std::uint64_t track = 0,
                   std::int64_t a = 0, std::int64_t b = 0);

  /// Closes the innermost open span, which must be `id` (spans close in
  /// LIFO order).
  /// \throws vrl::ConfigError on a mismatched or missing open span.
  void EndSpan(SpanId id, Cycles end);

  /// Records a span whose duration is already known, without touching the
  /// open-span stack (its parent is the innermost open span).
  void CompleteSpan(std::string_view name, Cycles start, Cycles end,
                    std::uint32_t group = 0, std::uint64_t track = 0,
                    std::int64_t a = 0, std::int64_t b = 0);

  /// CompleteSpan with a pre-interned name (see the BeginSpan overload).
  void CompleteSpan(std::uint32_t name_label, Cycles start, Cycles end,
                    std::uint32_t group = 0, std::uint64_t track = 0,
                    std::int64_t a = 0, std::int64_t b = 0);

  /// Retained spans in record order.
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Spans begun but not stored because of the cap.
  std::uint64_t dropped_spans() const { return dropped_spans_; }

  /// Total spans ever begun (retained + dropped).
  std::uint64_t recorded_spans() const {
    return dropped_spans_ + spans_.size();
  }

  /// Depth of the open-span stack (0 when everything is closed).
  std::size_t open_depth() const { return open_.size(); }

  // -- Shard merge ------------------------------------------------------------

  /// Merges another tracer's spans, labels and groups into this
  /// one, remapping label indices, group ids and span ids so references
  /// stay valid.  Callers merging parallel work MUST absorb shards in
  /// task-index order (the Recorder rule).  `other` must have no open
  /// spans.  \throws vrl::ConfigError otherwise.
  void Absorb(const Tracer& other);

 private:
  struct OpenSpan {
    SpanId id = 0;
    std::size_t index = 0;  ///< Slot in spans_, or npos when dropped.
  };
  static constexpr std::size_t kDroppedIndex = ~std::size_t{0};

  /// The first stored span reserves the whole cap, so no append ever
  /// reallocates (the same virtual-reserve rule as Lineage::Add).
  void ReserveSpans() {
    if (spans_.size() == spans_.capacity()) {
      spans_.reserve(options_.max_spans);
    }
  }

  TracerOptions options_;
  LabelTable labels_;
  std::vector<std::uint32_t> groups_;  ///< Label id per non-driver group.
  std::vector<SpanRecord> spans_;
  std::vector<OpenSpan> open_;
  SpanId next_id_ = 1;
  std::uint64_t dropped_spans_ = 0;
};

}  // namespace vrl::telemetry
