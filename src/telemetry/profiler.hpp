#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/events.hpp"

/// \file profiler.hpp
/// Hierarchical cost-attribution profiler (docs/PROFILING.md).
///
/// The profiler records a tree of phases: each node is identified by its
/// interned name *under its parent*, so "scheduler" inside
/// "controller.run" and "scheduler" inside "campaign.run" are distinct
/// nodes.  Every node accumulates call counts, per-op unit counts
/// (rows refreshed, requests serviced, ...), and inclusive/exclusive
/// wall time.
///
/// Frames are wall-clock scopes; Tracer spans (tracing.hpp) are
/// simulator-clock scopes.  The two stay separate records.
///
/// Determinism contract (mirrors Tracer): tree shape, call counts, and
/// unit counts are deterministic for a deterministic workload — `Absorb`
/// merges shard profilers in task-index order so the attribution tree is
/// byte-identical at any `VRL_THREADS` once times are scrubbed
/// (`Snapshot(/*scrub_times=*/true)`).  Wall times are measurement, not
/// state, and are excluded from the contract.
///
/// Hot-path cost: `BeginPhase`/`EndPhase` on a pre-interned `PhaseId`
/// is two `steady_clock` reads plus a couple of array writes.  For
/// per-tick paths where even that is too much, time them through a
/// `PhaseAccumulator` (sampled 1-in-N timing with exact call counts),
/// which folds one `CompletePhase` per run.

namespace vrl::telemetry {

using PhaseId = std::uint32_t;

struct ProfilerOptions {
  /// Maximum distinct tree nodes; further phases are counted in drops().
  std::size_t max_nodes = 4096;
  /// Maximum open-frame depth; deeper Begins are counted in drops().
  std::size_t max_depth = 64;
};

/// One node of an exported attribution tree.  Nodes appear in creation
/// order and every parent precedes its children (`parent < id`).
struct ProfileNode {
  std::string name;
  std::int32_t parent = -1;  ///< Index into nodes, -1 for a root.
  std::uint32_t depth = 0;   ///< Root phases are depth 0.
  std::uint64_t calls = 0;
  std::uint64_t units = 0;
  double inclusive_s = 0.0;
  double exclusive_s = 0.0;
};

struct ProfileSnapshot {
  std::vector<ProfileNode> nodes;
  std::uint64_t frames = 0;  ///< Total closed frames == sum of node calls.
  std::uint64_t drops = 0;   ///< Frames lost to the node/depth caps.

  /// "a;b;c" path of node `index` (collapsed-stack convention).
  std::string PathOf(std::size_t index) const;

  /// Node indices depth-first, siblings in creation order: the order in
  /// which the report's profile_tree table lists the phases.
  std::vector<std::size_t> PreOrder() const;

  /// Sum of the roots' inclusive time, the denominator of every excl%.
  double RootInclusiveSeconds() const;
};

class Profiler {
 public:
  explicit Profiler(ProfilerOptions options = {});

  /// Interns a phase name for allocation-free hot-path recording.
  PhaseId Intern(std::string_view name) { return names_.Intern(name); }

  /// Opens a frame for `name` under the innermost open frame.
  void BeginPhase(PhaseId name);
  void BeginPhase(std::string_view name) { BeginPhase(Intern(name)); }

  /// Closes the innermost frame, attributing its wall time; `units`
  /// (rows, requests, ...) are added to the node's unit total.
  void EndPhase(std::uint64_t units = 0);

  /// Records an already-measured phase as a child of the innermost open
  /// frame (or as a root) without opening a frame: `seconds` of wall
  /// time over `calls` invocations.  Used for folded per-tick costs.
  void CompletePhase(PhaseId name, double seconds, std::uint64_t calls = 1,
                     std::uint64_t units = 0);
  void CompletePhase(std::string_view name, double seconds,
                     std::uint64_t calls = 1, std::uint64_t units = 0) {
    CompletePhase(Intern(name), seconds, calls, units);
  }

  std::uint64_t frames() const { return frames_; }
  std::uint64_t drops() const { return drops_; }
  std::size_t open_depth() const { return stack_.size(); }

  /// Exports the attribution tree.  With `scrub_times` all wall times
  /// are zeroed so the snapshot is byte-comparable across runs and
  /// thread counts (counts stay exact).
  ProfileSnapshot Snapshot(bool scrub_times = false) const;

  /// Merges another profiler's finished tree into this one, matching
  /// nodes by (parent, name).  Call in task-index order for the
  /// determinism contract (ShardedRecorder::MergeInto does).
  /// \throws vrl::ConfigError if either profiler has open frames.
  void Absorb(const Profiler& other);

 private:
  struct Node {
    std::uint32_t name = 0;    // names_ label
    std::int32_t parent = -1;  // nodes_ index, -1 for a root
    std::uint32_t depth = 0;
    std::uint64_t calls = 0;
    std::uint64_t units = 0;
    double inclusive_s = 0.0;
    double exclusive_s = 0.0;
    /// (name id, node index) pairs; phase fan-out is small, linear scan.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> children;
  };
  struct Frame {
    std::uint32_t node = 0;  // kDroppedFrame when over a cap
    std::chrono::steady_clock::time_point start;
    double child_s = 0.0;  // inclusive time of direct children
  };
  static constexpr std::uint32_t kDroppedFrame = 0xffffffffu;

  /// Child of `parent` (-1 = root) named `name`, creating it if the
  /// node budget allows; kDroppedFrame when capped.
  std::uint32_t NodeFor(std::int32_t parent, std::uint32_t name);

  ProfilerOptions options_;
  LabelTable names_;
  std::vector<Node> nodes_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> roots_;
  std::vector<Frame> stack_;
  std::uint64_t frames_ = 0;
  std::uint64_t drops_ = 0;
};

/// RAII frame; null-safe so call sites need no profiler branch.
class ScopedPhase {
 public:
  ScopedPhase(Profiler* profiler, std::string_view name)
      : profiler_(profiler) {
    if (profiler_ != nullptr) {
      profiler_->BeginPhase(name);
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (profiler_ != nullptr) {
      profiler_->EndPhase();
    }
  }

 private:
  Profiler* profiler_;
};

/// Sampled wall-clock accumulator for one per-tick phase: every Start is
/// counted, one in `sample_every` reads the clock, and Fold() records the
/// scaled-up estimate (sampled time x calls / sampled) as one
/// CompletePhase under the innermost open frame.  Counts stay exact
/// (deterministic); the estimate is measurement, like any wall time.  With
/// a null profiler every call is one compare and nothing is recorded.
class PhaseAccumulator {
 public:
  PhaseAccumulator(Profiler* profiler, std::string_view name,
                   std::uint32_t sample_every = 64)
      : profiler_(profiler),
        name_(profiler == nullptr ? 0 : profiler->Intern(name)),
        every_(sample_every == 0 ? 1 : sample_every) {}

  /// Counts one call and, on a sampled one, starts the clock.  Countdown
  /// instead of modulo: this runs per simulated tick, where an integer
  /// division is measurable.
  void Start() {
    if (profiler_ == nullptr) {
      return;
    }
    ++calls_;
    if (--until_ == 0) {
      until_ = every_;
      timing_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }

  /// Ends the call; a sampled call adds its wall time.
  void Stop() {
    if (timing_) {
      timing_ = false;
      sampled_s_ += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
      ++sampled_;
    }
  }

  /// Records the phase — calls, `units` and the estimated time — under
  /// the innermost open frame.  Call once, after the last Stop.
  void Fold(std::uint64_t units = 0) {
    if (profiler_ == nullptr) {
      return;
    }
    const double seconds =
        sampled_ == 0 ? 0.0
                      : sampled_s_ * static_cast<double>(calls_) /
                            static_cast<double>(sampled_);
    profiler_->CompletePhase(name_, seconds, calls_, units);
  }

 private:
  Profiler* profiler_;
  PhaseId name_;
  std::uint32_t every_;
  std::uint32_t until_ = 1;  // first call is timed
  bool timing_ = false;
  std::uint64_t calls_ = 0;
  std::uint64_t sampled_ = 0;
  double sampled_s_ = 0.0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vrl::telemetry
