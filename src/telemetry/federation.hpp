#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

/// \file federation.hpp
/// Fleet telemetry federation (docs/OBSERVABILITY.md): the data types a
/// supervised campaign streams from worker processes to the driver, and the
/// FederatedRegistry that merges those streams into one observable system.
///
/// Workers publish WorkerFrame records — a MetricsSnapshot *delta* since
/// the previous frame plus lineage-ring counts — over the
/// supervision pipe ('S' frames; runtime/supervisor.hpp owns the wire
/// format).  The driver absorbs each frame into a FederatedRegistry keyed
/// by stable `worker`/`leg` labels.  Determinism mirrors ShardedRecorder:
/// per-member accumulators merge frame deltas in arrival order, and
/// Aggregate() folds members in sorted label order, so the aggregate is
/// bit-identical for a given frame sequence regardless of when it is read.
///
/// Drop accounting is exact, not sampled: a worker that cannot write a
/// frame without blocking drops the *frame* but keeps the accumulated
/// delta, so the next delivered frame carries both the missed updates and a
/// cumulative per-attempt drop counter.  The registry sums the latest
/// cumulative counters per (worker, leg, attempt), which is exactly the
/// number of frames that never arrived — slow pipes cost freshness, never
/// counts.

namespace vrl::telemetry {

/// One worker telemetry frame: what a worker child publishes mid-leg.
struct WorkerFrame {
  std::size_t leg = 0;
  std::size_t attempt = 1;           ///< 1-based supervision attempt.
  std::uint64_t seq = 0;             ///< 1-based delivered-frame sequence.
  std::uint64_t frames_dropped = 0;  ///< Cumulative frames this attempt
                                     ///< dropped on a full pipe.
  std::uint64_t events_recorded = 0;  ///< Cumulative lineage records.
  std::uint64_t events_dropped = 0;   ///< Records displaced by the ring.
  MetricsSnapshot delta;              ///< Metrics since the previous
                                      ///< delivered frame.
  std::uint64_t events = 0;           ///< Lineage records new since the
                                      ///< previous delivered frame
                                      ///< (capped per frame).

  bool operator==(const WorkerFrame&) const = default;
};

/// Liveness of one active worker slot, as seen by the supervisor.
struct FleetWorkerStatus {
  std::size_t worker = 0;        ///< Stable slot ordinal (0..workers-1).
  std::size_t leg = 0;           ///< Leg the slot is currently running.
  std::size_t attempt = 1;       ///< 1-based attempt of that leg.
  double heartbeat_age_s = 0.0;  ///< Seconds since the pipe last moved.
  std::uint64_t frames = 0;      ///< Telemetry frames received this attempt.
};

/// Point-in-time status of a supervised pool — what /fleet renders.
struct FleetStatus {
  std::size_t workers_configured = 0;
  std::vector<FleetWorkerStatus> active;  ///< Slot order.
  std::size_t legs_total = 0;
  std::size_t legs_committed = 0;
  std::size_t legs_running = 0;  ///< Legs currently in worker children.
  std::size_t legs_pending = 0;  ///< Queued (including retry backoff).
  std::size_t legs_staged = 0;   ///< Done, awaiting their commit turn.
  std::uint64_t retries = 0;
  std::uint64_t crashes = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;
  bool pool_degraded = false;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_dropped = 0;  ///< Exact (see file comment).
};

/// Merges worker frame streams under stable (worker, leg) labels.
/// Single-threaded like the Recorder: the supervisor's callbacks run on the
/// driver thread, and MonitorServer only sees copies made there.
class FederatedRegistry {
 public:
  /// Label pair -> accumulated state for one (worker, leg) member.
  struct Member {
    MetricsSnapshot snapshot;   ///< Frame deltas merged in arrival order,
                                ///< plus the synthetic worker.* counters.
    std::uint64_t frames = 0;   ///< Frames absorbed into this member.
    std::uint64_t events = 0;   ///< Lineage records those frames counted.
  };
  using MemberMap = std::map<std::pair<std::string, std::string>, Member>;

  /// Absorbs one delivered frame under (`worker`, "leg<frame.leg>") labels:
  /// merges the delta, appends the synthetic `worker.frames_total` /
  /// `worker.events_total` counters (so every member exposes a monotone
  /// series even when its leg's own counters are quiet), and updates the
  /// exact per-attempt drop accounting.
  /// \throws vrl::ConfigError on a metric kind/shape mismatch within one
  ///         member's stream (a worker contradicting itself).
  void Absorb(std::string_view worker, const WorkerFrame& frame);

  /// All members merged in sorted label order — ShardedRecorder's
  /// index-order semantics with labels as the index, so the result is
  /// bit-identical for a given frame sequence.
  MetricsSnapshot Aggregate() const;

  const MemberMap& members() const { return members_; }

  std::uint64_t frames_received() const { return frames_received_; }
  /// Frames workers dropped on a full pipe (sum of the latest cumulative
  /// per-attempt counters) — exact, proven by tests/telemetry_test.cpp.
  std::uint64_t frames_dropped() const;
  std::uint64_t events_received() const { return events_received_; }
  /// Lineage records the workers' bounded rings displaced.
  std::uint64_t events_dropped() const;

 private:
  MemberMap members_;
  /// (worker, leg, attempt) -> latest cumulative (frames, events) drops.
  std::map<std::tuple<std::string, std::size_t, std::size_t>,
           std::pair<std::uint64_t, std::uint64_t>>
      dropped_;
  std::uint64_t frames_received_ = 0;
  std::uint64_t events_received_ = 0;
};

}  // namespace vrl::telemetry
