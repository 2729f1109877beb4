#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "telemetry/federation.hpp"

/// \file supervisor.hpp
/// Supervised worker processes for campaign legs (docs/RESILIENCE.md).
///
/// RunSupervised executes legs in fork()ed child processes, one process per
/// leg attempt, so a leg that crashes, hangs or corrupts its own address
/// space cannot take the campaign down.  The parent supervises through a
/// pipe per child:
///
///   * liveness — the child streams heartbeat bytes ('H') while it works
///     (WorkerHeartbeat(), wired into the campaign tick loop); any pipe
///     activity refreshes the child's deadline, and a child silent for
///     `leg_timeout_s` is SIGKILLed and counted as a timeout;
///   * telemetry — the child may interleave 'S' frames (a 64-bit
///     little-endian length plus a runtime/codec.hpp worker-frame payload:
///     a MetricsSnapshot delta and the lineage-ring counts;
///     WorkerPublishTelemetry()).  The parent decodes complete frames as
///     they arrive and hands them to `WorkerPoolOptions::on_frame` — the
///     feed behind federated /metrics and /fleet (docs/OBSERVABILITY.md).
///     A frame that would block on a full pipe is dropped whole and counted
///     exactly; the next delivered frame carries the accumulated delta;
///   * results — the child's final frame is 'R' (success) or 'E' (leg
///     exception) followed by a 64-bit little-endian length and the
///     payload/message, then process exit;
///   * retry with backoff — a failed attempt is rescheduled after
///     `backoff_base_s * 2^(attempt-1)` seconds, capped at `backoff_cap_s`,
///     for at most `max_retries` attempts;
///   * graceful degradation — a leg that exhausts its retries runs
///     in-process on the calling thread (the result still counts; only the
///     isolation is lost), and after `degrade_after` consecutive worker
///     failures the whole pool degrades: remaining children are reaped and
///     every remaining leg runs in-process.
///
/// Commit order: `commit(i, payload)` is invoked on the calling thread in
/// strictly increasing leg order regardless of completion order, so the
/// caller can journal results under the contiguous-prefix invariant.
///
/// Children never touch the parent's threads (a fork only carries the
/// calling thread): the leg function must gate anything owned by another
/// thread — e.g. an obs::MonitorPlane — behind InWorkerChild().
///
/// Test hook: VRL_WORKER_CRASH=kill|hang makes every child crash (SIGKILL)
/// or hang before running its leg — the chaos harness for the retry and
/// degradation paths (only children honour it; degraded in-process
/// execution ignores it, which is exactly the graceful-degradation story).

namespace vrl::telemetry {
class Recorder;
}  // namespace vrl::telemetry

namespace vrl::runtime {

/// True in a forked worker child (between fork and result write).
bool InWorkerChild();

/// Rate-limited heartbeat from a worker child's leg code; no-op in the
/// parent.  Called per campaign tick (fault::CampaignSetup::heartbeat).
void WorkerHeartbeat();

/// Publishes the recorder's current state as one 'S' telemetry frame: a
/// metrics delta since the previous delivered frame plus the count of
/// lineage records new since then.  No-op in the parent; rate-limited in
/// the child (VRL_WORKER_PUBLISH_MS, default 50 — `force` bypasses the
/// limit for end-of-leg flushes).  Never blocks the leg: a frame that cannot start
/// on a full pipe is dropped whole and counted, and the *next* delivered
/// frame carries the accumulated delta plus the cumulative drop counter —
/// a slow driver costs freshness, never counts (docs/OBSERVABILITY.md).
void WorkerPublishTelemetry(const telemetry::Recorder& recorder,
                            bool force = false);

/// Wire-frames a payload: tag byte + 64-bit little-endian length + payload.
std::string FrameMessage(char tag, std::string_view payload);

/// Non-blocking frame write with whole-frame drop semantics: false when the
/// pipe could not take the first byte (the frame was dropped).  A frame
/// that started is always finished (blocking if needed) so the stream stays
/// framed.  Exposed for the drop-accounting tests.
bool TryWriteFrame(int fd, std::string_view frame);

/// Test seam: routes WorkerHeartbeat/WorkerPublishTelemetry at `fd` as if
/// this process were a worker child, resetting the per-attempt publish
/// state (delta baseline, sequence and drop counters).  Pass -1 to restore
/// parent behaviour.  Returns the previous fd.
int SetWorkerPipeForTesting(int fd);

struct WorkerPoolOptions {
  std::size_t workers = 1;        ///< Concurrent worker processes.
  double leg_timeout_s = 120.0;   ///< Silence before a child is killed.
  std::size_t max_retries = 3;    ///< Worker attempts per leg.
  double backoff_base_s = 0.05;   ///< First retry delay.
  double backoff_cap_s = 2.0;     ///< Exponential backoff ceiling.
  std::size_t degrade_after = 3;  ///< Consecutive failures before the pool
                                  ///< degrades to in-process execution.

  /// Decoded worker telemetry frames, delivered on the calling thread with
  /// the stable worker-slot ordinal they arrived from.  Null = off.
  std::function<void(std::size_t worker, const telemetry::WorkerFrame&)>
      on_frame;
  /// Rate-limited pool status (per `fleet_interval_s`, plus once at pool
  /// completion), on the calling thread.  Null = off.
  std::function<void(const telemetry::FleetStatus&)> on_fleet;
  double fleet_interval_s = 0.25;  ///< on_fleet cadence (seconds).
};

/// One supervision incident, reported to the caller as it happens.
struct WorkerEvent {
  enum class Kind {
    kCrash,         ///< Child died without a result frame.
    kTimeout,       ///< Child silent past the deadline; SIGKILLed.
    kError,         ///< Child reported a leg exception ('E' frame).
    kRetry,         ///< Failed attempt rescheduled (detail = delay).
    kLegDegraded,   ///< Retries exhausted; leg ran in-process.
    kPoolDegraded,  ///< Consecutive-failure limit hit; pool abandoned.
  };
  Kind kind = Kind::kCrash;
  std::size_t leg = 0;
  std::size_t attempt = 0;  ///< 1-based attempt the incident belongs to.
  std::string detail;
};

/// Runs legs [begin, end) through supervised workers, committing payloads
/// in increasing leg order via `commit` on the calling thread.  `on_event`
/// (may be null) observes every supervision incident.  Leg exceptions that
/// survive degradation to in-process execution propagate to the caller.
/// \throws vrl::ConfigError on invalid options or fork/pipe failure.
void RunSupervised(
    std::size_t begin, std::size_t end,
    const std::function<std::string(std::size_t)>& leg_fn,
    const std::function<void(std::size_t, const std::string&)>& commit,
    const WorkerPoolOptions& options,
    const std::function<void(const WorkerEvent&)>& on_event);

}  // namespace vrl::runtime
