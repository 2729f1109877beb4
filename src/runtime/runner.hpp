#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/supervisor.hpp"
#include "telemetry/recorder.hpp"

/// \file runner.hpp
/// The crash-tolerant leg runner (docs/RESILIENCE.md): journaled resume,
/// optional supervised worker processes, and deterministic in-process
/// fallback — the one engine every resilient driver funnels through.
///
/// A "leg" is one independent unit of a campaign (a sweep point, a suite
/// workload, one resilience-comparison run).  The caller provides a pure
/// `leg_fn(i) -> payload` (encoded via runtime/codec.hpp) and gets back the
/// full payload vector, assembled from:
///
///   * the journal's committed prefix (legs a previous, interrupted run
///     already finished — skipped entirely on resume), then
///   * freshly executed legs, run either in supervised worker processes
///     (`workers > 0`) or in-process via vrl::ParallelForCommit.
///
/// Commits happen on the calling thread in strictly increasing leg order,
/// so the journal keeps its contiguous-prefix invariant no matter how legs
/// are scheduled.  Because every mode routes results through the same
/// codec, a resumed or worker-executed campaign produces byte-identical
/// reports to an uninterrupted in-process run.
///
/// Test hook: VRL_CRASH_AFTER_LEG=N raises SIGKILL immediately after the
/// N-th durable journal commit made while the variable is set — the chaos
/// harness's crash injector (only counts commits, so the resumed process
/// needs N more commits to crash again).

namespace vrl::runtime {

struct RuntimeOptions {
  /// Write-ahead journal path; empty disables journaling (and resume).
  std::string journal_path;

  /// Worker processes for leg execution; 0 runs legs in-process.
  std::size_t workers = 0;
  double leg_timeout_s = 120.0;   ///< Worker silence before SIGKILL.
  std::size_t max_retries = 3;    ///< Worker attempts per leg.
  double backoff_base_s = 0.05;   ///< First retry delay (doubles per retry).
  double backoff_cap_s = 2.0;     ///< Backoff ceiling.
  std::size_t degrade_after = 3;  ///< Consecutive worker failures before the
                                  ///< pool degrades to in-process execution.

  /// Threads for the in-process path (0 = vrl::DefaultThreadCount()).
  std::size_t threads = 0;

  /// Sink for the runtime's own counters (runtime.*) and lineage records
  /// (leg_resumed / worker_retry / worker_degraded, cause "runtime").
  /// Kept separate from the experiment's telemetry on purpose: these
  /// counters *differ* between a clean and a resumed run, so merging them
  /// into the report would break byte-identity.  Mutated only on the
  /// calling thread.
  telemetry::Recorder* runtime_telemetry = nullptr;

  /// Progress callback: on_leg(done, total) after every commit.
  std::function<void(std::size_t, std::size_t)> on_leg;

  /// Fleet observability taps, forwarded verbatim to WorkerPoolOptions when
  /// `workers > 0` (silently unused otherwise — the in-process path has no
  /// fleet).  Both run on the calling thread; see runtime/supervisor.hpp.
  std::function<void(std::size_t, const telemetry::WorkerFrame&)>
      on_worker_frame;
  std::function<void(const telemetry::FleetStatus&)> on_fleet;
  double fleet_interval_s = 0.25;  ///< on_fleet cadence (seconds).
};

/// What the runner did — mirrored into runtime_telemetry when set.
struct RunnerStats {
  std::size_t legs = 0;              ///< Total legs in the campaign.
  std::size_t executed = 0;          ///< Legs run by this process.
  std::size_t resumed = 0;           ///< Legs skipped via the journal.
  std::size_t journal_commits = 0;   ///< Durable appends this process made.
  std::size_t worker_retries = 0;
  std::size_t worker_crashes = 0;
  std::size_t worker_timeouts = 0;
  std::size_t worker_errors = 0;     ///< Leg exceptions reported by workers.
  std::size_t leg_degradations = 0;  ///< Legs that fell back in-process.
  bool pool_degraded = false;        ///< Whole pool abandoned workers.
};

/// Runs the `legs`-leg campaign named `campaign` (journal identity is the
/// name plus `config_digest` — resuming with a different configuration is
/// refused).  Returns all leg payloads in leg order.
/// \throws vrl::ParseError on journal corruption, vrl::ConfigError on a
///         journal/campaign mismatch or invalid options.
std::vector<std::string> RunJournaledLegs(
    const std::string& campaign, std::uint64_t config_digest,
    std::size_t legs, const std::function<std::string(std::size_t)>& leg_fn,
    const RuntimeOptions& options, RunnerStats* stats = nullptr);

}  // namespace vrl::runtime
