#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "dram/refresh_policy.hpp"
#include "fault/adaptive_policy.hpp"
#include "fault/injector.hpp"
#include "model/refresh_model.hpp"
#include "retention/profile.hpp"

/// \file campaign.hpp
/// Fault-injection campaign: the online failure monitor.
///
/// Replays a refresh policy tick-by-tick against the physics while a
/// FaultSchedule perturbs the runtime retention underneath it.  Every
/// refresh operation senses its row through the shared ChargeTracker; a
/// failed sense is a SensingFailureEvent — the simulator analogue of an
/// ECC scrub flagging a weak read.  When the policy is an
/// AdaptiveVrlPolicy the event is fed back (demotion / fallback) and the
/// ECC write-back recovers the data; a plain policy has no detection path,
/// so every failure is silent data loss.

namespace vrl::fault {

/// One detected sensing failure.
struct SensingFailureEvent {
  std::size_t row = 0;
  Cycles at_cycle = 0;
  double at_s = 0.0;
  double margin = 0.0;   ///< Charge margin at sensing time (negative).
  bool was_full = false;  ///< Failed on a full (vs partial) refresh.
  bool corrected = false;

  bool operator==(const SensingFailureEvent&) const = default;
};

/// Failure events a CampaignReport keeps (the first ones); every failure is
/// still counted.
inline constexpr std::size_t kMaxLoggedEvents = 256;

struct CampaignSetup {
  double clock_period_s = 2.5e-9;
  Cycles t_refi = 3125;  ///< tREFW / 8192, matching dram::TimingParams.
  Cycles base_window = 25'600'000;
  std::size_t windows = 8;
  double tau_post_full_s = 0.0;     ///< Full-refresh τpost budget [s].
  double tau_post_partial_s = 0.0;  ///< Partial-refresh τpost budget [s].

  /// When set, RunCampaign attaches this recorder to the policy for the
  /// duration and feeds the `campaign.*` metrics and sensing-failure events
  /// (docs/TELEMETRY.md).  Single-threaded: give each concurrent campaign
  /// its own recorder (telemetry::ShardedRecorder).
  telemetry::Recorder* telemetry = nullptr;

  void Validate() const;
};

/// Sense-margin histogram bucket edges used by `campaign.sense_margin`
/// (margins are fractions of full charge; negative means a failed sense).
const std::vector<double>& MarginBucketEdges();

/// Resilience report of one campaign run.
struct CampaignReport {
  std::size_t refreshes = 0;
  std::size_t partial_refreshes = 0;
  std::size_t detected_failures = 0;
  std::size_t corrected_failures = 0;   ///< Recovered via ECC + demotion.
  std::size_t unrecovered_failures = 0; ///< Silent or saturated: data lost.
  double min_margin = 1.0;
  Cycles refresh_busy_cycles = 0;
  Cycles simulated_cycles = 0;
  std::vector<SensingFailureEvent> events;  ///< First kMaxLoggedEvents.
  AdaptiveStats adaptive;  ///< All-zero when the policy is not adaptive.

  bool DataLost() const { return unrecovered_failures > 0; }

  /// Fraction of simulated time the bank spent refreshing — comparable
  /// across policies run over the same horizon.
  double RefreshOverheadFraction() const;

  bool operator==(const CampaignReport&) const = default;
};

/// Runs `setup.windows` base windows of `policy` against `truth` (the
/// actual per-row retention, before fault scaling) under the fault
/// schedule.  Detection feedback is wired automatically when `policy` is an
/// AdaptiveVrlPolicy.
CampaignReport RunCampaign(const model::RefreshModel& model,
                           const retention::RetentionProfile& truth,
                           dram::RefreshPolicy& policy,
                           FaultSchedule& faults,
                           const CampaignSetup& setup);

}  // namespace vrl::fault
