#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"

/// \file watchdog.hpp
/// SloWatchdog — a declarative-threshold rules engine evaluating each
/// published MetricsSnapshot and driving the ok -> degraded -> failing
/// health state machine behind /healthz (docs/OBSERVABILITY.md).
///
/// Rules gate on *deltas between consecutive samples* (a long campaign's
/// lifetime failure rate would mask a fresh burst), with hysteresis in both
/// directions: a rule must breach on `breach_samples` consecutive samples
/// before the state degrades (and `fail_samples` before it fails), and
/// recover for `clear_samples` consecutive samples before the state steps
/// back up one level.  Every transition adds a kWatchdogTransition record
/// to the caller's lineage ring (cause "watchdog"), so alerts land in the
/// same audited ring as the simulator's own transitions.

namespace vrl::obs {

enum class HealthState : std::uint8_t { kOk, kDegraded, kFailing };

/// Stable machine-readable state name ("ok", "degraded", "failing").
std::string_view HealthStateName(HealthState state);

/// Declarative thresholds, all evaluated per sampling interval.  A
/// negative threshold disables its rule; the defaults disable everything,
/// so an empty rules file is a no-op watchdog.
struct WatchdogRules {
  /// Max detected sensing failures per refresh op issued in the interval
  /// (campaign.detected_failures / (policy.full_refreshes +
  /// policy.partial_refreshes) deltas).
  double max_sensing_failure_rate = -1.0;
  /// Max refresh-busy fraction of the interval's simulated progress
  /// (policy.refresh_busy_cycles delta / campaign.progress_cycles delta).
  double max_refresh_overhead = -1.0;
  /// Min partial-per-full refresh ratio in the interval — a collapse to
  /// full refreshes means VRL degraded to the JEDEC baseline.  Skipped in
  /// intervals with no full refreshes.
  double min_partial_full_ratio = -1.0;
  /// Max seconds since any watched counter last moved — a wedged or hung
  /// run stops publishing progress long before it exits.
  double max_staleness_s = -1.0;
  /// Consecutive breaching samples before ok -> degraded.
  std::size_t breach_samples = 2;
  /// Consecutive breaching samples before -> failing.
  std::size_t fail_samples = 4;
  /// Consecutive clean samples per one-level recovery step.
  std::size_t clear_samples = 2;

  /// \throws vrl::ConfigError on inconsistent hysteresis counts
  /// (breach_samples and clear_samples must be >= 1, fail_samples >=
  /// breach_samples).
  void Validate() const;
};

/// Parses a rules file: one flat JSON object whose keys are the
/// WatchdogRules field names with numeric values.  Key matching is
/// spelling-tolerant the same way dram::PolicyRegistry is: case and
/// '-'/'_' separators are ignored, so "max-staleness-s" works.  An
/// unknown key is a ConfigError listing every valid field name — a typo'd
/// threshold must not silently disable a rule.
/// \throws vrl::ConfigError on malformed input.
WatchdogRules ParseWatchdogRules(std::string_view json);

/// ParseWatchdogRules over the contents of `path`.
/// \throws vrl::ConfigError when the file cannot be read.
WatchdogRules LoadWatchdogRulesFile(const std::string& path);

/// The state machine.  Single-threaded like the Recorder it samples: the
/// driver calls Sample() between work, and MonitorServer only ever sees
/// the resulting state through its own publish lock.
class SloWatchdog {
 public:
  /// \throws vrl::ConfigError on invalid rules (WatchdogRules::Validate).
  explicit SloWatchdog(WatchdogRules rules);

  const WatchdogRules& rules() const { return rules_; }
  HealthState state() const { return state_; }

  /// Human-readable description of the most recent breaching rule
  /// (empty while no rule has ever breached).
  const std::string& last_breach() const { return last_breach_; }

  /// Evaluates every enabled rule on the delta between `snapshot` and the
  /// previous sample, advances the hysteresis counters, and returns the
  /// (possibly changed) health state.  `now_s` is the caller's monotonic
  /// clock, used only by the staleness rule.  When `alerts` is non-null,
  /// every state *transition* adds a kWatchdogTransition record (detail =
  /// new state ordinal, value = the breaching measure, 0 on recovery).
  HealthState Sample(const telemetry::MetricsSnapshot& snapshot, double now_s,
                     telemetry::Lineage* alerts = nullptr);

 private:
  WatchdogRules rules_;
  HealthState state_ = HealthState::kOk;
  std::size_t breach_count_ = 0;
  std::size_t clean_count_ = 0;
  std::string last_breach_;

  bool have_previous_ = false;
  double prev_detected_ = 0.0;
  double prev_fulls_ = 0.0;
  double prev_partials_ = 0.0;
  double prev_busy_ = 0.0;
  double prev_progress_ = 0.0;
  double last_activity_s_ = 0.0;
};

}  // namespace vrl::obs
