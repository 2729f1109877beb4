#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "core/vrl_system.hpp"
#include "dram/refresh_policy.hpp"

/// \file integrity.hpp
/// End-to-end data-integrity validation of a refresh schedule.
///
/// VRL-DRAM's entire safety argument is that the per-row MPRSF derived from
/// the analytical model guarantees no cell ever becomes unreadable.  The
/// IntegrityChecker closes the loop: it replays a refresh policy against
/// the *physics* (leakage per the row's profiled retention, restoration per
/// the analytical model including restore-truncation compounding) and
/// verifies that every refresh operation and every access finds the row
/// readable.
///
/// This is both a validation tool (tests assert VRL/VRL-Access schedules
/// are loss-free, and that deliberately exceeding MPRSF is not) and the
/// harness behind the VRT guardband ablation.

namespace vrl::core {

/// Outcome of replaying one policy schedule against the physics.
struct IntegrityReport {
  std::size_t refreshes_checked = 0;
  std::size_t partial_refreshes = 0;
  std::size_t failures = 0;           ///< Refreshes that found the row unreadable.
  std::size_t first_failed_row = 0;   ///< Valid when failures > 0.
  double first_failure_time_s = 0.0;  ///< Valid when failures > 0.
  double min_margin = 1.0;  ///< Lowest (fraction - readable threshold) seen.

  bool DataLost() const { return failures > 0; }
};

class IntegrityChecker {
 public:
  /// \param system      the configured system (profile + model + latencies).
  /// \param retention_scale multiplies every row's retention time during the
  ///        replay — 1.0 replays the profiled conditions; < 1.0 models
  ///        runtime degradation (temperature) beyond profiling.  Use
  ///        retention::TemperatureModel::RetentionScale to derive it.
  explicit IntegrityChecker(const VrlSystem& system,
                            double retention_scale = 1.0);

  /// Replays against an explicit runtime profile (e.g. a VRT snapshot from
  /// retention::WorstCaseRuntimeProfile), optionally also temperature
  /// scaled.  The profile must have one entry per row of the system.
  IntegrityChecker(const VrlSystem& system,
                   retention::RetentionProfile runtime_profile,
                   double retention_scale = 1.0);

  /// Replays `windows` base refresh windows of the registry policy `policy`
  /// with no intervening accesses and reports integrity.
  IntegrityReport Check(std::string_view policy, std::size_t windows) const;

  /// Replays a custom per-row MPRSF assignment (bypassing the system's
  /// table) — used to demonstrate that MPRSF + 1 partials lose data.
  IntegrityReport CheckWithMprsf(const std::vector<std::size_t>& mprsf,
                                 std::size_t windows) const;

 private:
  IntegrityReport Replay(dram::RefreshPolicy& policy,
                         std::size_t windows) const;

  /// Runtime retention of one row [s].
  double RuntimeRetention(std::size_t row) const;

  const VrlSystem& system_;
  double retention_scale_;
  std::optional<retention::RetentionProfile> runtime_profile_;
};

}  // namespace vrl::core
