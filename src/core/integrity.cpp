#include "core/integrity.hpp"

#include "common/error.hpp"
#include "dram/scheduler.hpp"
#include "fault/charge_tracker.hpp"

namespace vrl::core {

IntegrityChecker::IntegrityChecker(const VrlSystem& system,
                                   double retention_scale)
    : system_(system), retention_scale_(retention_scale) {
  if (retention_scale_ <= 0.0) {
    throw ConfigError("IntegrityChecker: retention scale must be positive");
  }
}

IntegrityChecker::IntegrityChecker(const VrlSystem& system,
                                   retention::RetentionProfile runtime_profile,
                                   double retention_scale)
    : system_(system),
      retention_scale_(retention_scale),
      runtime_profile_(std::move(runtime_profile)) {
  if (retention_scale_ <= 0.0) {
    throw ConfigError("IntegrityChecker: retention scale must be positive");
  }
  if (runtime_profile_->rows() != system_.profile().rows()) {
    throw ConfigError(
        "IntegrityChecker: runtime profile row count mismatch");
  }
}

double IntegrityChecker::RuntimeRetention(std::size_t row) const {
  const auto& profile =
      runtime_profile_.has_value() ? *runtime_profile_ : system_.profile();
  return profile.RowRetention(row) * retention_scale_;
}

IntegrityReport IntegrityChecker::Check(std::string_view policy,
                                        std::size_t windows) const {
  return Replay(*system_.MakePolicyFactory(policy)(), windows);
}

IntegrityReport IntegrityChecker::CheckWithMprsf(
    const std::vector<std::size_t>& mprsf, std::size_t windows) const {
  const auto plan = dram::MakeRefreshPlan(
      system_.binning(), system_.config().tech.clock_period_s, mprsf);
  dram::VrlPolicy policy(plan, system_.TauFullCycles(),
                         system_.TauPartialCycles());
  return Replay(policy, windows);
}

IntegrityReport IntegrityChecker::Replay(dram::RefreshPolicy& policy,
                                         std::size_t windows) const {
  if (windows == 0) {
    throw ConfigError("IntegrityChecker: need at least one window");
  }
  const auto& model = system_.refresh_model();
  const std::size_t rows = system_.profile().rows();
  if (policy.rows() != rows) {
    throw ConfigError("IntegrityChecker: policy row count mismatch");
  }

  // The per-row physics (leakage, sensing, restore-truncation compounding)
  // lives in the shared charge tracker, the same code path the online
  // failure monitor (fault::RunCampaign) replays through.
  fault::ChargeTracker tracker(model, rows);

  IntegrityReport report;
  const double clock = system_.config().tech.clock_period_s;
  const Cycles horizon = system_.HorizonForWindows(windows);
  const Cycles t_refi = system_.config().timing.t_refi;

  for (Cycles tick = 0; tick <= horizon; tick += t_refi) {
    const double now_s = CyclesToSeconds(tick, clock);
    // Propose/grant with no bank context: every proposal is granted on the
    // tick it is proposed, so the checker audits each policy's schedule
    // without demand-driven deferral.
    dram::RefreshGrantContext grant_ctx;
    grant_ctx.now = tick;
    grant_ctx.demand.now = tick;
    for (const auto& op : dram::GrantRefreshes(policy, grant_ctx)) {
      const double budget_s =
          op.is_full ? system_.FullTimings().tau_post_s
                     : system_.PartialTimings().tau_post_s;
      const auto sense = tracker.Refresh(op.row, now_s,
                                         RuntimeRetention(op.row),
                                         op.is_full, budget_s);

      ++report.refreshes_checked;
      if (!op.is_full) {
        ++report.partial_refreshes;
      }
      if (!sense.sense_ok) {
        if (report.failures == 0) {
          report.first_failed_row = op.row;
          report.first_failure_time_s = now_s;
        }
        ++report.failures;
        // The data is gone; model the (wrong) restore as a fresh full level
        // so the replay can continue counting further failures distinctly.
        tracker.Restore(op.row, now_s);
      }
    }
  }
  report.min_margin = tracker.min_margin();
  return report;
}

}  // namespace vrl::core
