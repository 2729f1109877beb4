#include "core/integrity.hpp"

#include <utility>

#include "common/error.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"

namespace vrl::core {
namespace {

/// `profile` with every row's retention multiplied by `scale`.
retention::RetentionProfile Scaled(const retention::RetentionProfile& profile,
                                   double scale) {
  if (scale <= 0.0) {
    throw ConfigError("IntegrityChecker: retention scale must be positive");
  }
  std::vector<double> retention = profile.row_retention();
  for (double& t : retention) {
    t *= scale;
  }
  return retention::RetentionProfile(std::move(retention));
}

}  // namespace

IntegrityChecker::IntegrityChecker(const VrlSystem& system,
                                   double retention_scale)
    : system_(system), runtime_(Scaled(system.profile(), retention_scale)) {}

IntegrityChecker::IntegrityChecker(const VrlSystem& system,
                                   retention::RetentionProfile runtime_profile,
                                   double retention_scale)
    : system_(system), runtime_(Scaled(runtime_profile, retention_scale)) {
  if (runtime_.rows() != system_.profile().rows()) {
    throw ConfigError(
        "IntegrityChecker: runtime profile row count mismatch");
  }
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
  // A campaign with no injector: every row's fault scale is exactly 1.0,
  // so each op senses its row at the runtime retention itself.  A failed
  // sense restores the row so further failures count distinctly.
  const fault::CampaignSetup setup = system_.CampaignSetupFor(windows);
  const fault::FaultRecording no_faults(fault::FaultSchedule{}, setup.Ticks(),
                                        runtime_.rows());
  const fault::CampaignReport campaign = fault::RunCampaign(
      system_.refresh_model(), runtime_, policy, no_faults, setup);

  IntegrityReport report;
  report.refreshes_checked = campaign.refreshes;
  report.partial_refreshes = campaign.partial_refreshes;
  report.failures = campaign.detected_failures;
  if (!campaign.events.empty()) {
    report.first_failed_row = campaign.events.front().row;
    report.first_failure_time_s = campaign.events.front().at_s;
  }
  report.min_margin = campaign.min_margin;
  return report;
}

}  // namespace vrl::core
