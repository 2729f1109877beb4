#include "core/vrl_system.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vrl::core {

std::string PolicyFromName(std::string_view name) {
  return dram::PolicyRegistry::Global().Get(name).name;
}

void VrlConfig::ApplyPreset(dram::TimingPreset p) {
  preset = p;
  banks = dram::MakeTimingTable(p, banks).topology.TotalBanks();
}

dram::TimingTable VrlConfig::TimingTableFor() const {
  dram::TimingTable table = dram::MakeTimingTable(preset, banks);
  table.core = timing;
  return table;
}

void VrlConfig::Validate() const {
  tech.Validate();
  timing.Validate();
  if (banks == 0) {
    throw ConfigError("VrlConfig: need at least one bank");
  }
  if (preset != dram::TimingPreset::kSingleBankEquivalent &&
      banks != dram::MakeTimingTable(preset).topology.TotalBanks()) {
    throw ConfigError(
        "VrlConfig: banks does not match the preset's topology (use "
        "ApplyPreset to keep them in sync)");
  }
  if (nbits == 0 || nbits > 8) {
    throw ConfigError("VrlConfig: nbits must be in [1, 8]");
  }
  if (retention_guardband < 1.0) {
    throw ConfigError("VrlConfig: retention guardband must be >= 1");
  }
}

VrlSystem::VrlSystem(const VrlConfig& config) : config_(config) {
  config_.Validate();
  // Profile the bank (the paper assumes profiling data is available; see
  // retention/profile.hpp).
  Rng rng(config_.seed);
  const retention::RetentionDistribution dist(config_.retention);
  InitializeFromProfile(retention::RetentionProfile::Generate(
      dist, config_.tech.rows, config_.tech.columns, rng));
}

VrlSystem::VrlSystem(const VrlConfig& config,
                     retention::RetentionProfile profile)
    : config_(config) {
  config_.Validate();
  if (profile.rows() != config_.tech.rows) {
    throw ConfigError(
        "VrlSystem: external profile row count does not match the bank");
  }
  InitializeFromProfile(std::move(profile));
}

void VrlSystem::InitializeFromProfile(retention::RetentionProfile profile) {
  model_ = std::make_unique<model::RefreshModel>(config_.tech, config_.spec);
  tau_full_ = model_->FullRefreshTimings();
  tau_partial_ = model_->PartialRefreshTimings();
  profile_ =
      std::make_unique<retention::RetentionProfile>(std::move(profile));

  // Spare sampling continues the profiling RNG stream deterministically.
  Rng rng(config_.seed ^ 0x51A7E5ULL);
  const retention::RetentionDistribution dist(config_.retention);

  const auto periods = retention::StandardBinPeriods();

  // Spare-row remapping: rows the guardband cannot protect (derated
  // retention below the base period) are moved to the strongest spares.
  if (config_.spare_rows > 0) {
    std::vector<double> spares(config_.spare_rows);
    for (auto& spare : spares) {
      spare = dist.SampleRowRetention(rng, config_.tech.columns);
    }
    std::sort(spares.begin(), spares.end());  // ascending; strongest last

    // Weakest data rows first.
    std::vector<std::size_t> order(profile_->rows());
    for (std::size_t r = 0; r < order.size(); ++r) {
      order[r] = r;
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return profile_->RowRetention(a) < profile_->RowRetention(b);
    });

    std::vector<double> remapped = profile_->row_retention();
    for (const std::size_t row : order) {
      const double derated =
          remapped[row] / config_.retention_guardband;
      if (derated >= periods.front() || spares.empty()) {
        continue;
      }
      const double spare = spares.back();
      // A spare only helps if it clears the guardband itself and improves
      // on the row it replaces; once the strongest remaining spare fails
      // that, all remaining spares do.
      if (spare <= remapped[row] ||
          spare / config_.retention_guardband < periods.front()) {
        break;
      }
      spares.pop_back();
      remapped[row] = spare;
      ++remapped_rows_;
    }
    profile_ = std::make_unique<retention::RetentionProfile>(
        std::move(remapped));
  }

  // Planning view of the profile: derated by the retention guardband,
  // clamped at the base refresh period (see VrlConfig::retention_guardband).
  std::vector<double> planned(profile_->rows());
  for (std::size_t r = 0; r < planned.size(); ++r) {
    const double derated =
        profile_->RowRetention(r) / config_.retention_guardband;
    if (derated < periods.front()) {
      ++clamped_rows_;
    }
    planned[r] = std::max(derated, periods.front());
  }
  const retention::RetentionProfile planning_profile(std::move(planned));

  binning_ = retention::BinRows(planning_profile, periods);

  // MPRSF per row via the analytical model, capped by the counter width.
  const retention::MprsfCalculator calc(*model_, tau_partial_.tau_post_s);
  row_mprsf_ =
      calc.ComputeRowMprsf(planning_profile, binning_, config_.MprsfCap());
}

trace::AddressGeometry VrlSystem::Geometry() const {
  trace::AddressGeometry g;
  g.banks = config_.banks;
  g.rows = config_.tech.rows;
  g.columns = config_.tech.columns;
  return g;
}

dram::RowRefreshPlan VrlSystem::PlanFor(const dram::PolicyInfo& info) const {
  const double clock = config_.tech.clock_period_s;
  switch (info.plan) {
    case dram::RowPlanKind::kNone:
      break;
    case dram::RowPlanKind::kBinned:
      return dram::MakeRefreshPlan(binning_, clock);
    case dram::RowPlanKind::kMprsf:
      return dram::MakeRefreshPlan(binning_, clock, row_mprsf_);
  }
  return {};
}

dram::PolicyFactory VrlSystem::MakePolicyFactory(
    std::string_view policy) const {
  // The context only carries the plan the policy's builder consumes.  The
  // registry is static, so the closure holds its entry, not a name lookup.
  const dram::PolicyInfo* info = &dram::PolicyRegistry::Global().Get(policy);
  dram::PolicyBuildContext ctx;
  ctx.rows = config_.tech.rows;
  ctx.base_window = config_.timing.t_refw;
  ctx.t_refi = config_.timing.t_refi;
  ctx.trfc_full = TauFullCycles();
  ctx.trfc_partial = TauPartialCycles();
  (info->plan == dram::RowPlanKind::kMprsf ? ctx.vrl_plan : ctx.binned_plan) =
      PlanFor(*info);
  return [ctx, info]() { return info->make(ctx); };
}

dram::SimulationStats VrlSystem::Simulate(
    std::string_view policy, const std::vector<dram::Request>& requests,
    Cycles horizon, telemetry::Recorder* recorder,
    dram::CommandLog* audit) const {
  return SimulateStreams(
      policy, dram::RequestStreams(requests, config_.banks, config_.tech.rows),
      horizon, recorder, audit);
}

dram::SimulationStats VrlSystem::SimulateStreams(
    std::string_view policy, const dram::RequestStreams& streams,
    Cycles horizon, telemetry::Recorder* recorder,
    dram::CommandLog* audit) const {
  dram::MemoryController controller(config_.TimingTableFor(),
                                    config_.tech.rows,
                                    MakePolicyFactory(policy),
                                    config_.scheduler, config_.page_policy,
                                    config_.subarrays);
  if (recorder != nullptr) {
    controller.AttachTelemetry(recorder);
  }
  if (audit != nullptr) {
    controller.EnableAudit();
  }
  auto stats = controller.RunStreams(streams, horizon);
  if (audit != nullptr) {
    audit->AppendLog(controller.TakeAuditLog());
  }
  return stats;
}

Cycles VrlSystem::HorizonForWindows(std::size_t windows) const {
  return WindowsToCycles(config_.timing.t_refw, windows);
}

fault::CampaignSetup VrlSystem::CampaignSetupFor(std::size_t windows) const {
  fault::CampaignSetup setup;
  setup.clock_period_s = config_.tech.clock_period_s;
  setup.t_refi = config_.timing.t_refi;
  setup.base_window = config_.timing.t_refw;
  setup.windows = windows;
  setup.tau_post_full_s = tau_full_.tau_post_s;
  setup.tau_post_partial_s = tau_partial_.tau_post_s;
  return setup;
}

fault::FaultRecording VrlSystem::RecordFaults(fault::FaultSchedule schedule,
                                              std::size_t windows) const {
  return fault::FaultRecording(std::move(schedule),
                               CampaignSetupFor(windows).Ticks(),
                               profile_->rows());
}

fault::CampaignReport VrlSystem::RunFaultCampaign(
    const ResilienceLeg& leg, const fault::FaultRecording& faults,
    telemetry::Recorder* recorder) const {
  // The campaign runs the tREFW windows up to the recording's last tick,
  // rounded up: the N that RecordFaults(schedule, N) recorded.  Ticks of
  // another tREFI or clock set up a campaign RunCampaign's entry check
  // refuses.
  const fault::TickSequence& ticks = faults.ticks();
  const Cycles last = ticks.count == 0 ? 0 : ticks.cycle(ticks.count - 1);
  const Cycles t_refw = config_.timing.t_refw;
  fault::CampaignSetup setup =
      CampaignSetupFor(last / t_refw + (last % t_refw != 0));
  setup.telemetry = recorder;

  const dram::PolicyInfo& info =
      dram::PolicyRegistry::Global().Get(leg.policy);
  auto inner = MakePolicyFactory(info.name)();
  if (!leg.adaptive) {
    return fault::RunCampaign(*model_, *profile_, *inner, faults, setup);
  }

  // Base plan the demotion ladder starts from: the retention-aware policies
  // start from the plan they consume.  Base-window schedules (JEDEC, and
  // DARP/SARP, which reschedule *when* a refresh lands, not how often) set
  // every row to t_refw: a binned period would *lengthen* the schedule.
  dram::RowRefreshPlan plan = PlanFor(info);
  if (info.plan == dram::RowPlanKind::kNone) {
    plan.period_cycles.assign(config_.tech.rows, config_.timing.t_refw);
  }
  fault::AdaptiveVrlPolicy adaptive(
      std::move(inner), std::move(plan), TauFullCycles(),
      TauPartialCycles(), config_.timing.t_refw, config_.timing.t_refi);
  return fault::RunCampaign(*model_, *profile_, adaptive, faults, setup);
}

}  // namespace vrl::core
