#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/technology.hpp"
#include "common/units.hpp"
#include "dram/controller.hpp"
#include "dram/policy_registry.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/timing.hpp"
#include "dram/timing_table.hpp"
#include "fault/adaptive_policy.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "model/refresh_model.hpp"
#include "retention/distribution.hpp"
#include "retention/mprsf.hpp"
#include "retention/profile.hpp"
#include "telemetry/recorder.hpp"
#include "trace/address.hpp"

/// \file vrl_system.hpp
/// The top-level VRL-DRAM system: one object that wires the analytical
/// refresh model, the retention profile, the MPRSF table and the bank
/// simulator together — the library's primary public entry point.
///
/// Typical use (see examples/quickstart.cpp):
///
///   vrl::core::VrlConfig config;            // defaults follow the paper
///   vrl::core::VrlSystem system(config);
///   auto trace = ...;                        // trace::GenerateTrace or file
///   auto stats = system.Simulate("VRL-Access", trace, horizon_cycles);
///   double overhead = stats.RefreshOverheadPerBank();

namespace vrl::core {

/// A refresh policy is named by its dram::PolicyRegistry name; every API
/// below takes any spelling the registry accepts.  This alias exists only
/// so the performance ledger (bench/ledger/vrl_bench.cpp) compiles as is.
using PolicyKind = std::string;

/// The canonical registry name for `name` (PolicyRegistry::Get(name).name).
/// Exists only for the performance ledger (bench/ledger/vrl_bench.cpp).
/// \throws vrl::ConfigError on an unknown name.
std::string PolicyFromName(std::string_view name);

/// One fault-campaign leg (VrlSystem::RunFaultCampaign): the registry
/// policy replaying the fault recording, and whether the adaptive wrapper
/// detects and degrades; a plain leg loses data silently on every failure.
struct ResilienceLeg {
  std::string policy;
  bool adaptive = false;
};

/// Everything needed to build a VrlSystem.  Defaults reproduce the paper's
/// evaluation setup: an 8192x32 bank at 90 nm, 64/128/192/256 ms retention
/// bins, and nbits = 2 counters.
struct VrlConfig {
  TechnologyParams tech;                   ///< 90 nm array parameters.
  model::RefreshModel::Spec spec;          ///< Refresh model calibration.
  dram::TimingParams timing;               ///< Command timing.
  retention::RetentionDistributionParams retention;  ///< Fig. 3a shape.

  std::size_t banks = 8;      ///< Banks simulated (traces spread over them).
  std::size_t nbits = 2;      ///< Counter width; caps MPRSF at 2^nbits - 1.
  std::uint64_t seed = 42;    ///< Profiling Monte-Carlo seed.

  /// Timing-table preset the controller runs under.  The default degenerate
  /// preset reproduces the flat model byte-for-byte; the hardware presets
  /// (DDR3_1600, DDR4_2400, LPDDR4_3200) bring their own topology — set
  /// them via ApplyPreset so `banks` tracks the topology's bank count.
  dram::TimingPreset preset = dram::TimingPreset::kSingleBankEquivalent;

  /// Request scheduling discipline of the memory controller.
  dram::SchedulerKind scheduler = dram::SchedulerKind::kFcfs;

  /// Row-buffer management of the banks.
  dram::RowBufferPolicy page_policy = dram::RowBufferPolicy::kOpenPage;

  /// Subarrays per bank (SALP-style refresh-access parallelism; 1 =
  /// conventional bank).
  std::size_t subarrays = 1;

  /// Spare physical rows available for remapping.  Rows whose
  /// guardband-derated retention falls below the base refresh period (the
  /// rows a guardband cannot protect) are remapped to the strongest spares,
  /// strongest spare to weakest data row first.  0 disables remapping.
  std::size_t spare_rows = 0;

  /// Retention guardband applied when *planning* (binning + MPRSF): the
  /// controller assumes each row retains only retention/guardband, covering
  /// runtime degradation beyond profiling (temperature, VRT — see
  /// retention/temperature.hpp and retention/vrt.hpp).  1.0 = trust the
  /// profile exactly, as the paper does.  Rows whose guarded retention
  /// falls below the base 64 ms period are planned at the base period
  /// (profiling already guarantees they retain at least that long at
  /// profiling conditions).
  double retention_guardband = 1.0;

  /// Maximum MPRSF representable with the configured counter width.
  std::size_t MprsfCap() const { return (std::size_t{1} << nbits) - 1; }

  /// Selects a preset and syncs `banks` to its topology (the degenerate
  /// preset keeps the current bank count).
  void ApplyPreset(dram::TimingPreset p);

  /// The timing table Simulate() hands the controller: the preset's
  /// topology and inter-bank constraints over this config's core `timing`.
  dram::TimingTable TimingTableFor() const;

  void Validate() const;
};

class VrlSystem {
 public:
  /// Builds the system with an internally generated Monte-Carlo retention
  /// profile (config.seed, config.retention).
  explicit VrlSystem(const VrlConfig& config);

  /// Builds the system from an externally supplied profile — e.g. one
  /// measured by retention::MeasureProfile or loaded from real profiling
  /// data.  The profile must have config.tech.rows entries.
  VrlSystem(const VrlConfig& config, retention::RetentionProfile profile);

  const VrlConfig& config() const { return config_; }
  const model::RefreshModel& refresh_model() const { return *model_; }
  const retention::RetentionProfile& profile() const { return *profile_; }
  const retention::BinningResult& binning() const { return binning_; }

  /// Per-row MPRSF, already capped to the counter width.
  const std::vector<std::size_t>& row_mprsf() const { return row_mprsf_; }

  /// Rows whose guardband-derated retention fell below the base refresh
  /// period and were clamped to it (see VrlConfig::retention_guardband):
  /// these rows are *not* protected by the guardband — at runtime
  /// conditions matching the full derating they need faster-than-base
  /// refresh or remapping (ECC/spare rows).  Counted after remapping.
  std::size_t guardband_clamped_rows() const { return clamped_rows_; }

  /// Rows remapped to spares (see VrlConfig::spare_rows).
  std::size_t remapped_rows() const { return remapped_rows_; }

  /// Refresh latencies from the analytical model, in cycles.
  Cycles TauFullCycles() const { return tau_full_.trfc(); }
  Cycles TauPartialCycles() const { return tau_partial_.trfc(); }
  const model::TimingBreakdown& FullTimings() const { return tau_full_; }
  const model::TimingBreakdown& PartialTimings() const { return tau_partial_; }

  /// Address geometry matching the configured bank layout.
  trace::AddressGeometry Geometry() const;

  /// Factory building a fresh per-bank instance of the registry policy
  /// `policy`.  \throws vrl::ConfigError on an unknown name.
  dram::PolicyFactory MakePolicyFactory(std::string_view policy) const;

  /// Runs a full simulation of `requests` (arrival-sorted) under the
  /// registry policy `policy` for `horizon` cycles.  `recorder`, when
  /// non-null, receives the run's telemetry.  Parallel drivers pass a
  /// per-task recorder — never share one across threads
  /// (telemetry::ShardedRecorder).
  /// `audit`, when non-null, additionally records every DRAM command the
  /// run issues (PRE/ACT/RD/WR/REF) for dram::TimingAuditor replay.  The
  /// commands are appended after any already in `audit`; the run's log is
  /// handed over, not copied (MemoryController::TakeAuditLog).
  dram::SimulationStats Simulate(std::string_view policy,
                                 const std::vector<dram::Request>& requests,
                                 Cycles horizon,
                                 telemetry::Recorder* recorder = nullptr,
                                 dram::CommandLog* audit = nullptr) const;

  /// Simulate over requests already split into per-bank streams
  /// (trace::GenerateStreams with this system's Geometry()), which the run
  /// only reads: the runs of several policies share one draw.
  dram::SimulationStats SimulateStreams(
      std::string_view policy, const dram::RequestStreams& streams,
      Cycles horizon, telemetry::Recorder* recorder = nullptr,
      dram::CommandLog* audit = nullptr) const;

  /// Convenience: simulation horizon covering `windows` base refresh
  /// windows (64 ms each).  \throws vrl::ConfigError when it does not fit
  /// in Cycles.
  Cycles HorizonForWindows(std::size_t windows) const;

  /// The fault::RunCampaign setup of this system for `windows` base
  /// windows: its clock, tREFI, base window and τpost budgets, telemetry
  /// off.  RunFaultCampaign and core::IntegrityChecker replay through it.
  fault::CampaignSetup CampaignSetupFor(std::size_t windows) const;

  /// Runs one fault-injection campaign leg (see fault/campaign.hpp): one
  /// bank of this system, refreshed by `leg.policy` (wrapped in
  /// fault::AdaptiveVrlPolicy when leg.adaptive), replayed against the
  /// physics for the windows `faults` was recorded over (RecordFaults).
  /// `recorder` (null = telemetry off; one per parallel leg) receives the
  /// campaign's metrics and failure events.  \throws vrl::ConfigError
  /// when `faults` is not a recording of this system's campaign ticks.
  fault::CampaignReport RunFaultCampaign(
      const ResilienceLeg& leg, const fault::FaultRecording& faults,
      telemetry::Recorder* recorder = nullptr) const;

  /// Draws `schedule`'s fault realization once over the ticks of a
  /// `windows`-window campaign of this system, for any number of
  /// RunFaultCampaign legs of that length.
  /// \throws vrl::ConfigError for an invalid campaign setup.
  fault::FaultRecording RecordFaults(fault::FaultSchedule schedule,
                                     std::size_t windows) const;

 private:
  /// Shared construction tail: plan (guardband, spares, binning, MPRSF)
  /// from a concrete profile.
  void InitializeFromProfile(retention::RetentionProfile profile);

  /// The row plan `info`'s builder consumes (PolicyInfo::plan), built from
  /// this system's binning and MPRSF; empty for RowPlanKind::kNone.
  dram::RowRefreshPlan PlanFor(const dram::PolicyInfo& info) const;

  VrlConfig config_;
  std::unique_ptr<model::RefreshModel> model_;
  std::unique_ptr<retention::RetentionProfile> profile_;
  retention::BinningResult binning_;
  std::vector<std::size_t> row_mprsf_;
  std::size_t clamped_rows_ = 0;
  std::size_t remapped_rows_ = 0;
  model::TimingBreakdown tau_full_;
  model::TimingBreakdown tau_partial_;
};

}  // namespace vrl::core
