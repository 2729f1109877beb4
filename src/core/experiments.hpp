#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/vrl_system.hpp"
#include "power/power_model.hpp"
#include "trace/synthetic.hpp"

/// \file experiments.hpp
/// Shared drivers for the paper's trace-based experiments (Fig. 4 and the
/// refresh-power result), used by the benches and examples so the numbers
/// they report come from one code path.

namespace vrl::core {

/// Options shared by the experiment drivers below.  One struct instead of
/// positional parameters so call sites stay readable as knobs accumulate.
struct ExperimentOptions {
  /// Base refresh windows (64 ms each) each simulation covers.
  std::size_t windows = 8;

  /// Energy calibration for the refresh-power numbers (RunWorkload /
  /// RunEvaluationSuite).
  power::EnergyParams energy;

  /// Fault-schedule seed (RunResilienceComparison).
  std::uint64_t fault_seed = 0x5EED'F417ULL;

  /// Worker threads for the parallel drivers; 0 = DefaultThreadCount()
  /// (VRL_THREADS / hardware).  Results are bit-identical either way.
  std::size_t threads = 0;

  /// Aggregate telemetry sink.  Parallel drivers give every task its own
  /// shard (telemetry::ShardedRecorder) and merge the shards into this
  /// recorder in task-index order, so the merged snapshot — and any export
  /// of it — is bit-identical at every thread count.  Null means
  /// telemetry is off.
  telemetry::Recorder* telemetry = nullptr;
};

/// Result of running one workload under the three Fig. 4 policies.
struct WorkloadResult {
  std::string workload;
  double raidr_overhead = 0.0;       ///< Refresh cycles per bank.
  double vrl_overhead = 0.0;
  double vrl_access_overhead = 0.0;

  double raidr_refresh_power_mw = 0.0;
  double vrl_refresh_power_mw = 0.0;
  double vrl_access_refresh_power_mw = 0.0;

  double VrlNormalized() const { return vrl_overhead / raidr_overhead; }
  double VrlAccessNormalized() const {
    return vrl_access_overhead / raidr_overhead;
  }

  bool operator==(const WorkloadResult&) const = default;
};

/// Runs one workload under RAIDR, VRL and VRL-Access for options.windows
/// base refresh windows and reports overheads plus refresh power.
WorkloadResult RunWorkload(const VrlSystem& system,
                           const trace::SyntheticWorkloadParams& workload,
                           const ExperimentOptions& options);

/// Runs the full evaluation suite (Fig. 4): every PARSEC workload plus
/// bgsave.  Workloads run in parallel (common/parallel.hpp) with
/// bit-identical results — including the merged telemetry — at any thread
/// count.
std::vector<WorkloadResult> RunEvaluationSuite(
    const VrlSystem& system, const ExperimentOptions& options);

/// Geometric-mean-free average of the normalized overheads across results
/// (the paper reports arithmetic averages of normalized overhead).
struct SuiteAverages {
  double vrl = 0.0;
  double vrl_access = 0.0;
  double vrl_power = 0.0;         ///< Avg normalized refresh power of VRL.
  double vrl_access_power = 0.0;
};
SuiteAverages Average(const std::vector<WorkloadResult>& results);

// ---------------------------------------------------------------------------
// Fault-injection resilience comparison (docs/FAULTS.md)
// ---------------------------------------------------------------------------

/// The same fault realization (identical schedule seed and tick sequence)
/// replayed three ways: the JEDEC full-rate baseline, the plain policy
/// (no detection — failures are silent data loss), and the adaptive
/// wrapper (detection + degradation).
struct ResilienceResult {
  fault::CampaignReport jedec;
  fault::CampaignReport plain;
  fault::CampaignReport adaptive;

  /// Refresh-overhead cost of the adaptive scheme relative to the JEDEC
  /// baseline (< 1.0 means the VRL saving survived the faults).
  double AdaptiveOverheadVsJedec() const {
    return static_cast<double>(adaptive.refresh_busy_cycles) /
           static_cast<double>(jedec.refresh_busy_cycles);
  }
};

/// One leg of the three-way comparison — which policy (canonical registry
/// name) to replay the shared fault realization under, and whether the
/// adaptive wrapper is on.
struct ResilienceLeg {
  std::string policy;
  bool adaptive = false;
};

/// The canonical leg order of RunResilienceComparison: JEDEC baseline,
/// plain `policy` (silent data loss), adaptive `policy`.  Exposed so the
/// execution runtime (src/runtime/) can journal the legs one by one.
/// \throws vrl::ConfigError when `policy` is unknown or is JEDEC (nothing
/// to compare).
std::vector<ResilienceLeg> ResilienceLegs(std::string_view policy);

/// Runs one resilience leg: builds the leg's own FaultSchedule from
/// options.fault_seed (so every leg replays the identical fault trace) and
/// the VRT injector, and campaigns it through the system.  `recorder` (may
/// be null) receives the leg's telemetry.
fault::CampaignReport RunResilienceLeg(const VrlSystem& system,
                                       const ResilienceLeg& leg,
                                       const retention::VrtParams& vrt,
                                       const ExperimentOptions& options,
                                       telemetry::Recorder* recorder);

/// Runs the three-way comparison under VRT telegraph-noise injection
/// (options.fault_seed, options.windows).  Extra injectors can be layered
/// by building campaigns directly via VrlSystem::RunFaultCampaign.  The
/// three legs run as parallel tasks, each owning its schedule, options,
/// telemetry shard and report slot; results are bit-identical across
/// thread counts and leg completion orders.
ResilienceResult RunResilienceComparison(const VrlSystem& system,
                                         std::string_view policy,
                                         const retention::VrtParams& vrt,
                                         const ExperimentOptions& options);

}  // namespace vrl::core
