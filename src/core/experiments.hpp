#pragma once

#include <functional>
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

  /// Aggregate telemetry sink (null = off).  Parallel drivers shard it per
  /// task (telemetry::ParallelForShards), so the merged snapshot — and any
  /// export of it — is bit-identical at every thread count.
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

/// Draws `workload` over `horizon` into per-bank streams mapped by the
/// system's geometry, from Rng(system seed ^ `salt`).  The default salt is
/// the suite's trace seed, so the Fig. 4 grid and the refresh tournament
/// replay the same requests.
dram::RequestStreams DrawWorkload(const VrlSystem& system,
                                  const trace::SyntheticWorkloadParams& workload,
                                  Cycles horizon,
                                  std::uint64_t salt = 0xABCD'1234ULL);

/// RAIDR, VRL and VRL-Access over one read-only draw of `workload` for
/// `horizon` (> 0) cycles: overheads, refresh power under `energy`, and
/// telemetry into `recorder` (may be null).  The body of RunWorkload,
/// RunEvaluationSuite and RunSweepPoint (core/sweep.hpp).
WorkloadResult RunWorkloadOn(const VrlSystem& system,
                             const trace::SyntheticWorkloadParams& workload,
                             const dram::RequestStreams& streams,
                             Cycles horizon,
                             const power::EnergyParams& energy,
                             telemetry::Recorder* recorder);

/// Runs one workload under RAIDR, VRL and VRL-Access for options.windows
/// base refresh windows and reports overheads plus refresh power.
WorkloadResult RunWorkload(const VrlSystem& system,
                           const trace::SyntheticWorkloadParams& workload,
                           const ExperimentOptions& options);

/// One fan-out over a grid of workloads on one system: task i draws
/// workloads[i] (DrawWorkload), calls legs(i, streams, shard) and frees
/// the draw, so only the draws in flight are resident.  Tasks are claimed
/// heaviest first (ascending mean_gap_cycles, ties in input order), so no
/// heavy workload starts last and leaves the other threads idle.  `legs`
/// fills slot i and records into shard i of `sink` (null = off), merged in
/// index order: no output depends on the order or on `threads`.
void RunWorkloadGrid(
    const VrlSystem& system,
    const std::vector<trace::SyntheticWorkloadParams>& workloads,
    Cycles horizon, telemetry::Recorder* sink, std::size_t threads,
    const std::function<void(std::size_t, const dram::RequestStreams&,
                             telemetry::Recorder*)>& legs);

/// Runs the full evaluation suite (Fig. 4): every PARSEC workload plus
/// bgsave, one RunWorkloadGrid task each, with bit-identical results —
/// including the merged telemetry — at any thread count.
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

/// The canonical leg order of RunResilienceComparison: JEDEC baseline,
/// plain `policy` (silent data loss), adaptive `policy`, each naming its
/// policy by the canonical registry name.  Exposed so `fault_campaign` can
/// run the legs one by one.
/// \throws vrl::ConfigError when `policy` is unknown or is JEDEC (nothing
/// to compare).
std::vector<ResilienceLeg> ResilienceLegs(std::string_view policy);

/// Runs one resilience leg: records the leg's own draw of the
/// FaultSchedule built from options.fault_seed and the VRT injector, and
/// campaigns it through the system.  Its report equals the same leg of
/// RunResilienceComparison.  `recorder` (may be null) receives the leg's
/// telemetry.
fault::CampaignReport RunResilienceLeg(const VrlSystem& system,
                                       const ResilienceLeg& leg,
                                       const retention::VrtParams& vrt,
                                       const ExperimentOptions& options,
                                       telemetry::Recorder* recorder);

/// The fault campaign's one fan-out: a telemetry::ParallelForShards over
/// `legs` + 1 items.  Item 0, claimed first, draws `schedule` over the
/// ticks of a `windows`-window campaign of `system` (a deferred
/// fault::FaultRecording); item i + 1 runs leg(i, recording, shard), which
/// replays the recording while it is drawn, each cursor waiting only for
/// blocks not yet published.  Items are claimed in index order, so a leg
/// waits only on a draw already running; at one thread, or nested, the
/// draw ends before the first leg starts.  Shards merge into `sink` in
/// index order (the draw's stays empty).  If the draw throws, every
/// waiting leg rethrows its error and so does this call.
/// \throws vrl::ConfigError for an invalid campaign setup, before any
/// item runs.
void RunFaultLegs(
    const VrlSystem& system, fault::FaultSchedule schedule,
    std::size_t windows, std::size_t legs, telemetry::Recorder* sink,
    std::size_t threads,
    const std::function<void(std::size_t, const fault::FaultRecording&,
                             telemetry::Recorder*)>& leg);

/// Runs the three-way comparison under VRT telegraph-noise injection
/// (options.fault_seed, options.windows).  Extra injectors can be layered
/// by building campaigns directly via VrlSystem::RunFaultCampaign.  The
/// fault realization is drawn once and replayed into every leg while it
/// is drawn (RunFaultLegs); each leg owns its campaign, telemetry shard
/// and report slot, so results are bit-identical across thread counts and
/// leg completion orders.
ResilienceResult RunResilienceComparison(const VrlSystem& system,
                                         std::string_view policy,
                                         const retention::VrtParams& vrt,
                                         const ExperimentOptions& options);

}  // namespace vrl::core
