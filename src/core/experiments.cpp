#include "core/experiments.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "dram/policy_registry.hpp"

namespace vrl::core {
namespace {

/// RunWorkload body with an explicit recorder, so the parallel suite can
/// hand each task its own shard.  `recorder` may be null (telemetry off).
WorkloadResult RunWorkloadInto(const VrlSystem& system,
                               const trace::SyntheticWorkloadParams& workload,
                               const ExperimentOptions& options,
                               telemetry::Recorder* recorder) {
  if (options.windows == 0) {
    throw ConfigError("RunWorkload: need at least one refresh window");
  }
  const Cycles horizon = system.HorizonForWindows(options.windows);
  // The trace is drawn straight into per-bank streams once: the three
  // policies share the one read-only draw.
  const dram::RequestStreams streams = [&] {
    Rng rng(system.config().seed ^ 0xABCD'1234ULL);
    return trace::GenerateStreams(
        workload, trace::AddressMapper(system.Geometry()), horizon, rng);
  }();

  const power::PowerModel power_model(options.energy,
                                      system.config().tech.clock_period_s);

  WorkloadResult result;
  result.workload = workload.name;

  // The workload span parents the controller runs' bank spans (the tracer's
  // open-span stack), so the trace keeps the driver → run → bank hierarchy.
  telemetry::Tracer* tracer = recorder == nullptr ? nullptr : recorder->tracer();
  const telemetry::SpanId workload_span =
      tracer == nullptr
          ? telemetry::SpanId{0}
          : tracer->BeginSpan("workload:" + workload.name, 0, 0, 0,
                              static_cast<std::int64_t>(streams.size()));

  const auto raidr =
      system.SimulateStreams("RAIDR", streams, horizon, recorder);
  result.raidr_overhead = raidr.RefreshOverheadPerBank();
  result.raidr_refresh_power_mw =
      power_model.Compute(raidr).refresh_power_mw;

  const auto vrl = system.SimulateStreams("VRL", streams, horizon, recorder);
  result.vrl_overhead = vrl.RefreshOverheadPerBank();
  result.vrl_refresh_power_mw = power_model.Compute(vrl).refresh_power_mw;

  const auto vrl_access =
      system.SimulateStreams("VRL-Access", streams, horizon, recorder);
  result.vrl_access_overhead = vrl_access.RefreshOverheadPerBank();
  result.vrl_access_refresh_power_mw =
      power_model.Compute(vrl_access).refresh_power_mw;

  if (tracer != nullptr) {
    tracer->EndSpan(workload_span, horizon);
  }
  if (recorder != nullptr) {
    recorder->counter("suite.workloads").Add();
  }
  return result;
}

}  // namespace

WorkloadResult RunWorkload(const VrlSystem& system,
                           const trace::SyntheticWorkloadParams& workload,
                           const ExperimentOptions& options) {
  return RunWorkloadInto(system, workload, options, options.telemetry);
}

std::vector<WorkloadResult> RunEvaluationSuite(
    const VrlSystem& system, const ExperimentOptions& options) {
  // One task per workload: RunWorkload builds all of its mutable state
  // (trace RNG, controller, power model) locally and only reads the shared
  // const system, so the suite parallelizes bit-identically.  Telemetry
  // follows the same contract: task i writes only shard i, and the shards
  // merge into the sink in index order after the fan-out.
  const auto suite = trace::EvaluationSuite();
  std::vector<WorkloadResult> results(suite.size());
  std::unique_ptr<telemetry::ShardedRecorder> shards;
  if (options.telemetry != nullptr) {
    shards = std::make_unique<telemetry::ShardedRecorder>(
        suite.size(), options.telemetry->options());
  }
  // Heaviest first: a workload's requests, and so its run time, grow as its
  // mean gap shrinks, so the tasks are claimed in ascending mean gap (ties
  // in suite order).  Otherwise the heaviest (bgsave, last in the suite)
  // starts last and leaves the other threads idle at the end.  The order
  // only decides which task a thread takes next: results land in slot i
  // and shards merge in index order, so no output depends on it.
  std::vector<std::size_t> order(suite.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return suite[a].mean_gap_cycles <
                            suite[b].mean_gap_cycles;
                   });
  ParallelFor(
      "evaluation_suite", suite.size(),
      [&](std::size_t k) {
        const std::size_t i = order[k];
        results[i] = RunWorkloadInto(system, suite[i], options,
                                     shards ? &shards->shard(i) : nullptr);
      },
      options.threads);
  if (shards) {
    shards->MergeInto(*options.telemetry);
  }
  return results;
}

std::vector<ResilienceLeg> ResilienceLegs(std::string_view policy) {
  const std::string& name = dram::PolicyRegistry::Global().Get(policy).name;
  if (name == "JEDEC") {
    throw ConfigError(
        "pick a retention-aware policy (JEDEC is the baseline every leg "
        "compares against)");
  }
  return {
      {"JEDEC", false},
      {name, false},
      {name, true},
  };
}

namespace {

/// The VRT schedule every resilience leg runs under.
fault::FaultSchedule VrtSchedule(const retention::VrtParams& vrt,
                                 const ExperimentOptions& options) {
  fault::FaultSchedule faults(options.fault_seed);
  faults.Add(std::make_unique<fault::VrtFlipInjector>(vrt));
  return faults;
}

}  // namespace

fault::CampaignReport RunResilienceLeg(
    const VrlSystem& system, const ResilienceLeg& leg,
    const retention::VrtParams& vrt, const ExperimentOptions& options,
    telemetry::Recorder* recorder) {
  // The leg records its own draw of the schedule every leg shares, so it
  // sees the realization RunResilienceComparison records once.
  return system.RunFaultCampaign(
      leg, system.RecordFaults(VrtSchedule(vrt, options), options.windows),
      recorder);
}

ResilienceResult RunResilienceComparison(const VrlSystem& system,
                                         std::string_view policy,
                                         const retention::VrtParams& vrt,
                                         const ExperimentOptions& options) {
  // The fault realization is drawn once, before the fan-out, and every leg
  // replays the read-only recording into its own campaign and report slot;
  // telemetry is per-leg sharded and merged in leg order, like the suite.
  const std::vector<ResilienceLeg> legs = ResilienceLegs(policy);
  const fault::FaultRecording recording =
      system.RecordFaults(VrtSchedule(vrt, options), options.windows);
  ResilienceResult result;
  fault::CampaignReport* const outs[] = {&result.jedec, &result.plain,
                                         &result.adaptive};
  std::unique_ptr<telemetry::ShardedRecorder> shards;
  if (options.telemetry != nullptr) {
    shards = std::make_unique<telemetry::ShardedRecorder>(
        legs.size(), options.telemetry->options());
  }
  ParallelFor(
      "resilience_comparison", legs.size(),
      [&](std::size_t i) {
        *outs[i] = system.RunFaultCampaign(
            legs[i], recording, shards ? &shards->shard(i) : nullptr);
      },
      options.threads);
  if (shards) {
    shards->MergeInto(*options.telemetry);
  }
  return result;
}

SuiteAverages Average(const std::vector<WorkloadResult>& results) {
  SuiteAverages avg;
  if (results.empty()) {
    return avg;
  }
  for (const auto& r : results) {
    avg.vrl += r.VrlNormalized();
    avg.vrl_access += r.VrlAccessNormalized();
    avg.vrl_power += r.vrl_refresh_power_mw / r.raidr_refresh_power_mw;
    avg.vrl_access_power +=
        r.vrl_access_refresh_power_mw / r.raidr_refresh_power_mw;
  }
  const auto n = static_cast<double>(results.size());
  avg.vrl /= n;
  avg.vrl_access /= n;
  avg.vrl_power /= n;
  avg.vrl_access_power /= n;
  return avg;
}

}  // namespace vrl::core
