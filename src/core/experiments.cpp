#include "core/experiments.hpp"

#include <iterator>

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
  Rng rng(system.config().seed ^ 0xABCD'1234ULL);
  const auto records =
      trace::GenerateTrace(workload, system.Geometry(), horizon, rng);
  const trace::AddressMapper mapper(system.Geometry());
  const auto requests = trace::MapToRequests(records, mapper);

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
                              static_cast<std::int64_t>(requests.size()));

  const auto raidr = system.Simulate("RAIDR", requests, horizon, recorder);
  result.raidr_overhead = raidr.RefreshOverheadPerBank();
  result.raidr_refresh_power_mw =
      power_model.Compute(raidr).refresh_power_mw;

  const auto vrl = system.Simulate("VRL", requests, horizon, recorder);
  result.vrl_overhead = vrl.RefreshOverheadPerBank();
  result.vrl_refresh_power_mw = power_model.Compute(vrl).refresh_power_mw;

  const auto vrl_access =
      system.Simulate("VRL-Access", requests, horizon, recorder);
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
  ParallelFor(
      "evaluation_suite", suite.size(),
      [&](std::size_t i) {
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

fault::CampaignReport RunResilienceLeg(
    const VrlSystem& system, const ResilienceLeg& leg,
    const retention::VrtParams& vrt, const ExperimentOptions& options,
    telemetry::Recorder* recorder) {
  // Each leg owns its FaultSchedule, seeded identically and advanced on the
  // same tick sequence, so the same seed reproduces the identical fault
  // trace for every leg — which also makes the legs independent tasks.
  fault::FaultSchedule faults(options.fault_seed);
  faults.Add(std::make_unique<fault::VrtFlipInjector>(vrt));
  FaultCampaignOptions campaign;
  campaign.windows = options.windows;
  campaign.adaptive = leg.adaptive;
  campaign.telemetry = recorder;
  return system.RunFaultCampaign(leg.policy, faults, campaign);
}

ResilienceResult RunResilienceComparison(const VrlSystem& system,
                                         std::string_view policy,
                                         const retention::VrtParams& vrt,
                                         const ExperimentOptions& options) {
  // Each leg builds its own FaultCampaignOptions (RunResilienceLeg): the
  // legs used to mutate one shared options struct between runs, an ordering
  // dependency that would race once the legs overlap.  Telemetry is per-leg
  // sharded and merged in leg order, like the suite.
  const std::vector<ResilienceLeg> legs = ResilienceLegs(policy);
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
        *outs[i] = RunResilienceLeg(system, legs[i], vrt, options,
                                    shards ? &shards->shard(i) : nullptr);
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
