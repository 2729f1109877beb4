#include "core/experiments.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "dram/policy_registry.hpp"

namespace vrl::core {

dram::RequestStreams DrawWorkload(const VrlSystem& system,
                                  const trace::SyntheticWorkloadParams& workload,
                                  Cycles horizon, std::uint64_t salt) {
  Rng rng(system.config().seed ^ salt);
  return trace::GenerateStreams(
      workload, trace::AddressMapper(system.Geometry()), horizon, rng);
}

WorkloadResult RunWorkloadOn(const VrlSystem& system,
                             const trace::SyntheticWorkloadParams& workload,
                             const dram::RequestStreams& streams,
                             Cycles horizon,
                             const power::EnergyParams& energy,
                             telemetry::Recorder* recorder) {
  if (horizon == 0) {
    throw ConfigError("RunWorkload: need at least one refresh window");
  }
  const power::PowerModel power_model(energy,
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

WorkloadResult RunWorkload(const VrlSystem& system,
                           const trace::SyntheticWorkloadParams& workload,
                           const ExperimentOptions& options) {
  const Cycles horizon = system.HorizonForWindows(options.windows);
  return RunWorkloadOn(system, workload,
                       DrawWorkload(system, workload, horizon), horizon,
                       options.energy, options.telemetry);
}

void RunWorkloadGrid(
    const VrlSystem& system,
    const std::vector<trace::SyntheticWorkloadParams>& workloads,
    Cycles horizon, telemetry::Recorder* sink, std::size_t threads,
    const std::function<void(std::size_t, const dram::RequestStreams&,
                             telemetry::Recorder*)>& legs) {
  std::vector<std::size_t> order(workloads.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return workloads[a].mean_gap_cycles <
                            workloads[b].mean_gap_cycles;
                   });
  telemetry::ParallelForShards(
      "workload_grid", workloads.size(), sink,
      [&](std::size_t i, telemetry::Recorder* shard) {
        legs(i, DrawWorkload(system, workloads[i], horizon), shard);
      },
      threads, order);
}

std::vector<WorkloadResult> RunEvaluationSuite(
    const VrlSystem& system, const ExperimentOptions& options) {
  const Cycles horizon = system.HorizonForWindows(options.windows);
  const auto suite = trace::EvaluationSuite();
  std::vector<WorkloadResult> results(suite.size());
  RunWorkloadGrid(system, suite, horizon, options.telemetry, options.threads,
                  [&](std::size_t i, const dram::RequestStreams& streams,
                      telemetry::Recorder* shard) {
                    results[i] = RunWorkloadOn(system, suite[i], streams,
                                               horizon, options.energy, shard);
                  });
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

void RunFaultLegs(
    const VrlSystem& system, fault::FaultSchedule schedule,
    std::size_t windows, std::size_t legs, telemetry::Recorder* sink,
    std::size_t threads,
    const std::function<void(std::size_t, const fault::FaultRecording&,
                             telemetry::Recorder*)>& leg) {
  fault::FaultRecording recording(std::move(schedule),
                                  system.CampaignSetupFor(windows).Ticks(),
                                  system.profile().rows(),
                                  fault::DeferDraw{});
  telemetry::ParallelForShards(
      "fault_legs", legs + 1, sink,
      [&](std::size_t i, telemetry::Recorder* shard) {
        if (i == 0) {
          recording.Draw();
        } else {
          leg(i - 1, recording, shard);
        }
      },
      threads);
}

ResilienceResult RunResilienceComparison(const VrlSystem& system,
                                         std::string_view policy,
                                         const retention::VrtParams& vrt,
                                         const ExperimentOptions& options) {
  // Every leg replays the one realization into its own campaign and report
  // slot; telemetry is per-leg sharded and merged in leg order, like the
  // suite.
  const std::vector<ResilienceLeg> legs = ResilienceLegs(policy);
  ResilienceResult result;
  fault::CampaignReport* const outs[] = {&result.jedec, &result.plain,
                                         &result.adaptive};
  RunFaultLegs(system, VrtSchedule(vrt, options), options.windows,
               legs.size(), options.telemetry, options.threads,
               [&](std::size_t i, const fault::FaultRecording& recording,
                   telemetry::Recorder* shard) {
                 *outs[i] = system.RunFaultCampaign(legs[i], recording, shard);
               });
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
