// Quickstart: build a VRL-DRAM system with the paper's default
// configuration, run one workload under all four refresh policies, and
// print a summary.
//
//   ./quickstart [workload] [--json PATH] [--csv PATH]
//                [--trace-out PATH] [--profile] [--profile-out PATH]
//                [--profile-scrub]
//   (default workload: streamcluster)
//
// --trace-out exports the runs' span + refresh-lineage trace as Chrome
// trace_event JSON (open in Perfetto / chrome://tracing), or JSONL when
// PATH ends in ".jsonl".  --profile appends the wall-time phase table.
// Both are documented in docs/TRACING.md.

#include <iostream>
#include <string>

#include "bench/reporting.hpp"
#include "core/vrl_system.hpp"
#include "power/power_model.hpp"
#include "telemetry/trace_export.hpp"
#include "trace/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  std::string workload_name = "streamcluster";
  const auto report_options = bench::ParseFlags(
      argc, argv,
      bench::kOutput | bench::kProfile | bench::kTrace,
      {{"workload", &workload_name}});

  // 1. Configure the system.  Defaults follow the paper: an 8192x32 bank at
  //    90 nm, retention bins 64/128/192/256 ms, nbits = 2 counters.
  core::VrlConfig config;
  core::VrlSystem system(config);
  telemetry::RecorderOptions recorder_options;
  recorder_options.enable_tracing = !report_options.trace_path.empty();
  // A one-off traced run wants the complete causal record, so take the
  // per-op lineage firehose, not the transitions-only low-overhead mode.
  recorder_options.lineage_ops = recorder_options.enable_tracing;
  recorder_options.profile_phases = report_options.profile;
  telemetry::Recorder recorder(recorder_options);

  bench::Report report("quickstart");
  report.AddMeta("bank", config.tech.GeometryLabel());
  report.AddMeta("banks", config.banks);
  report.AddMeta("tau_full_cycles",
                 static_cast<std::size_t>(system.TauFullCycles()));
  report.AddMeta("tau_partial_cycles",
                 static_cast<std::size_t>(system.TauPartialCycles()));
  report.AddMeta("min_readable_fraction",
                 system.refresh_model().MinReadableFraction(), 3);

  // 2. Generate a synthetic workload trace (or load one with trace::ReadTextFile).
  const auto workload = trace::SuiteWorkload(workload_name);
  const Cycles horizon = system.HorizonForWindows(8);  // 8 x 64 ms
  Rng rng(1);
  const auto records =
      trace::GenerateTrace(workload, system.Geometry(), horizon, rng);
  const auto requests =
      trace::MapToRequests(records, trace::AddressMapper(system.Geometry()));
  report.AddMeta("workload", workload.name);
  report.AddMeta("requests", requests.size());
  report.AddMeta("simulated_ms",
                 CyclesToSeconds(horizon, config.tech.clock_period_s) * 1e3,
                 0);

  // 3. Simulate each refresh policy and compare.  Every run feeds the
  //    telemetry recorder above; its metrics land in the report's
  //    telemetry table.
  const power::PowerModel power_model(power::EnergyParams{},
                                      config.tech.clock_period_s);
  TextTable& table = report.AddTable(
      "policies", {"policy", "refresh cycles/bank", "fulls", "partials",
                   "refresh power (mW)", "avg latency (cyc)"});
  for (const char* policy : {"JEDEC", "RAIDR", "VRL", "VRL-Access"}) {
    const auto stats = system.Simulate(policy, requests, horizon, &recorder);
    const auto energy = power_model.Compute(stats);
    table.AddRow({policy,
                  Fmt(stats.RefreshOverheadPerBank(), 0),
                  std::to_string(stats.TotalFullRefreshes()),
                  std::to_string(stats.TotalPartialRefreshes()),
                  Fmt(energy.refresh_power_mw, 2),
                  Fmt(stats.AverageRequestLatency(), 1)});
  }
  report.AddTelemetry(recorder.Snapshot());
  if (report_options.profile) {
    report.AddProfile(recorder);
    bench::WriteProfileOutput(report_options, recorder);
  }
  if (!report_options.trace_path.empty()) {
    telemetry::WriteTraceFile(report_options.trace_path, *recorder.tracer(),
                              recorder.lineage());
  }
  report.Emit(report_options, std::cout);
  return 0;
}
