// Reproduces Fig. 4: "Refresh performance overhead with real traces".
//
// Runs every workload of the evaluation suite (13 PARSEC benchmarks +
// bgsave) under RAIDR, VRL and VRL-Access on the 8192x32 bank, and prints
// the refresh overhead of each policy normalized to RAIDR — the same series
// the paper plots.  Paper reference points: VRL ≈ 0.77 (23% reduction,
// application-independent), VRL-Access ≈ 0.66 on average (34% reduction).

#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options =
      bench::ParseFlags(argc, argv, bench::kOutput | bench::kProfile);
  core::VrlConfig config;
  core::VrlSystem system(config);
  telemetry::RecorderOptions recorder_options;
  // --profile: the suite fans its workloads out with ParallelFor, one
  // recorder shard per workload, so this is the thread-count byte-identity
  // vehicle for attribution trees — the shard profilers merge in
  // task-index order (docs/PROFILING.md).
  recorder_options.profile_phases = report_options.profile;
  telemetry::Recorder recorder(recorder_options);

  bench::Report report("fig4_refresh_overhead");
  report.AddMeta("bank", config.tech.GeometryLabel());
  report.AddMeta("tau_full_cycles", static_cast<std::size_t>(system.TauFullCycles()));
  report.AddMeta("tau_partial_cycles",
                 static_cast<std::size_t>(system.TauPartialCycles()));

  core::ExperimentOptions options;
  options.windows = 16;  // 16 x 64 ms of simulated time
  options.telemetry = &recorder;
  const auto results = core::RunEvaluationSuite(system, options);

  TextTable& table =
      report.AddTable("overhead", {"benchmark", "RAIDR", "VRL", "VRL-Access"});
  for (const auto& r : results) {
    table.AddRow({r.workload, "1.000", Fmt(r.VrlNormalized(), 3),
                  Fmt(r.VrlAccessNormalized(), 3)});
  }
  const auto avg = core::Average(results);
  table.AddRow({"average", "1.000", Fmt(avg.vrl, 3), Fmt(avg.vrl_access, 3)});

  report.AddMeta("paper_vrl_vs_raidr_pct", "-23");
  report.AddMeta("paper_vrl_access_vs_raidr_pct", "-34");
  report.AddMeta("vrl_vs_raidr_pct", (avg.vrl - 1.0) * 100.0, 1);
  report.AddMeta("vrl_access_vs_raidr_pct", (avg.vrl_access - 1.0) * 100.0, 1);
  report.AddTelemetry(recorder.Snapshot());
  if (report_options.profile) {
    report.AddProfile(recorder);
    bench::WriteProfileOutput(report_options, recorder);
  }
  report.Emit(report_options, std::cout);
  return 0;
}
