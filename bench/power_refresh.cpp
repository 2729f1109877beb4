// Reproduces the §4.1 refresh-power result: "VRL-DRAM reduces refresh power
// by 12% over RAIDR (evaluated using the DRAMPower tool)".
//
// Uses the repo's DRAMPower-substitute energy model over the same
// simulations as Fig. 4 and reports refresh power normalized to RAIDR.

#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseFlags(argc, argv, bench::kOutput);
  core::VrlConfig config;
  core::VrlSystem system(config);

  bench::Report report("power_refresh");
  report.AddMeta("model", "DRAMPower-substitute");

  core::ExperimentOptions options;
  options.windows = 16;
  const auto results = core::RunEvaluationSuite(system, options);

  TextTable& table = report.AddTable(
      "refresh_power", {"benchmark", "RAIDR (mW)", "VRL (mW)",
                        "VRL-Access (mW)", "VRL norm", "VRL-Access norm"});
  for (const auto& r : results) {
    table.AddRow({r.workload, Fmt(r.raidr_refresh_power_mw, 3),
                  Fmt(r.vrl_refresh_power_mw, 3),
                  Fmt(r.vrl_access_refresh_power_mw, 3),
                  Fmt(r.vrl_refresh_power_mw / r.raidr_refresh_power_mw, 3),
                  Fmt(r.vrl_access_refresh_power_mw / r.raidr_refresh_power_mw,
                      3)});
  }

  const auto avg = core::Average(results);
  report.AddMeta("paper_vrl_power_vs_raidr_pct", "-12");
  report.AddMeta("vrl_power_vs_raidr_pct", (avg.vrl_power - 1.0) * 100.0, 1);
  report.AddMeta("vrl_access_power_vs_raidr_pct",
                 (avg.vrl_access_power - 1.0) * 100.0, 1);

  // Context: total device energy, where background power dominates — the
  // honest caveat on any refresh-energy headline.
  const power::PowerModel power_model(options.energy,
                                      system.config().tech.clock_period_s);
  const Cycles horizon = system.HorizonForWindows(options.windows);
  Rng rng(3);
  const auto streams = trace::GenerateStreams(
      trace::SuiteWorkload("streamcluster"),
      trace::AddressMapper(system.Geometry()), horizon, rng);
  TextTable& totals = report.AddTable(
      "total_energy_streamcluster",
      {"policy", "refresh (uJ)", "activate (uJ)", "r/w (uJ)",
       "background (uJ)", "total (uJ)"});
  for (const char* policy : {"RAIDR", "VRL", "VRL-Access"}) {
    const auto breakdown =
        power_model.Compute(system.SimulateStreams(policy, streams, horizon));
    totals.AddRow({policy, Fmt(breakdown.refresh_nj * 1e-3, 1),
                   Fmt(breakdown.activate_nj * 1e-3, 1),
                   Fmt(breakdown.read_write_nj * 1e-3, 1),
                   Fmt(breakdown.background_nj * 1e-3, 1),
                   Fmt(breakdown.Total() * 1e-3, 1)});
  }
  report.Emit(report_options, std::cout);
  return 0;
}
