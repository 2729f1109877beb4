// Policy explorer: run any workload under any refresh policy with custom
// parameters and print detailed per-bank statistics.
//
//   ./policy_explorer [--workload NAME] [--policy NAME]
//     (NAME: any dram::PolicyRegistry entry, e.g. jedec|vrl|vrl-skip|darp|sarp)
//                     [--windows N] [--nbits N] [--banks N] [--seed S]
//                     [--config FILE]   (key=value file, see core/config_io.hpp)
//                     [--json PATH] [--csv PATH]

#include <cstdio>
#include <iostream>
#include <string>

#include "bench/reporting.hpp"
#include "core/config_io.hpp"
#include "core/vrl_system.hpp"
#include "dram/policy_registry.hpp"
#include "power/power_model.hpp"
#include "trace/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  std::string workload_name = "facesim";
  std::string policy_name = "vrl-access";
  std::size_t windows = 8;
  core::VrlConfig config;

  const auto report_options =
      bench::ParseFlags(argc, argv, bench::kOutput,
                        {{"--workload", &workload_name},
                         {"--policy", &policy_name},
                         {"--windows", &windows},
                         {"--nbits", &config.nbits},
                         {"--banks", &config.banks},
                         {"--seed", &config.seed},
                         {"--config", [&](const std::string& path) {
                            config = core::LoadVrlConfigFile(path);
                          }}});

  try {
    core::VrlSystem system(config);
    telemetry::Recorder recorder;
    const std::string& policy =
        dram::PolicyRegistry::Global().Get(policy_name).name;
    const auto workload = trace::SuiteWorkload(workload_name);

    const Cycles horizon = system.HorizonForWindows(windows);
    Rng rng(config.seed);
    const auto records =
        trace::GenerateTrace(workload, system.Geometry(), horizon, rng);
    const auto requests =
        trace::MapToRequests(records, trace::AddressMapper(system.Geometry()));

    const auto stats = system.Simulate(policy, requests, horizon, &recorder);
    const power::PowerModel power_model(power::EnergyParams{},
                                        config.tech.clock_period_s);
    const auto energy = power_model.Compute(stats);

    bench::Report report("policy_explorer");
    report.AddMeta("policy", policy);
    report.AddMeta("workload", workload.name);
    report.AddMeta("windows", windows);
    report.AddMeta("nbits", config.nbits);
    report.AddMeta("refresh_overhead_per_bank",
                   stats.RefreshOverheadPerBank(), 0);
    report.AddMeta("avg_request_latency_cycles",
                   stats.AverageRequestLatency(), 1);
    report.AddMeta("refresh_power_mw", energy.refresh_power_mw, 2);
    report.AddMeta("total_energy_uj", energy.Total() * 1e-3, 2);

    TextTable& table = report.AddTable(
        "per_bank", {"bank", "reads", "writes", "row hits", "row misses",
                     "fulls", "partials", "refresh cyc"});
    for (std::size_t b = 0; b < stats.per_bank.size(); ++b) {
      const auto& s = stats.per_bank[b];
      table.AddRow({std::to_string(b), std::to_string(s.reads),
                    std::to_string(s.writes), std::to_string(s.row_hits),
                    std::to_string(s.row_misses),
                    std::to_string(s.full_refreshes),
                    std::to_string(s.partial_refreshes),
                    std::to_string(s.refresh_busy_cycles)});
    }
    report.AddTelemetry(recorder.Snapshot());
    report.Emit(report_options, std::cout);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
