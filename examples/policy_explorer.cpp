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
#include "power/power_model.hpp"
#include "trace/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  std::string workload_name = "facesim";
  std::string policy_name = "vrl-access";
  std::size_t windows = 8;
  core::VrlConfig config;

  bench::ReportOptions report_options;
  try {
    report_options = bench::ParseReportArgs(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  const auto& args = report_options.positional;
  for (std::size_t i = 0; i < args.size(); i += 2) {
    const std::string& flag = args[i];
    if (i + 1 == args.size()) {
      std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
      return 2;
    }
    const std::string& value = args[i + 1];
    try {
      if (flag == "--workload") {
        workload_name = value;
      } else if (flag == "--policy") {
        policy_name = value;
      } else if (flag == "--windows") {
        windows = static_cast<std::size_t>(bench::ParseCountFlag(flag, value));
      } else if (flag == "--nbits") {
        config.nbits =
            static_cast<std::size_t>(bench::ParseCountFlag(flag, value));
      } else if (flag == "--banks") {
        config.banks =
            static_cast<std::size_t>(bench::ParseCountFlag(flag, value));
      } else if (flag == "--seed") {
        config.seed = bench::ParseCountFlag(flag, value);
      } else if (flag == "--config") {
        config = core::LoadVrlConfigFile(value);
      } else {
        std::fprintf(stderr, "error: unknown flag %s\n", flag.c_str());
        return 2;
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 2;
    }
  }

  try {
    core::VrlSystem system(config);
    system.EnableTelemetry();
    const auto policy = core::PolicyFromName(policy_name);
    const auto workload = trace::SuiteWorkload(workload_name);

    const Cycles horizon = system.HorizonForWindows(windows);
    Rng rng(config.seed);
    const auto records =
        trace::GenerateTrace(workload, system.Geometry(), horizon, rng);
    const auto requests =
        trace::MapToRequests(records, trace::AddressMapper(system.Geometry()));

    const auto stats = system.Simulate(policy, requests, horizon);
    const power::PowerModel power_model(power::EnergyParams{},
                                        config.tech.clock_period_s);
    const auto energy = power_model.Compute(stats);

    bench::Report report("policy_explorer");
    report.AddMeta("policy", core::PolicyName(policy));
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
    report.AddTelemetry(system.telemetry()->Snapshot());
    report.Emit(report_options, std::cout);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
