// Integrity audit: replay a refresh policy against the physics and verify
// no row ever loses data — at profiling conditions and across a temperature
// sweep, with optional worst-case VRT.
//
//   ./integrity_audit [--config FILE] [--policy NAME]
//     (NAME: any dram::PolicyRegistry entry, e.g. raidr|vrl|vrl-skip|darp|sarp)
//                     [--windows N] [--max-celsius T] [--vrt]
//                     [--json PATH] [--csv PATH]
//
// Exit code 0 when the policy is loss-free at the profiling temperature,
// 1 otherwise — usable as a regression gate for configuration changes.

#include <cstdio>
#include <iostream>
#include <string>

#include "bench/reporting.hpp"
#include "core/config_io.hpp"
#include "core/integrity.hpp"
#include "core/vrl_system.hpp"
#include "dram/policy_registry.hpp"
#include "retention/temperature.hpp"
#include "retention/vrt.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  core::VrlConfig config;
  config.banks = 1;
  std::string policy_name = "vrl";
  std::size_t windows = 8;
  double max_celsius = 65.0;
  bool with_vrt = false;

  const auto report_options = bench::ParseFlags(
      argc, argv, bench::kOutput,
      {{"--config",
        [&](const std::string& path) {
          config = core::LoadVrlConfigFile(path);
          config.banks = 1;  // the audit replays one bank's schedule
        }},
       {"--policy", &policy_name},
       {"--windows", &windows, bench::kPositive},
       {"--max-celsius", &max_celsius},
       {"--vrt", &with_vrt}});

  try {
    const core::VrlSystem system(config);
    const std::string& policy =
        dram::PolicyRegistry::Global().Get(policy_name).name;
    const retention::TemperatureModel temperature;

    bench::Report report("integrity_audit");
    report.AddMeta("policy", policy);
    report.AddMeta("windows", windows);
    report.AddMeta("guardband", config.retention_guardband, 2);
    report.AddMeta("spare_rows", config.spare_rows);
    report.AddMeta("worst_case_vrt", with_vrt ? "yes" : "no");
    if (system.guardband_clamped_rows() > 0) {
      std::fprintf(stderr,
                   "warning: %zu rows not protected by the guardband "
                   "(consider spare_rows)\n",
                   system.guardband_clamped_rows());
    }

    retention::VrtParams vrt;
    TextTable& table = report.AddTable(
        "sweep", {"temperature", "refreshes", "partials", "failures",
                  "min margin"});
    bool base_ok = true;
    for (double celsius = temperature.profiling_celsius;
         celsius <= max_celsius + 1e-9; celsius += 5.0) {
      const double scale = temperature.RetentionScale(celsius);
      core::IntegrityReport report;
      if (with_vrt) {
        Rng rng(config.seed ^ 0xF00DULL);
        const auto vrt_rows =
            retention::SampleVrtRows(vrt, system.profile().rows(), rng);
        const auto runtime = retention::WorstCaseRuntimeProfile(
            system.profile(), vrt_rows, vrt);
        report = core::IntegrityChecker(system, runtime, scale)
                     .Check(policy, windows);
      } else {
        report = core::IntegrityChecker(system, scale).Check(policy, windows);
      }
      if (celsius == temperature.profiling_celsius) {
        base_ok = !report.DataLost();
      }
      table.AddRow({Fmt(celsius, 0) + " C",
                    std::to_string(report.refreshes_checked),
                    std::to_string(report.partial_refreshes),
                    std::to_string(report.failures),
                    Fmt(report.min_margin, 4)});
    }
    report.AddMeta("verdict", base_ok ? "LOSS-FREE" : "DATA LOSS");
    report.Emit(report_options, std::cout);
    return base_ok ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
