// Timing-conformance sweep: replays the Fig. 4 evaluation suite (13 PARSEC
// benchmarks + bgsave, under every dram::PolicyRegistry policy) with command
// logging on, and audits every run's command stream against its preset's timing
// table (dram::TimingAuditor — the passive re-implementation, sharing no
// code with the in-simulation constraint engine).  Any reported violation
// is a timing bug in the controller or the engine; the binary exits
// non-zero so CI fails.
//
//   --preset <name>     audit one preset; default sweeps the three hardware
//                       presets (DDR3_1600, DDR4_2400, LPDDR4_3200)
//   --audit-out <path>  write the audit logs (one section per preset, the
//                       format documented in dram/auditor.hpp) — CI uploads
//                       this artifact and scripts/check_timing_audit.py
//                       validates it
//   --windows <n>       base refresh windows per simulation (default 4)
//
// A malformed flag prints one `error:` line and exits 2.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/reporting.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/vrl_system.hpp"
#include "dram/auditor.hpp"
#include "dram/policy_registry.hpp"
#include "dram/timing_table.hpp"
#include "trace/address.hpp"
#include "trace/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  bench::ReportOptions report_options;
  std::string audit_out;
  std::size_t windows = 4;
  std::vector<dram::TimingPreset> presets = {dram::TimingPreset::kDdr3_1600,
                                             dram::TimingPreset::kDdr4_2400,
                                             dram::TimingPreset::kLpddr4_3200};
  try {
    report_options = bench::ParseReportArgs(argc, argv);
    const auto& args = report_options.positional;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= args.size()) {
          throw ConfigError(arg + " needs a value");
        }
        return args[++i];
      };
      if (arg == "--audit-out") {
        audit_out = value();
      } else if (arg == "--windows") {
        windows =
            static_cast<std::size_t>(bench::ParseCountFlag(arg, value()));
      } else {
        throw ConfigError("unknown argument '" + arg + "'");
      }
    }
    if (!report_options.preset.empty()) {
      presets = {dram::PresetFromName(report_options.preset)};
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  bench::Report report("timing_conformance");
  report.AddMeta("windows", windows);
  report.AddMeta("suite", "fig4 evaluation suite (13 PARSEC + bgsave)");
  TextTable& table = report.AddTable(
      "conformance", {"preset", "banks", "sims", "commands", "violations"});

  std::string audit_text;
  std::size_t total_violations = 0;
  for (const dram::TimingPreset preset : presets) {
    core::VrlConfig config;
    config.ApplyPreset(preset);
    const core::VrlSystem system(config);
    const dram::TimingAuditor auditor(config.TimingTableFor());
    const Cycles horizon = system.HorizonForWindows(windows);
    const trace::AddressMapper mapper(system.Geometry());

    // One merged report per preset: zero violations expected, so the merge
    // loses nothing; counts prove the grid actually ran.
    dram::AuditReport merged;
    std::size_t sims = 0;
    for (const auto& workload : trace::EvaluationSuite()) {
      // Same trace derivation as the Fig. 4 driver (core/experiments.cpp),
      // so the audited streams are the streams the paper results come from.
      Rng rng(config.seed ^ 0xABCD'1234ULL);
      const auto records =
          trace::GenerateTrace(workload, system.Geometry(), horizon, rng);
      const auto requests = trace::MapToRequests(records, mapper);
      for (const dram::PolicyInfo& info :
           dram::PolicyRegistry::Global().entries()) {
        dram::CommandLog log;
        system.Simulate(info.name, requests, horizon, nullptr, &log);
        dram::AuditReport audited = auditor.Audit(log);
        merged.commands_checked += audited.commands_checked;
        for (auto& v : audited.violations) {
          merged.violations.push_back(std::move(v));
        }
        ++sims;
      }
    }
    table.AddRow({dram::PresetName(preset), std::to_string(config.banks),
                  std::to_string(sims),
                  std::to_string(merged.commands_checked),
                  std::to_string(merged.violations.size())});
    total_violations += merged.violations.size();
    audit_text += merged.ToText(dram::PresetName(preset));
  }

  report.AddMeta("total_violations", total_violations);
  report.AddMeta("clean", total_violations == 0 ? "yes" : "NO");
  if (!audit_out.empty()) {
    std::ofstream out(audit_out, std::ios::binary);
    if (!out) {
      throw ConfigError("timing_conformance: cannot open '" + audit_out +
                        "'");
    }
    out << audit_text;
  }
  report.Emit(report_options, std::cout);
  return total_violations == 0 ? 0 : 1;
}
