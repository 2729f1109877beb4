// Ablation for §3.1: "there is a trade-off between the latency reduction in
// a partial refresh operation and the number of partial refresh operations a
// row can sustain".
//
// Sweeps the partial-refresh restore target.  A low target makes each
// partial cheap but collapses MPRSF toward zero (no benefit); a high target
// preserves MPRSF but each partial costs nearly as much as a full refresh.
// The default 95% sits near the optimum — exactly the paper's argument for
// its τ_partial choice.

#include <cstdio>
#include <iostream>
#include <map>

#include "bench/reporting.hpp"
#include "core/vrl_system.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseReportArgsOrExit(argc, argv);
  bench::Report report("ablation_tau_partial");
  TextTable& table = report.AddTable(
      "sweep", {"restore target", "tau_partial (cyc)", "tau_full (cyc)",
                "avg MPRSF", "VRL overhead vs RAIDR"});

  for (const double target : {0.88, 0.90, 0.92, 0.95, 0.97, 0.99}) {
    core::VrlConfig config;
    config.banks = 1;
    config.spec.partial_target = target;
    const core::VrlSystem system(config);

    double mprsf_sum = 0.0;
    for (const auto m : system.row_mprsf()) {
      mprsf_sum += static_cast<double>(m);
    }
    const double avg_mprsf =
        mprsf_sum / static_cast<double>(system.row_mprsf().size());

    const Cycles horizon = system.HorizonForWindows(16);
    const double raidr =
        system.Simulate("RAIDR", {}, horizon).RefreshOverheadPerBank();
    const double vrl =
        system.Simulate("VRL", {}, horizon).RefreshOverheadPerBank();

    table.AddRow({Fmt(target, 2), std::to_string(system.TauPartialCycles()),
                  std::to_string(system.TauFullCycles()), Fmt(avg_mprsf, 2),
                  Fmt(vrl / raidr, 3)});
  }
  report.AddMeta("paper_note",
                 "the minimum overhead marks the best tau_partial; the paper "
                 "selects the 95% truncation point");
  report.Emit(report_options, std::cout);
  return 0;
}
