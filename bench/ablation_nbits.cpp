// Ablation for the counter width nbits (§3.2 / Table 2): wider counters
// allow more consecutive partial refreshes (MPRSF cap = 2^nbits - 1) at
// higher area cost.  The paper evaluates performance at nbits = 2 and area
// for nbits = 2..4; this sweep shows why nbits = 2 is enough — restore
// truncation compounding caps useful MPRSF well below the counter range.

#include <cstdio>
#include <iostream>

#include "area/area_model.hpp"
#include "bench/reporting.hpp"
#include "core/vrl_system.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseReportArgsOrExit(argc, argv);
  bench::Report report("ablation_nbits");
  const area::AreaModel area_model;
  TextTable& table = report.AddTable(
      "sweep", {"nbits", "MPRSF cap", "VRL overhead vs RAIDR",
                "logic area (um^2)", "% bank area"});

  for (std::size_t nbits = 1; nbits <= 4; ++nbits) {
    core::VrlConfig config;
    config.banks = 1;
    config.nbits = nbits;
    const core::VrlSystem system(config);

    const Cycles horizon = system.HorizonForWindows(16);
    const double raidr =
        system.Simulate("RAIDR", {}, horizon).RefreshOverheadPerBank();
    const double vrl =
        system.Simulate("VRL", {}, horizon).RefreshOverheadPerBank();

    table.AddRow(
        {std::to_string(nbits), std::to_string(config.MprsfCap()),
         Fmt(vrl / raidr, 3), Fmt(area_model.LogicAreaUm2(nbits), 0),
         FmtPercent(area_model.OverheadFraction(nbits, config.tech.rows,
                                                config.tech.columns),
                    2)});
  }
  report.AddMeta("paper_note",
                 "beyond nbits=2 the overhead barely improves (compounded "
                 "restore truncation limits MPRSF), while area keeps growing "
                 "— the paper's low-cost choice");
  report.Emit(report_options, std::cout);
  return 0;
}
