// Reproduces Table 2: "Area overhead of VRL-DRAM at 90nm".
//
// Paper reference (8192x32 bank):
//   nbits=2: 105 um^2 (0.97%), nbits=3: 152 um^2 (1.4%),
//   nbits=4: 200 um^2 (1.85%).

#include <cstdio>
#include <iostream>

#include "area/area_model.hpp"
#include "bench/reporting.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseFlags(argc, argv, bench::kOutput);
  const area::AreaModel model;
  constexpr std::size_t kRows = 8192;
  constexpr std::size_t kColumns = 32;

  bench::Report report("table2_area");
  report.AddMeta("technology_nm", std::size_t{90});
  report.AddMeta("rows", kRows);
  report.AddMeta("columns", kColumns);
  report.AddMeta("bank_area_um2", model.BankAreaUm2(kRows, kColumns), 0);

  TextTable& table = report.AddTable(
      "area_overhead",
      {"nbits", "logic area (um^2)", "% bank area", "paper (um^2 / %)"});
  const char* paper[] = {"105 / 0.97%", "152 / 1.4%", "200 / 1.85%"};
  for (std::size_t nbits = 2; nbits <= 4; ++nbits) {
    table.AddRow({std::to_string(nbits),
                  Fmt(model.LogicAreaUm2(nbits), 0),
                  FmtPercent(model.OverheadFraction(nbits, kRows, kColumns), 2),
                  paper[nbits - 2]});
  }

  // Extrapolation beyond the paper's table.
  TextTable& extra = report.AddTable(
      "extrapolation", {"nbits", "logic area (um^2)", "% bank area"});
  for (std::size_t nbits = 1; nbits <= 8; ++nbits) {
    extra.AddRow({std::to_string(nbits), Fmt(model.LogicAreaUm2(nbits), 0),
                  FmtPercent(model.OverheadFraction(nbits, kRows, kColumns),
                             2)});
  }
  report.Emit(report_options, std::cout);
  return 0;
}
