// Reproduces Fig. 1a ("charge restoration status of a DRAM cell during a
// refresh operation") and the §3.1 τ_partial / τ_full breakdown.
//
// The analytical model's restore curve is printed as (fraction of tRFC,
// fraction of charge) samples and cross-checked against the transient
// circuit simulation of the full refresh path (cell + access transistor +
// sense amplifier).  Paper reference: ~95% of the charge is restored by
// ~60% of tRFC; the last 5% consumes the remaining ~40%.

#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "circuit/dram_circuits.hpp"
#include "circuit/transient.hpp"
#include "model/refresh_model.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseFlags(argc, argv, bench::kOutput);
  const TechnologyParams tech;
  const model::RefreshModel refresh_model(tech);
  const auto curve = refresh_model.RestoreCurve();
  const auto full = refresh_model.FullRefreshTimings();
  const auto partial = refresh_model.PartialRefreshTimings();

  bench::Report report("fig1a_restore_curve");
  report.AddMeta("bank", tech.GeometryLabel());

  // Circuit cross-check: simulate the refresh path and sample the cell.
  // The circuit has no command-decode/fixed delay, so the wordline event is
  // placed where the model's restore window starts (after τfixed + τeq),
  // aligning the two time axes.
  const double t_wl = tech.tau_fixed_s + refresh_model.TauEqSeconds();
  const double t_sense = t_wl + refresh_model.TauPreSeconds();
  auto path = circuit::BuildRefreshPathCircuit(
      tech, /*cell_value=*/true,
      /*initial_charge_fraction=*/refresh_model.spec().start_fraction, t_wl,
      t_sense);
  circuit::TransientOptions options;
  options.t_stop_s = full.trfc_s() + 1e-9;
  options.dt_s = 10e-12;
  const auto wave = circuit::RunTransient(path.netlist, options, {path.cell});
  const double v0 = wave.ValueAt(path.cell, 0.0);
  const double v_end = wave.FinalValue(path.cell);

  TextTable& table = report.AddTable(
      "restore_curve", {"% of tRFC", "% charge (model)", "% charge (circuit)"});
  for (int pct = 0; pct <= 100; pct += 5) {
    const double x = pct / 100.0;
    const double circuit_frac =
        (wave.ValueAt(path.cell, x * full.trfc_s()) - v0) / (v_end - v0);
    table.AddRow({std::to_string(pct), Fmt(curve(x) * 100.0, 1),
                  Fmt(circuit_frac * 100.0, 1)});
  }
  report.AddMeta("pct_trfc_for_95pct_charge",
                 curve.InverseLookup(0.95) * 100.0, 0);
  report.AddMeta("paper_pct_trfc_for_95pct_charge", "~60");

  TextTable& breakdown = report.AddTable(
      "latency_breakdown",
      {"operation", "tau_eq", "tau_pre", "tau_post", "tau_fixed", "tRFC"});
  const auto row = [](const char* name, const model::TimingBreakdown& t) {
    return std::vector<std::string>{
        name,
        std::to_string(t.tau_eq),
        std::to_string(t.tau_pre),
        std::to_string(t.tau_post),
        std::to_string(t.tau_fixed),
        std::to_string(t.trfc())};
  };
  breakdown.AddRow(row("full refresh", full));
  breakdown.AddRow(row("partial refresh", partial));
  report.AddMeta(
      "partial_full_ratio",
      static_cast<double>(partial.trfc()) / static_cast<double>(full.trfc()),
      2);
  report.AddMeta("paper_partial_full_ratio", "0.58");
  report.Emit(report_options, std::cout);
  return 0;
}
