// Reproduces Table 1: "Accuracy trade-offs of our analytical model".
//
// For six bank configurations, reports the pre-sensing time (in memory
// cycles) needed to guarantee a 95% restore, from three sources:
//  * the transient circuit simulation (the repo's SPICE substitute),
//  * the single-cell capacitor model (Li et al.), and
//  * our analytical model,
// together with the measured wall-clock time of each method.
//
// Paper reference (SPICE / single-cell / ours, cycles):
//   2048x32: 7/6/7   2048x128: 8/6/8   8192x32: 9/6/9
//   8192x128: 11/6/10  16384x32: 14/6/12  16384x128: 16/6/14
// and: the analytical model is within 0-12.5% of SPICE while running orders
// of magnitude faster; the single-cell model stays flat at 6 cycles.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench/reporting.hpp"
#include "circuit/dram_circuits.hpp"
#include "circuit/transient.hpp"
#include "model/refresh_model.hpp"
#include "model/single_cell.hpp"

namespace {

using namespace vrl;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string FmtTime(double seconds) {
  if (seconds >= 1.0) {
    return Fmt(seconds, 2) + " s";
  }
  if (seconds >= 1e-3) {
    return Fmt(seconds * 1e3, 2) + " ms";
  }
  return Fmt(seconds * 1e6, 1) + " us";
}

/// Circuit-reference pre-sensing time: run the charge-sharing array and
/// measure when the tracked cell has equilibrated with its bitline to the
/// same tolerance the analytical guarantee criterion uses.
Cycles CircuitPreSensingCycles(const TechnologyParams& tech, double* runtime) {
  const auto start = Clock::now();

  const double wl_rise =
      tech.wl_delay_per_column_s * static_cast<double>(tech.columns);
  const double t_wl = 0.1e-9;
  auto array = circuit::BuildChargeSharingArray(
      tech, DataPattern::kAllOnes, /*initial_charge_fraction=*/1.0, t_wl,
      wl_rise);

  circuit::TransientOptions options;
  options.t_stop_s = t_wl + wl_rise + 60e-9;
  options.dt_s = 20e-12;
  options.store_every = 1;
  const std::size_t mid = tech.columns / 2;
  const auto wave = circuit::RunTransient(
      array.netlist, options,
      {array.cell_nodes[mid], array.bitline_nodes[mid]});

  // Settle criterion: remaining cell-bitline difference below
  // (1 - 0.95) * 0.05 of the initial swing (matches the analytical model's
  // guarantee_settle_scale).
  const double initial_gap = std::abs(tech.vdd - tech.Veq());
  const double tolerance = (1.0 - 0.95) * 0.05 * initial_gap;
  double settle = -1.0;
  const auto& times = wave.times();
  const auto& cell = wave.Samples(array.cell_nodes[mid]);
  const auto& bitline = wave.Samples(array.bitline_nodes[mid]);
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] < t_wl) {
      continue;
    }
    if (std::abs(cell[i] - bitline[i]) <= tolerance) {
      settle = times[i] - t_wl;
      break;
    }
  }
  *runtime = SecondsSince(start);
  if (settle < 0.0) {
    throw NumericalError("table1: circuit never settled");
  }
  return std::max<Cycles>(1, SecondsToCyclesCeil(settle, tech.clock_period_s));
}

}  // namespace

int main(int argc, char** argv) {
  const auto report_options = bench::ParseFlags(argc, argv, bench::kOutput);
  bench::Report report("table1_accuracy");
  report.AddMeta("criterion", "pre-sensing cycles to guarantee a 95% restore");

  const std::size_t geometries[6][2] = {{2048, 32},  {2048, 128}, {8192, 32},
                                        {8192, 128}, {16384, 32}, {16384, 128}};

  TextTable& table = report.AddTable(
      "accuracy", {"bank size", "circuit", "single-cell", "ours", "t(circuit)",
                   "t(single)", "t(ours)"});
  for (const auto& g : geometries) {
    const TechnologyParams tech = TechnologyParams{}.WithGeometry(g[0], g[1]);

    double t_circuit = 0.0;
    const Cycles circuit_cycles = CircuitPreSensingCycles(tech, &t_circuit);

    auto start = Clock::now();
    const model::SingleCellModel single(tech);
    const Cycles single_cycles = single.PreSensingCycles();
    const double t_single = SecondsSince(start);

    start = Clock::now();
    const model::RefreshModel ours(tech);
    const Cycles ours_cycles =
        ours.MinPreSensingCycles(0.95, ours.FullRefreshTimings().tau_post);
    const double t_ours = SecondsSince(start);

    table.AddRow({tech.GeometryLabel(), std::to_string(circuit_cycles),
                  std::to_string(single_cycles), std::to_string(ours_cycles),
                  FmtTime(t_circuit), FmtTime(t_single), FmtTime(t_ours)});
  }
  report.AddMeta("paper_note",
                 "SPICE grows 7->16 cycles with bank size; ours tracks it "
                 "within 0-12.5%; single-cell flat at 6 (up to 62.5% off); "
                 "SPICE takes hours, ours seconds");
  report.AddMeta("model_note",
                 "our lumped transient circuit settles with the fast "
                 "cell-bitline constant (Rpre*Cs) and therefore does NOT "
                 "reproduce the paper's SPICE geometry scaling — that scaling "
                 "comes from Eq. 3's slow Rpre*Cbl mode, which the analytical "
                 "model ('ours' column) implements faithfully.  See "
                 "EXPERIMENTS.md");
  report.Emit(report_options, std::cout);
  return 0;
}
