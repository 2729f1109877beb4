// Reproduces Fig. 5: "Voltage response during the equalization stage".
//
// Prints the bitline-pair voltages during equalization from three sources:
//  * the single-cell capacitor model of Li et al. (one RC exponential),
//  * our two-phase analytical model (Eq. 1-2), and
//  * the transient circuit simulation (the repo's SPICE substitute).
//
// Paper reference: all three agree on the complementary (rising) bitline;
// on the falling bitline the two-phase model tracks SPICE much more closely
// than the single-cell model, which misses the initial constant-current
// (saturation) phase.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "circuit/dram_circuits.hpp"
#include "circuit/transient.hpp"
#include "model/equalization.hpp"
#include "model/single_cell.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseFlags(argc, argv, bench::kOutput);
  const TechnologyParams tech;
  const model::EqualizationModel two_phase(tech);
  const model::SingleCellModel single_cell(tech);

  auto circuit = circuit::BuildEqualizationCircuit(tech, /*t_eq_assert_s=*/0.0);
  circuit::TransientOptions options;
  options.t_stop_s = 3e-9;
  options.dt_s = 1e-12;
  const auto wave =
      circuit::RunTransient(circuit.netlist, options, {circuit.bl, circuit.blb});

  bench::Report report("fig5_equalization");
  report.AddMeta("bank", tech.GeometryLabel());

  TextTable& table = report.AddTable(
      "voltage_response", {"time (ns)", "B:Li", "B:2-phase", "B:SPICE-sub",
                           "Bb:model", "Bb:SPICE-sub"});
  double err_two_phase = 0.0;
  double err_single = 0.0;
  int samples = 0;
  for (double t = 0.0; t <= 3.0e-9 + 1e-15; t += 0.1e-9) {
    const double li = single_cell.EqualizationVoltageAt(true, t);
    const double ours = two_phase.VoltageAt(model::BitlineSide::kHigh, t);
    const double spice = wave.ValueAt(circuit.bl, t);
    const double low_model = two_phase.VoltageAt(model::BitlineSide::kLow, t);
    const double low_spice = wave.ValueAt(circuit.blb, t);
    table.AddRow({Fmt(t * 1e9, 1), Fmt(li, 3), Fmt(ours, 3), Fmt(spice, 3),
                  Fmt(low_model, 3), Fmt(low_spice, 3)});
    err_two_phase += std::abs(ours - spice);
    err_single += std::abs(li - spice);
    ++samples;
  }

  report.AddMeta("mean_abs_error_two_phase_mV",
                 err_two_phase / samples * 1e3, 1);
  report.AddMeta("mean_abs_error_single_cell_mV",
                 err_single / samples * 1e3, 1);
  report.AddMeta("paper_note",
                 "the 2-phase model tracks SPICE closely on the falling "
                 "bitline; the single-cell model diverges");
  report.Emit(report_options, std::cout);
  return 0;
}
