// Validation harness: the analytical model against the transient circuit
// engine, beyond the spot checks of Fig. 5 / Table 1.
//
// Part A sweeps bank geometries and compares (1) the equalization settle
// time of the falling bitline and (2) the developed charge-sharing swing
// (coupling channel through the wordline disabled, since the paper's Eq. 7
// treats Cbw purely as load — see docs/MODEL.md).
//
// Part B grounds the model's sensing-margin parameter: it sweeps an
// input-referred sense-amplifier offset in the circuit and finds, by
// bisection on the cell's initial charge, the lowest fraction the latch
// still resolves correctly — the circuit's equivalent of the model's
// MinReadableFraction.

#include <array>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/reporting.hpp"
#include "telemetry/recorder.hpp"
#include "circuit/dram_circuits.hpp"
#include "circuit/transient.hpp"
#include "common/parallel.hpp"
#include "model/equalization.hpp"
#include "model/presensing.hpp"
#include "model/refresh_model.hpp"

namespace {

using namespace vrl;

/// Lowest initial charge fraction the circuit latch still reads as '1',
/// found by bisection (the outcome is monotone in the fraction).
double CircuitReadableFraction(const TechnologyParams& tech,
                               double sa_offset_v) {
  const auto reads_correctly = [&](double fraction) {
    auto path = circuit::BuildRefreshPathCircuit(
        tech, /*cell_value=*/true, fraction, /*t_wordline_s=*/0.2e-9,
        /*t_sense_s=*/0.2e-9 + 5e-9, sa_offset_v);
    circuit::TransientOptions options;
    options.t_stop_s = 30e-9;
    options.dt_s = 20e-12;
    options.store_every = 10;
    const auto wave =
        circuit::RunTransient(path.netlist, options, {path.cell});
    return wave.FinalValue(path.cell) > 0.5 * tech.vdd;
  };

  double lo = 0.5;   // read as '0' here
  double hi = 0.95;  // read as '1' here
  if (!reads_correctly(hi)) {
    return 1.0;
  }
  for (int i = 0; i < 12; ++i) {
    const double mid = 0.5 * (lo + hi);
    (reads_correctly(mid) ? hi : lo) = mid;
  }
  return hi;
}

}  // namespace

int main(int argc, char** argv) {
  const auto report_options =
      bench::ParseFlags(argc, argv, bench::kOutput | bench::kProfile);
  bench::Report report("validation_circuit");
  // The thread count goes to stderr: the report must not depend on it.
  std::cerr << "validation_circuit: " << vrl::DefaultThreadCount()
            << " threads\n";

  // --profile: attribute wall time to the transient circuit solves — the
  // dominant cost of this harness (docs/PROFILING.md).  Every parallel task
  // profiles into its own shard (telemetry::ParallelForShards); shards
  // merge in index order, so the tree is identical at any thread count.
  std::unique_ptr<telemetry::Recorder> profile_sink;
  if (report_options.profile) {
    telemetry::RecorderOptions recorder_options;
    recorder_options.profile_phases = true;
    profile_sink = std::make_unique<telemetry::Recorder>(recorder_options);
  }

  // ---- Part A: geometry sweep --------------------------------------------
  // One task per geometry; each builds its own circuits and models and
  // returns a finished table row into its index slot, so the table reads
  // identically at any thread count (common/parallel.hpp).
  TextTable& part_a = report.AddTable(
      "equalization_and_swing",
      {"bank", "t_eq model (ns)", "t_eq circuit (ns)", "dv model (mV)",
       "dv circuit (mV)"});
  const std::array<std::size_t, 3> geometries = {2048, 8192, 16384};
  std::vector<std::vector<std::string>> part_a_rows(geometries.size());
  telemetry::ParallelForShards(
      "circuit_equalization", geometries.size(), profile_sink.get(),
      [&](std::size_t g, telemetry::Recorder* shard) {
        TechnologyParams tech;
        tech.rows = geometries[g];
        tech.columns = 8;
        tech.cbw_ratio = 0.0;  // see header comment

        const telemetry::ScopedPhase solve_phase(
            shard ? shard->profiler() : nullptr, "circuit.solve");
        const model::EqualizationModel eq(tech);
        auto eq_circuit = circuit::BuildEqualizationCircuit(tech, 0.0);
        circuit::TransientOptions options;
        options.t_stop_s = 6e-9;
        options.dt_s = 2e-12;
        const auto eq_wave = circuit::RunTransient(eq_circuit.netlist,
                                                   options, {eq_circuit.bl});
        const double t_model = eq.SettleTime(model::BitlineSide::kHigh, 0.02);
        const double t_circuit =
            eq_wave.CrossingTime(eq_circuit.bl, tech.Veq() + 0.02, false);

        const model::PreSensingModel pre(tech);
        auto array = circuit::BuildChargeSharingArray(
            tech, DataPattern::kAllOnes, 1.0, 20e-12);
        circuit::TransientOptions share_options;
        share_options.t_stop_s = 30e-9;
        share_options.dt_s = 20e-12;
        const std::size_t mid = tech.columns / 2;
        const auto share_wave = circuit::RunTransient(
            array.netlist, share_options, {array.bitline_nodes[mid]});
        const double dv_model =
            pre.SenseVoltagesForPattern(DataPattern::kAllOnes, 1.0)[mid];
        const double dv_circuit =
            share_wave.FinalValue(array.bitline_nodes[mid]) - tech.Veq();

        part_a_rows[g] = {tech.GeometryLabel(), Fmt(t_model * 1e9, 2),
                          Fmt(t_circuit * 1e9, 2), Fmt(dv_model * 1e3, 1),
                          Fmt(dv_circuit * 1e3, 1)};
      });
  for (const auto& row : part_a_rows) {
    part_a.AddRow(row);
  }

  // ---- Part B: SA offset vs readable threshold -----------------------------
  const TechnologyParams tech;
  const model::RefreshModel refresh_model(tech);
  TextTable& part_b = report.AddTable(
      "sa_offset_vs_readable",
      {"offset (mV)", "circuit readable fraction", "model readable fraction"});
  const std::array<double, 4> offsets_mv = {0.0, 5.0, 10.0, 20.0};
  std::vector<std::vector<std::string>> part_b_rows(offsets_mv.size());
  telemetry::ParallelForShards(
      "circuit_sa_offset", offsets_mv.size(), profile_sink.get(),
      [&](std::size_t o, telemetry::Recorder* shard) {
        const double offset_mv = offsets_mv[o];
        TechnologyParams margin_tech = tech;
        // The model's margin parameter corresponds to the latch offset; a
        // zero-offset ideal latch still needs a small residual margin.
        margin_tech.v_sense_min = std::max(1e-3, offset_mv * 1e-3);
        const model::RefreshModel margin_model(margin_tech);
        const telemetry::ScopedPhase solve_phase(
            shard ? shard->profiler() : nullptr, "circuit.solve");
        part_b_rows[o] = {
            Fmt(offset_mv, 0),
            Fmt(CircuitReadableFraction(tech, offset_mv * 1e-3), 3),
            Fmt(margin_model.MinReadableFraction(), 3)};
      });
  for (const auto& row : part_b_rows) {
    part_b.AddRow(row);
  }
  report.AddMeta("paper_note",
                 "the model's v_sense_min=5mV default corresponds to a ~5mV "
                 "latch offset; both put the readable threshold a few points "
                 "above 50%");
  if (profile_sink) {
    report.AddProfile(*profile_sink);
    bench::WriteProfileOutput(report_options, *profile_sink);
  }
  report.Emit(report_options, std::cout);
  return 0;
}
