// Circuit waveform dumper: runs one of the paper's Fig. 2 circuits through
// the transient engine and writes the waveform as CSV for plotting.
//
//   ./circuit_waveform eq|share|refresh [output.csv] [--json PATH] [--csv PATH]
//   ./circuit_waveform deck eq|share|refresh [output.sp]
//
//   eq      — Fig. 2a equalization circuit (bitline pair to Veq)
//   share   — Fig. 2b/2c charge-sharing array (tracked middle bitline)
//   refresh — full refresh path (cell + access + sense amplifier)
//   deck    — instead of simulating, export the netlist as a SPICE deck
//             for cross-validation with an external simulator

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/reporting.hpp"
#include "circuit/dram_circuits.hpp"
#include "circuit/spice_export.hpp"
#include "circuit/transient.hpp"
#include "common/error.hpp"
#include "common/technology.hpp"

namespace {

using namespace vrl;

circuit::Netlist BuildByName(const std::string& which,
                             const TechnologyParams& tech) {
  if (which == "eq") {
    return circuit::BuildEqualizationCircuit(tech, 0.0).netlist;
  }
  if (which == "share") {
    return circuit::BuildChargeSharingArray(tech, DataPattern::kAlternating)
        .netlist;
  }
  if (which == "refresh") {
    return circuit::BuildRefreshPathCircuit(tech, true, 0.7, 0.5e-9, 5e-9)
        .netlist;
  }
  throw ConfigError("unknown circuit '" + which + "'");
}

void DumpCsv(const circuit::Waveform& wave, const std::string& path) {
  std::ofstream os(path);
  os << "time_ns";
  for (const auto& name : wave.signal_names()) {
    os << ',' << name;
  }
  os << '\n';
  for (std::size_t i = 0; i < wave.sample_count(); ++i) {
    os << wave.times()[i] * 1e9;
    for (const auto& name : wave.signal_names()) {
      os << ',' << wave.Samples(name)[i];
    }
    os << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  // `<circuit> [output.csv]`, or `deck <circuit> [output.sp]`: only the
  // deck form fills the third slot.
  std::string which = "refresh";
  std::string second;
  std::string third;
  const auto report_options = bench::ParseFlags(
      argc, argv, bench::kOutput,
      {{"circuit", &which}, {"output", &second}, {"deck_output", &third}});
  if (which != "deck" && !third.empty()) {
    std::fprintf(stderr, "error: unexpected argument '%s'\n", third.c_str());
    return 2;
  }
  const std::string path = second.empty() ? "/tmp/vrl_waveform.csv" : second;

  const TechnologyParams tech;
  circuit::TransientOptions options;

  if (which == "deck") {
    const std::string circuit_name = second.empty() ? "refresh" : second;
    const std::string deck_path = third.empty() ? "/tmp/vrl_deck.sp" : third;
    try {
      const auto netlist = BuildByName(circuit_name, tech);
      circuit::SpiceExportOptions deck_options;
      deck_options.title = "vrl-dram " + circuit_name + " circuit";
      deck_options.t_stop_s = 50e-9;
      std::ofstream os(deck_path);
      circuit::WriteSpiceDeck(netlist, deck_options, os);
      std::printf("wrote SPICE deck for '%s' to %s\n", circuit_name.c_str(),
                  deck_path.c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
    return 0;
  }

  circuit::Waveform wave;
  if (which == "eq") {
    auto eq = circuit::BuildEqualizationCircuit(tech, 0.0);
    options.t_stop_s = 3e-9;
    options.dt_s = 1e-12;
    options.store_every = 10;
    wave = circuit::RunTransient(eq.netlist, options, {eq.bl, eq.blb});
  } else if (which == "share") {
    auto array =
        circuit::BuildChargeSharingArray(tech, DataPattern::kAlternating);
    options.t_stop_s = 10e-9;
    options.dt_s = 10e-12;
    options.store_every = 5;
    const std::size_t mid = tech.columns / 2;
    wave = circuit::RunTransient(
        array.netlist, options,
        {array.bitline_nodes[mid], array.cell_nodes[mid],
         array.bitline_nodes[mid + 1]});
  } else if (which == "refresh") {
    auto path_circuit = circuit::BuildRefreshPathCircuit(
        tech, /*cell_value=*/true, /*initial_charge_fraction=*/0.7,
        /*t_wordline_s=*/0.5e-9, /*t_sense_s=*/5e-9);
    options.t_stop_s = 50e-9;
    options.dt_s = 10e-12;
    options.store_every = 5;
    wave = circuit::RunTransient(
        path_circuit.netlist, options,
        {path_circuit.cell, path_circuit.bl, path_circuit.blb});
  } else {
    std::fprintf(stderr, "usage: %s eq|share|refresh [output.csv]\n", argv[0]);
    return 1;
  }

  DumpCsv(wave, path);
  bench::Report report("circuit_waveform");
  report.AddMeta("circuit", which);
  report.AddMeta("samples", wave.sample_count());
  report.AddMeta("signals", wave.signal_count());
  report.AddMeta("waveform_csv", path);
  TextTable& finals = report.AddTable("final_values", {"signal", "final (V)"});
  for (const auto& name : wave.signal_names()) {
    finals.AddRow({name, Fmt(wave.FinalValue(name), 3)});
  }
  report.Emit(report_options, std::cout);
  return 0;
}
