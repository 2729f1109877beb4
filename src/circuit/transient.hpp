#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/waveform.hpp"

/// \file transient.hpp
/// Transient analysis of a Netlist: modified nodal analysis with
/// Newton–Raphson at each timestep and backward-Euler or trapezoidal
/// integration of capacitors.
///
/// This is the repo's SPICE substitute (see DESIGN.md §2): a fixed-timestep
/// engine accurate enough to serve as the golden reference for the
/// analytical model.  Each kind of work runs only as often as its inputs
/// change:
///  - per run: sources are absorbed into pinned nodes; the ground leak, the
///    resistors and the capacitor companion conductances are stamped into a
///    static matrix image; every MOSFET stamp is resolved to a matrix slot
///    or a pinned-column fold into the right-hand side; and a large, narrow
///    system (>= 64 unknowns, half-band <= 12) gets a BandedMatrix that
///    plans its elimination over the structural pattern (small or wide
///    systems use dense LU with partial pivoting);
///  - per step: the right-hand-side prefix (the resistors' and capacitors'
///    pinned columns plus the capacitor history currents) is built once;
///  - per Newton iteration: the image and the prefix are copied, the
///    MOSFETs are evaluated and stamped, and the system is solved in place.
/// Every matrix and right-hand-side entry gets the same IEEE operations in
/// the same order as a full restamp each iteration would give it.

namespace vrl::circuit {

enum class Integration {
  kBackwardEuler,  ///< L-stable, first order; robust default.
  kTrapezoidal,    ///< Second order; sharper on RC settling curves.
};

struct TransientOptions {
  double t_stop_s = 1e-9;      ///< Simulation end time [s].
  double dt_s = 1e-12;         ///< Fixed timestep [s].
  Integration method = Integration::kTrapezoidal;
  int max_newton_iterations = 60;
  double v_abstol = 1e-7;      ///< Newton voltage convergence [V].
  double newton_damping = 0.4; ///< Max |dV| per Newton update [V].
  std::size_t store_every = 1; ///< Keep every k-th sample (>=1).
};

/// Runs a transient analysis and records the voltages of `probe_nodes`
/// (node names) over time.
///
/// Initial state: node voltages from Netlist::SetInitialCondition (0 V if
/// unset), i.e. SPICE's "UIC" mode.  Sources snap to their waveform value
/// from the first step onward.
///
/// \throws vrl::NumericalError if Newton fails to converge at any step.
/// \throws vrl::ConfigError for bad options (a non-finite or non-positive
/// time, tolerance or damping, a step count t_stop / dt beyond
/// std::size_t, fewer than one Newton iteration, store_every 0), naming
/// the field, or for unknown probe names.
Waveform RunTransient(const Netlist& netlist, const TransientOptions& options,
                      const std::vector<std::string>& probe_nodes);

struct DcOptions {
  /// Sources are evaluated at this instant of their waveforms.
  double time_s = 0.0;
  int max_newton_iterations = 200;
  double v_abstol = 1e-9;
  double newton_damping = 0.2;
};

/// Solves the DC operating point: capacitors open, sources at their
/// `time_s` value.  Initial Newton guess comes from the netlist's initial
/// conditions.  Returns one voltage per node (index = NodeId).
///
/// \throws vrl::NumericalError if Newton fails to converge.
/// \throws vrl::ConfigError for a non-finite time_s, fewer than one Newton
/// iteration or a non-finite or non-positive tolerance or damping.
std::vector<double> SolveDc(const Netlist& netlist, const DcOptions& options);

}  // namespace vrl::circuit
