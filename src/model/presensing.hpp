#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/data_pattern.hpp"
#include "common/technology.hpp"
#include "common/tridiagonal.hpp"

/// \file presensing.hpp
/// §2.2 of the paper: charge-sharing (pre-sensing) model with
/// neighbouring-bitline coupling.
///
/// After wordline activation each cell shares charge with its bitline.  The
/// transient follows Eq. 3 (double-exponential U(t) with Rpre = ron1 + Rbl);
/// the asymptotic sense voltage on bitline i obeys the coupled system of
/// Eq. 7, whose closed form (Eq. 8) is a tridiagonal solve:
///
///   (I - K2*T) Vsense = K1 * Lself
///
/// where T has ones on the two off-diagonals.  We use the signed value of
/// Lself (positive when the cell pulls its bitline up, negative when down)
/// so opposite-data neighbours reduce each other's margin — this is what
/// makes the model data-pattern dependent.
///
/// The coupling matrix depends only on K2 and tech.columns, so the model
/// factors it once.  A tracked-cell probe differs from its fully-charged
/// pattern only at the middle bitline, so the forward sweep up to that
/// row is fixed per probe and each evaluation is a half sweep (see
/// docs/MODEL.md §2).

namespace vrl::model {

using vrl::DataPattern;

class PreSensingModel {
 public:
  explicit PreSensingModel(const TechnologyParams& tech);

  /// Coupling coefficients of Eq. 7.
  double K1() const;
  double K2() const;

  /// Rpre = ron1 + Rbl [Ohm].
  double Rpre() const;

  /// U(t) of Eq. 3 (fraction of the sense swing still undeveloped), with
  /// t measured from wordline activation (the paper's t - τeq).
  double U(double t_s) const;

  /// Signed asymptotic sense voltages for an explicit vector of initial
  /// cell voltages (one per bitline of tech.columns; stored value and decay
  /// folded into the voltage).  Bitlines are assumed equalized to Veq at
  /// activation.
  ///
  /// \throws vrl::ConfigError unless there is one voltage per column.
  std::vector<double> SenseVoltages(
      const std::vector<double>& cell_voltages) const;

  /// Signed sense voltages for a data pattern over tech.columns bitlines,
  /// with every "1" cell at `charge_fraction` of full level and every "0"
  /// cell at Vss.
  std::vector<double> SenseVoltagesForPattern(DataPattern pattern,
                                              double charge_fraction) const;

  /// The smallest sense-voltage magnitude across the array for a pattern —
  /// the cell that limits sensing.
  double WorstSenseVoltage(DataPattern pattern, double charge_fraction) const;

  /// Worst |Vsense| across the paper's four calibration patterns.
  double WorstSenseVoltageAllPatterns(double charge_fraction) const;

  /// Signed sense voltage of one *tracked* cell storing a '1' at
  /// `charge_fraction` of full level, surrounded by fully-charged
  /// neighbours following `pattern`.  Negative means the cell would be
  /// sensed as a '0' (data loss).
  double TrackedSenseVoltage(DataPattern pattern, double charge_fraction) const;

  /// Minimum (most pessimistic, signed) TrackedSenseVoltage over the four
  /// calibration patterns and over the tracked cell's parity (even/odd
  /// position, which flips its neighbours' data under the alternating
  /// pattern).
  double WorstTrackedSenseVoltage(double charge_fraction) const;

  /// Developed bitline swing at time t after activation: |dVbl(t)| =
  /// |vsense| * (1 - U(t))   [Eq. 5].
  double DevelopedVoltage(double vsense, double t_s) const;

  /// Uncoupled asymptotic swing Cs/(Cs+Cbl) * |Vs - Vbl|  [Eq. 4], used by
  /// tests and for comparison against the single-cell baseline.
  double UncoupledSenseVoltage(double cell_voltage) const;

 private:
  /// A tracked-cell probe: the fully-charged neighbours of one pattern.
  struct Probe {
    std::vector<double> rhs;    ///< K1 * (cell - Veq) of every bitline.
    double d_before_mid = 0.0;  ///< Forward-sweep d' of row columns/2 - 1.
  };

  /// Sense voltages of the tracked middle cell under each of `probes`,
  /// whose right-hand side is `rhs_mid`.  The probes run in lockstep, row
  /// by row: each takes exactly the steps it would take alone.
  template <std::size_t N>
  std::array<double, N> ProbeSenseVoltages(
      const std::array<const Probe*, N>& probes, double rhs_mid) const;

  /// K1 * (voltage - Veq) of the tracked cell at `charge_fraction`.
  double TrackedRhs(double charge_fraction) const;

  TechnologyParams tech_;
  double denom_;  ///< Cs + Cbl + 2Cbb + Cbw.
  CouplingFactor factor_;
  /// kAllDataPatterns in order, then alternating shifted by one bitline.
  std::array<Probe, kAllDataPatterns.size() + 1> probes_;
};

}  // namespace vrl::model
