#include "model/presensing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace vrl::model {

namespace {

TechnologyParams Validated(const TechnologyParams& tech) {
  tech.Validate();
  return tech;
}

}  // namespace

PreSensingModel::PreSensingModel(const TechnologyParams& tech)
    : tech_(Validated(tech)),
      denom_(tech_.cs + tech_.Cbl() + 2.0 * tech_.Cbb() + tech_.Cbw()),
      factor_(K2(), tech_.columns) {
  const std::size_t mid = tech_.columns / 2;
  const double k1 = K1();
  const double veq = tech_.Veq();
  for (std::size_t p = 0; p < probes_.size(); ++p) {
    // The last probe flips the tracked cell's parity: under the
    // alternating pattern a one-cell shift swaps the neighbours' data.
    const bool shifted = p == kAllDataPatterns.size();
    const DataPattern pattern =
        shifted ? DataPattern::kAlternating : kAllDataPatterns[p];
    Probe& probe = probes_[p];
    probe.rhs.resize(tech_.columns);
    for (std::size_t i = 0; i < tech_.columns; ++i) {
      const double cell =
          CellValue(pattern, shifted ? i + 1 : i) ? tech_.vdd : tech_.vss;
      probe.rhs[i] = k1 * (cell - veq);
    }
    // Rows above the tracked cell do not depend on its charge.
    double d = 0.0;
    for (std::size_t i = 0; i < mid; ++i) {
      d = factor_.ForwardStep(i, probe.rhs[i], d);
    }
    probe.d_before_mid = d;
  }
}

double PreSensingModel::K1() const { return tech_.cs / denom_; }

double PreSensingModel::K2() const { return tech_.Cbb() / denom_; }

double PreSensingModel::Rpre() const { return tech_.ron_access + tech_.Rbl(); }

double PreSensingModel::U(double t_s) const {
  if (t_s <= 0.0) {
    return 1.0;
  }
  // U(t) = [Cs*exp(-t/(Rpre*Cbl)) + Cbl*exp(-t/(Rpre*Cs))] / (Cs + Cbl)
  const double cs = tech_.cs;
  const double cbl = tech_.Cbl();
  const double rpre = Rpre();
  const double slow = cs * std::exp(-t_s / (rpre * cbl));
  const double fast = cbl * std::exp(-t_s / (rpre * cs));
  return (slow + fast) / (cs + cbl);
}

std::vector<double> PreSensingModel::SenseVoltages(
    const std::vector<double>& cell_voltages) const {
  if (cell_voltages.size() != tech_.columns) {
    throw ConfigError("PreSensingModel: need one cell voltage per column (" +
                      std::to_string(tech_.columns) + "), got " +
                      std::to_string(cell_voltages.size()));
  }
  std::vector<double> vsense(cell_voltages.size());
  const double k1 = K1();
  const double veq = tech_.Veq();
  for (std::size_t i = 0; i < cell_voltages.size(); ++i) {
    // Signed form of the paper's Lself_{i,j} = |Vs(τeq) - Vbl(τeq)|; the
    // sign carries the direction the bitline will move.
    vsense[i] = k1 * (cell_voltages[i] - veq);
  }
  factor_.Solve(vsense, vsense);
  return vsense;
}

std::vector<double> PreSensingModel::SenseVoltagesForPattern(
    DataPattern pattern, double charge_fraction) const {
  std::vector<double> cells(tech_.columns);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const bool one = CellValue(pattern, i);
    cells[i] = one ? tech_.vss + charge_fraction * (tech_.vdd - tech_.vss)
                   : tech_.vss;
  }
  return SenseVoltages(cells);
}

double PreSensingModel::WorstSenseVoltage(DataPattern pattern,
                                          double charge_fraction) const {
  const auto vs = SenseVoltagesForPattern(pattern, charge_fraction);
  double worst = std::numeric_limits<double>::max();
  for (const double v : vs) {
    worst = std::min(worst, std::abs(v));
  }
  return worst;
}

double PreSensingModel::WorstSenseVoltageAllPatterns(
    double charge_fraction) const {
  double worst = std::numeric_limits<double>::max();
  for (const DataPattern pattern : kAllDataPatterns) {
    worst = std::min(worst, WorstSenseVoltage(pattern, charge_fraction));
  }
  return worst;
}

double PreSensingModel::TrackedRhs(double charge_fraction) const {
  const double cell = tech_.vss + charge_fraction * (tech_.vdd - tech_.vss);
  return K1() * (cell - tech_.Veq());
}

namespace {

/// The calling thread's probe scratch, grown to at least `size` entries and
/// kept for its next call: a probe evaluation allocates nothing once the
/// thread has seen its geometry.
double* ProbeScratch(std::size_t size) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < size) {
    scratch.resize(size);
  }
  return scratch.data();
}

}  // namespace

template <std::size_t N>
std::array<double, N> PreSensingModel::ProbeSenseVoltages(
    const std::array<const Probe*, N>& probes, double rhs_mid) const {
  // Finish each forward sweep from the tracked row, then back-substitute
  // down to it; scratch[j * N + p] holds probe p's row mid + j.  The N
  // sweeps are independent chains of divisions, so interleaving them lets
  // their latencies overlap without changing any operation.
  const std::size_t n = tech_.columns;
  const std::size_t mid = n / 2;
  double* const scratch = ProbeScratch((n - mid) * N);
  std::array<double, N> carry;
  for (std::size_t p = 0; p < N; ++p) {
    carry[p] = factor_.ForwardStep(mid, rhs_mid, probes[p]->d_before_mid);
    scratch[p] = carry[p];
  }
  for (std::size_t i = mid + 1; i < n; ++i) {
    double* const row = scratch + (i - mid) * N;
    for (std::size_t p = 0; p < N; ++p) {
      carry[p] = factor_.ForwardStep(i, probes[p]->rhs[i], carry[p]);
      row[p] = carry[p];
    }
  }
  for (std::size_t i = n - 1; i-- > mid;) {
    const double* const row = scratch + (i - mid) * N;
    for (std::size_t p = 0; p < N; ++p) {
      carry[p] = factor_.BackStep(i, row[p], carry[p]);
    }
  }
  return carry;
}

double PreSensingModel::TrackedSenseVoltage(DataPattern pattern,
                                            double charge_fraction) const {
  const auto it = std::find(kAllDataPatterns.begin(), kAllDataPatterns.end(),
                            pattern);
  const auto p = static_cast<std::size_t>(it - kAllDataPatterns.begin());
  const std::array<const Probe*, 1> probe = {&probes_[p]};
  return ProbeSenseVoltages(probe, TrackedRhs(charge_fraction))[0];
}

double PreSensingModel::WorstTrackedSenseVoltage(
    double charge_fraction) const {
  std::array<const Probe*, kAllDataPatterns.size() + 1> all;
  for (std::size_t p = 0; p < all.size(); ++p) {
    all[p] = &probes_[p];
  }
  const auto voltages = ProbeSenseVoltages(all, TrackedRhs(charge_fraction));
  // The min runs over the probes in their order, as it did one at a time.
  double worst = std::numeric_limits<double>::max();
  for (const double v : voltages) {
    worst = std::min(worst, v);
  }
  return worst;
}

double PreSensingModel::DevelopedVoltage(double vsense, double t_s) const {
  return std::abs(vsense) * (1.0 - U(t_s));
}

double PreSensingModel::UncoupledSenseVoltage(double cell_voltage) const {
  const double cs = tech_.cs;
  const double cbl = tech_.Cbl();
  return cs / (cs + cbl) * std::abs(cell_voltage - tech_.Veq());
}

}  // namespace vrl::model
