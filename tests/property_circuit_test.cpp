// Property-based tests of the circuit engine: parameterized sweeps over
// device parameters, RC values, integration methods and matrix structures,
// asserting physical invariants rather than point values.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <tuple>

#include "circuit/banded.hpp"
#include "circuit/dram_circuits.hpp"
#include "circuit/linear.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/transient.hpp"
#include "common/rng.hpp"
#include "common/technology.hpp"

namespace vrl::circuit {
namespace {

// ---------------------------------------------------------------------------
// MOSFET invariants over a parameter sweep
// ---------------------------------------------------------------------------

class MosfetProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {
 protected:
  Mosfet MakeDevice(MosType type) const {
    const auto [vt, beta, lambda] = GetParam();
    return Mosfet{type, 1, 2, 3, {vt, beta, lambda}};
  }
};

TEST_P(MosfetProperty, CurrentSignMatchesVds) {
  const Mosfet device = MakeDevice(MosType::kNmos);
  for (double vg = 0.0; vg <= 2.0; vg += 0.25) {
    for (double vd = -1.2; vd <= 1.2; vd += 0.2) {
      const MosEval eval = EvaluateMosfet(device, vd, vg, 0.0);
      if (vd > 1e-9) {
        EXPECT_GE(eval.ids, 0.0) << "vg=" << vg << " vd=" << vd;
      } else if (vd < -1e-9) {
        EXPECT_LE(eval.ids, 0.0) << "vg=" << vg << " vd=" << vd;
      }
    }
  }
}

TEST_P(MosfetProperty, CurrentIsAntisymmetricInTerminalSwap) {
  const Mosfet device = MakeDevice(MosType::kNmos);
  for (double a = -0.8; a <= 1.2; a += 0.4) {
    for (double b = -0.8; b <= 1.2; b += 0.4) {
      const double vg = 1.0;
      const MosEval fwd = EvaluateMosfet(device, a, vg, b);
      const MosEval rev = EvaluateMosfet(device, b, vg, a);
      EXPECT_NEAR(fwd.ids, -rev.ids, 1e-15 + 1e-9 * std::abs(fwd.ids));
    }
  }
}

TEST_P(MosfetProperty, CurrentIsContinuousAcrossRegions) {
  // Scan vds through the cutoff->triode->saturation transitions and verify
  // no jumps larger than what the local slope explains.
  const Mosfet device = MakeDevice(MosType::kNmos);
  const double vg = 1.0;
  const double step = 1e-4;
  double prev = EvaluateMosfet(device, 0.0, vg, 0.0).ids;
  for (double vd = step; vd <= 1.5; vd += step) {
    const MosEval eval = EvaluateMosfet(device, vd, vg, 0.0);
    const double jump = std::abs(eval.ids - prev);
    // |di| <= (gds at either side + margin) * dv
    const double bound = (std::abs(eval.gds) + 1e-3) * step * 10.0 + 1e-12;
    EXPECT_LE(jump, bound) << "discontinuity near vd=" << vd;
    prev = eval.ids;
  }
}

TEST_P(MosfetProperty, GmIsNonNegativeForNmosForwardOperation) {
  const Mosfet device = MakeDevice(MosType::kNmos);
  for (double vg = 0.0; vg <= 2.0; vg += 0.2) {
    for (double vd = 0.05; vd <= 1.2; vd += 0.2) {
      const MosEval eval = EvaluateMosfet(device, vd, vg, 0.0);
      EXPECT_GE(eval.gm, -1e-15);
    }
  }
}

TEST_P(MosfetProperty, PmosMirrorsNmosEverywhere) {
  const Mosfet nmos = MakeDevice(MosType::kNmos);
  const Mosfet pmos = MakeDevice(MosType::kPmos);
  for (double vd = -1.0; vd <= 1.0; vd += 0.5) {
    for (double vg = -1.5; vg <= 1.5; vg += 0.5) {
      for (double vs = -1.0; vs <= 1.0; vs += 0.5) {
        const MosEval en = EvaluateMosfet(nmos, vd, vg, vs);
        const MosEval ep = EvaluateMosfet(pmos, -vd, -vg, -vs);
        EXPECT_NEAR(ep.ids, -en.ids, 1e-15 + 1e-9 * std::abs(en.ids));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DeviceCorners, MosfetProperty,
    ::testing::Values(std::make_tuple(0.4, 1e-3, 0.0),
                      std::make_tuple(0.4, 1e-3, 0.05),
                      std::make_tuple(0.3, 5e-3, 0.1),
                      std::make_tuple(0.6, 2e-4, 0.02),
                      std::make_tuple(0.2, 1e-2, 0.0)));

// ---------------------------------------------------------------------------
// RC transients across R, C, dt and method
// ---------------------------------------------------------------------------

struct RcCase {
  double r_ohms;
  double c_farads;
  double dt_s;
  Integration method;
};

// Names each case in the test list ("R1000_C1000fF_Trapezoidal"); gtest's
// default is a byte dump that includes the struct's padding, which
// changes from build to build.
void PrintTo(const RcCase& c, std::ostream* os) {
  *os << 'R' << std::llround(c.r_ohms) << "_C"
      << std::llround(c.c_farads * 1e15) << "fF_"
      << (c.method == Integration::kTrapezoidal ? "Trapezoidal"
                                                : "BackwardEuler");
}

class RcProperty : public ::testing::TestWithParam<RcCase> {};

TEST_P(RcProperty, DischargeMatchesAnalytic) {
  const RcCase c = GetParam();
  Netlist netlist;
  const NodeId top = netlist.Node("top");
  netlist.AddResistor(top, kGround, c.r_ohms);
  netlist.AddCapacitor(top, kGround, c.c_farads);
  netlist.SetInitialCondition(top, 1.0);

  const double rc = c.r_ohms * c.c_farads;
  TransientOptions options;
  options.t_stop_s = 3.0 * rc;
  options.dt_s = c.dt_s * rc;  // dt scaled to the time constant
  options.method = c.method;
  const Waveform wave = RunTransient(netlist, options, {"top"});

  for (const double frac : {0.5, 1.0, 2.0}) {
    const double t = frac * rc;
    // First-order methods at coarse steps: allow error ~ dt/rc.
    const double tolerance = 2.0 * c.dt_s + 1e-4;
    EXPECT_NEAR(wave.ValueAt("top", t), std::exp(-frac), tolerance)
        << "R=" << c.r_ohms << " C=" << c.c_farads;
  }
}

TEST_P(RcProperty, VoltageDecaysMonotonically) {
  const RcCase c = GetParam();
  Netlist netlist;
  const NodeId top = netlist.Node("top");
  netlist.AddResistor(top, kGround, c.r_ohms);
  netlist.AddCapacitor(top, kGround, c.c_farads);
  netlist.SetInitialCondition(top, 1.0);

  TransientOptions options;
  const double rc = c.r_ohms * c.c_farads;
  options.t_stop_s = 3.0 * rc;
  options.dt_s = c.dt_s * rc;
  options.method = c.method;
  const Waveform wave = RunTransient(netlist, options, {"top"});
  const auto& samples = wave.Samples("top");
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i], samples[i - 1] + 1e-9);
    EXPECT_GE(samples[i], -1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RcGrid, RcProperty,
    ::testing::Values(RcCase{1e3, 1e-12, 0.002, Integration::kTrapezoidal},
                      RcCase{1e3, 1e-12, 0.002, Integration::kBackwardEuler},
                      RcCase{50.0, 100e-15, 0.001, Integration::kTrapezoidal},
                      RcCase{1e6, 10e-15, 0.005, Integration::kBackwardEuler},
                      RcCase{25e3, 24e-15, 0.001, Integration::kTrapezoidal},
                      RcCase{10.0, 1e-9, 0.002, Integration::kTrapezoidal}));

// ---------------------------------------------------------------------------
// Charge conservation in capacitive dividers
// ---------------------------------------------------------------------------

class ChargeConservation
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(ChargeConservation, FinalVoltageIsChargeWeightedAverage) {
  const auto [c1, c2, v1] = GetParam();
  Netlist netlist;
  const NodeId a = netlist.Node("a");
  const NodeId b = netlist.Node("b");
  netlist.AddCapacitor(a, kGround, c1);
  netlist.AddCapacitor(b, kGround, c2);
  netlist.AddResistor(a, b, 10e3);
  netlist.SetInitialCondition(a, v1);
  netlist.SetInitialCondition(b, 0.3);

  TransientOptions options;
  const double tau = 10e3 * (c1 * c2) / (c1 + c2);
  options.t_stop_s = 20.0 * tau;
  options.dt_s = tau / 50.0;
  const Waveform wave = RunTransient(netlist, options, {"a", "b"});

  const double expected = (c1 * v1 + c2 * 0.3) / (c1 + c2);
  EXPECT_NEAR(wave.FinalValue("a"), expected, 2e-3);
  EXPECT_NEAR(wave.FinalValue("b"), expected, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    CapacitorRatios, ChargeConservation,
    ::testing::Values(std::make_tuple(24e-15, 200e-15, 1.2),
                      std::make_tuple(24e-15, 24e-15, 1.2),
                      std::make_tuple(500e-15, 24e-15, 0.9),
                      std::make_tuple(10e-15, 1000e-15, 1.0)));

// ---------------------------------------------------------------------------
// Banded solver equals dense solver on random banded systems
// ---------------------------------------------------------------------------

class BandedVsDense
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(BandedVsDense, SolutionsAgree) {
  const auto [n, halfband] = GetParam();
  Rng rng(n * 1000 + halfband);
  BandedMatrix band(n, halfband);
  DenseMatrix dense(n, n);
  std::vector<double> rhs(n);

  for (std::size_t i = 0; i < n; ++i) {
    double offdiag_sum = 0.0;
    const std::size_t lo = i > halfband ? i - halfband : 0;
    const std::size_t hi = std::min(n - 1, i + halfband);
    for (std::size_t j = lo; j <= hi; ++j) {
      if (j == i) {
        continue;
      }
      const double v = rng.Uniform(-1.0, 1.0);
      band.At(i, j) = v;
      dense.At(i, j) = v;
      offdiag_sum += std::abs(v);
    }
    // Diagonal dominance (the banded solver's contract).
    const double d = offdiag_sum + rng.Uniform(0.5, 2.0);
    band.At(i, i) = d;
    dense.At(i, i) = d;
    rhs[i] = rng.Uniform(-5.0, 5.0);
  }

  std::vector<double> xb = rhs;
  band.SolveInPlace(xb);
  std::vector<double> xd = rhs;
  SolveInPlace(dense, xd);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(xb[i], xd[i], 1e-9 * (1.0 + std::abs(xd[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BandedVsDense,
    ::testing::Values(std::make_tuple(std::size_t{5}, std::size_t{1}),
                      std::make_tuple(std::size_t{20}, std::size_t{2}),
                      std::make_tuple(std::size_t{64}, std::size_t{3}),
                      std::make_tuple(std::size_t{100}, std::size_t{6}),
                      std::make_tuple(std::size_t{128}, std::size_t{1}),
                      std::make_tuple(std::size_t{33}, std::size_t{8})));

// ---------------------------------------------------------------------------
// Engine equivalence: banded fast path vs dense on a real array netlist
// ---------------------------------------------------------------------------

TEST(EnginePaths, LargeArrayMatchesSmallArrayPhysics) {
  // A 72-bitline array (banded path) must show the same per-bitline physics
  // as an 8-bitline one (dense path): identical charge-sharing swing in the
  // interior for the same technology.
  TechnologyParams small;
  small.rows = 2048;
  small.columns = 8;
  TechnologyParams large = small;
  large.columns = 72;

  TransientOptions options;
  options.t_stop_s = 20e-9;
  options.dt_s = 20e-12;

  auto run = [&](const TechnologyParams& tech) {
    auto array = BuildChargeSharingArray(tech, DataPattern::kAllOnes);
    const std::size_t mid = tech.columns / 2;
    const auto wave =
        RunTransient(array.netlist, options, {array.bitline_nodes[mid]});
    return wave.FinalValue(array.bitline_nodes[mid]);
  };

  EXPECT_NEAR(run(small), run(large), 2e-3);
}

}  // namespace
}  // namespace vrl::circuit
