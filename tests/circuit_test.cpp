#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "circuit/banded.hpp"
#include "circuit/dram_circuits.hpp"
#include "circuit/linear.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/transient.hpp"
#include "common/error.hpp"
#include "common/technology.hpp"

namespace vrl::circuit {
namespace {

// ---------------------------------------------------------------------------
// Dense / banded linear algebra
// ---------------------------------------------------------------------------

TEST(DenseSolve, SolvesKnown3x3) {
  DenseMatrix a(3, 3);
  // [[4,1,0],[1,3,1],[0,1,2]] x = [9, 13, 8] -> x = [2, 1, 3.5]... solve by
  // construction instead: pick x, compute b.
  const double m[3][3] = {{4, 1, 0}, {1, 3, 1}, {0, 1, 2}};
  const double x_ref[3] = {2.0, -1.0, 3.0};
  std::vector<double> b(3, 0.0);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      a.At(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) = m[r][c];
      b[static_cast<std::size_t>(r)] += m[r][c] * x_ref[c];
    }
  }
  SolveInPlace(a, b);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(b[static_cast<std::size_t>(i)], x_ref[i], 1e-12);
  }
}

TEST(DenseSolve, PivotsOnZeroDiagonal) {
  DenseMatrix a(2, 2);
  a.At(0, 0) = 0.0;
  a.At(0, 1) = 1.0;
  a.At(1, 0) = 1.0;
  a.At(1, 1) = 0.0;
  std::vector<double> b{3.0, 7.0};  // x = [7, 3]
  SolveInPlace(a, b);
  EXPECT_NEAR(b[0], 7.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(DenseSolve, ThrowsOnSingular) {
  DenseMatrix a(2, 2);
  a.At(0, 0) = 1.0;
  a.At(0, 1) = 2.0;
  a.At(1, 0) = 2.0;
  a.At(1, 1) = 4.0;
  std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(SolveInPlace(a, b), NumericalError);
}

TEST(BandedSolve, MatchesDenseOnTridiagonal) {
  const std::size_t n = 20;
  BandedMatrix band(n, 1);
  DenseMatrix dense(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    band.At(i, i) = 4.0;
    dense.At(i, i) = 4.0;
    if (i + 1 < n) {
      band.At(i, i + 1) = -1.0;
      band.At(i + 1, i) = -2.0;
      dense.At(i, i + 1) = -1.0;
      dense.At(i + 1, i) = -2.0;
    }
    b[i] = static_cast<double>(i) + 1.0;
  }
  std::vector<double> xb = b;
  band.SolveInPlace(xb);
  std::vector<double> xd = b;
  SolveInPlace(dense, xd);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(xb[i], xd[i], 1e-10);
  }
}

TEST(BandedSolve, WiderBandMatchesDense) {
  const std::size_t n = 30;
  const std::size_t hb = 3;
  BandedMatrix band(n, hb);
  DenseMatrix dense(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = (i > hb ? i - hb : 0); j <= std::min(n - 1, i + hb);
         ++j) {
      const double v = (i == j) ? 10.0 : 1.0 / (1.0 + std::abs(double(i) - double(j)));
      band.At(i, j) = v;
      dense.At(i, j) = v;
    }
    b[i] = std::sin(static_cast<double>(i));
  }
  std::vector<double> xb = b;
  band.SolveInPlace(xb);
  std::vector<double> xd = b;
  SolveInPlace(dense, xd);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(xb[i], xd[i], 1e-9);
  }
}

TEST(BandedMatrix, OutOfBandReadIsZeroWriteThrows) {
  BandedMatrix band(5, 1);
  const BandedMatrix& cband = band;
  EXPECT_EQ(cband.At(0, 3), 0.0);
  EXPECT_THROW(band.At(0, 3) = 1.0, NumericalError);
  // Rows and columns at or past n are outside the band, however close to
  // the diagonal.
  EXPECT_FALSE(band.InBand(5, 4));
  EXPECT_FALSE(band.InBand(4, 5));
  EXPECT_FALSE(band.InBand(5, 5));
  EXPECT_EQ(cband.At(5, 4), 0.0);
  EXPECT_THROW(band.At(5, 4) = 1.0, NumericalError);
  EXPECT_THROW(band.At(4, 5) = 1.0, NumericalError);
  EXPECT_THROW(band.At(6, 6) = 1.0, NumericalError);

  BandedMatrix empty(0, 2);
  const BandedMatrix& cempty = empty;
  EXPECT_FALSE(empty.InBand(0, 0));
  EXPECT_EQ(cempty.At(0, 0), 0.0);
  EXPECT_THROW(empty.At(0, 0) = 1.0, NumericalError);
  std::vector<double> none;
  empty.SolveInPlace(none);
  EXPECT_TRUE(none.empty());
}

TEST(BandedMatrix, PatternFixesTheWritableStructure) {
  // Tridiagonal pattern on a halfband-2 band: (2, 0) is neither pattern
  // nor fill, (1, 2) is pattern, the diagonal is always structural.
  const BandedMatrix band(4, 2, {{0, 1}, {1, 0}, {1, 2}, {2, 1}});
  EXPECT_NO_THROW(band.Slot(3, 3));
  EXPECT_NO_THROW(band.Slot(1, 2));
  EXPECT_THROW(band.Slot(2, 0), NumericalError);
  EXPECT_THROW(band.Slot(0, 2), NumericalError);
  // Pivot 0 of this arrow has multiplier row 2 and U columns 1 and 2, so
  // it fills (2, 1); (1, 0) stays outside the structure.
  const BandedMatrix arrow(3, 2, {{0, 2}, {2, 0}, {0, 1}});
  EXPECT_NO_THROW(arrow.Slot(2, 1));
  EXPECT_THROW(arrow.Slot(1, 0), NumericalError);
  EXPECT_THROW(BandedMatrix(4, 1, {{0, 2}}), NumericalError);
  EXPECT_THROW(BandedMatrix(4, 1, {{4, 4}}), NumericalError);
}

/// A banded system given by its structural pattern, one value per pattern
/// entry, and a right-hand side.
struct BandedSystem {
  std::size_t n = 0;
  std::size_t halfband = 0;
  std::vector<BandedMatrix::Entry> pattern;
  std::vector<double> values;
  std::vector<double> rhs;
};

/// A diagonally dominant system on a random structure: off-diagonal band
/// entries are structural with probability `density`, and one in ten
/// structural entries holds an exact zero.
BandedSystem MakeRandomBandedSystem(std::size_t n, std::size_t hb,
                                    double density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  BandedSystem sys{n, hb, {}, {}, {}};
  for (std::size_t r = 0; r < n; ++r) {
    double row_sum = 0.0;
    const std::size_t lo = r > hb ? r - hb : 0;
    const std::size_t hi = std::min(n - 1, r + hb);
    for (std::size_t c = lo; c <= hi; ++c) {
      if (c == r || unit(rng) >= density) {
        continue;
      }
      const double v = unit(rng) < 0.1 ? 0.0 : 2.0 * unit(rng) - 1.0;
      sys.pattern.emplace_back(r, c);
      sys.values.push_back(v);
      row_sum += std::abs(v);
    }
    sys.pattern.emplace_back(r, r);
    sys.values.push_back((unit(rng) < 0.5 ? -1.0 : 1.0) *
                         (row_sum + 0.5 + unit(rng)));
    sys.rhs.push_back(4.0 * unit(rng) - 2.0);
  }
  return sys;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Solves `sys` with the full band and with the planned elimination and
/// expects the same bits in the solutions and the factors, and the same
/// zero-pivot throw.  Returns whether the solves threw.
bool ExpectPlannedSolveMatchesFullBand(const BandedSystem& sys) {
  BandedMatrix full(sys.n, sys.halfband);
  BandedMatrix planned(sys.n, sys.halfband, sys.pattern);
  for (std::size_t i = 0; i < sys.pattern.size(); ++i) {
    const auto [r, c] = sys.pattern[i];
    full.At(r, c) = sys.values[i];
    planned.At(r, c) = sys.values[i];
  }
  EXPECT_TRUE(SameBits(full.values(), planned.values()));
  const auto solve = [](BandedMatrix& m, std::vector<double>& x) {
    try {
      m.SolveInPlace(x);
    } catch (const NumericalError&) {
      return true;
    }
    return false;
  };
  std::vector<double> x_full = sys.rhs;
  std::vector<double> x_planned = sys.rhs;
  const bool full_threw = solve(full, x_full);
  EXPECT_EQ(solve(planned, x_planned), full_threw);
  EXPECT_TRUE(SameBits(x_full, x_planned));
  EXPECT_TRUE(SameBits(full.values(), planned.values()));
  return full_threw;
}

TEST(BandedSolve, PlannedEliminationIsBitIdenticalToFullBand) {
  std::uint64_t seed = 1;
  for (const std::size_t n : {1, 2, 3, 64, 97, 384}) {
    for (const std::size_t hb : {0, 1, 3, 12}) {
      for (const double density : {0.15, 0.4, 0.8}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " hb=" + std::to_string(hb) +
                     " density=" + std::to_string(density));
        EXPECT_FALSE(ExpectPlannedSolveMatchesFullBand(
            MakeRandomBandedSystem(n, hb, density, seed++)));
      }
    }
  }
  // Row 2 equals row 1 once row 0 is eliminated: pivot 2 cancels exactly.
  const BandedSystem singular{
      4,
      1,
      {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 3}},
      {2.0, 1.0, 2.0, 3.0, 1.0, 2.0, 1.0, 1.0},
      {1.0, 2.0, 3.0, 4.0}};
  EXPECT_TRUE(ExpectPlannedSolveMatchesFullBand(singular));
}

// ---------------------------------------------------------------------------
// MOSFET model
// ---------------------------------------------------------------------------

TEST(Mosfet, CutoffHasNoCurrent) {
  Mosfet m{MosType::kNmos, 1, 2, 3, {0.4, 1e-3, 0.0}};
  const MosEval eval = EvaluateMosfet(m, 1.0, 0.3, 0.0);  // vgs < vt
  EXPECT_NEAR(eval.ids, 0.0, 1e-9);
  EXPECT_EQ(eval.gm, 0.0);
}

TEST(Mosfet, SaturationCurrentMatchesSquareLaw) {
  const double beta = 2e-3;
  Mosfet m{MosType::kNmos, 1, 2, 3, {0.4, beta, 0.0}};
  // vgs = 1.0, vds = 1.2 > vov = 0.6 -> saturation
  const MosEval eval = EvaluateMosfet(m, 1.2, 1.0, 0.0);
  EXPECT_NEAR(eval.ids, 0.5 * beta * 0.6 * 0.6, 1e-12);
  EXPECT_NEAR(eval.gm, beta * 0.6, 1e-12);
}

TEST(Mosfet, TriodeCurrentMatchesFormula) {
  const double beta = 2e-3;
  Mosfet m{MosType::kNmos, 1, 2, 3, {0.4, beta, 0.0}};
  // vgs = 1.2, vov = 0.8, vds = 0.2 -> triode
  const MosEval eval = EvaluateMosfet(m, 0.2, 1.2, 0.0);
  EXPECT_NEAR(eval.ids, beta * (0.8 * 0.2 - 0.5 * 0.2 * 0.2), 1e-12);
}

TEST(Mosfet, SymmetricWhenTerminalsSwap) {
  // ids(d=a, s=b) == -ids(d=b, s=a)
  Mosfet m{MosType::kNmos, 1, 2, 3, {0.4, 1e-3, 0.0}};
  const MosEval fwd = EvaluateMosfet(m, 0.9, 1.2, 0.1);
  const MosEval rev = EvaluateMosfet(m, 0.1, 1.2, 0.9);
  EXPECT_NEAR(fwd.ids, -rev.ids, 1e-15);
}

TEST(Mosfet, PmosMirrorsNmos) {
  Mosfet n{MosType::kNmos, 1, 2, 3, {0.4, 1e-3, 0.0}};
  Mosfet p{MosType::kPmos, 1, 2, 3, {0.4, 1e-3, 0.0}};
  const MosEval en = EvaluateMosfet(n, 1.0, 1.2, 0.0);
  const MosEval ep = EvaluateMosfet(p, -1.0, -1.2, 0.0);
  EXPECT_NEAR(ep.ids, -en.ids, 1e-15);
  EXPECT_NEAR(std::abs(ep.gm), std::abs(en.gm), 1e-15);
}

TEST(Mosfet, DerivativesMatchFiniteDifference) {
  Mosfet m{MosType::kNmos, 1, 2, 3, {0.4, 1.5e-3, 0.05}};
  const double vd = 0.55;  // triode: vds = 0.45 < vov = 0.6
  const double vg = 1.1;
  const double vs = 0.1;
  const double h = 1e-7;
  const MosEval base = EvaluateMosfet(m, vd, vg, vs);
  const MosEval dg = EvaluateMosfet(m, vd, vg + h, vs);
  const MosEval dd = EvaluateMosfet(m, vd + h, vg, vs);
  EXPECT_NEAR((dg.ids - base.ids) / h, base.gm, 1e-4 * std::abs(base.gm) + 1e-9);
  EXPECT_NEAR((dd.ids - base.ids) / h, base.gds,
              1e-4 * std::abs(base.gds) + 1e-9);
}

// ---------------------------------------------------------------------------
// Netlist
// ---------------------------------------------------------------------------

TEST(Netlist, GroundAliases) {
  Netlist n;
  EXPECT_EQ(n.Node("0"), kGround);
  EXPECT_EQ(n.Node("gnd"), kGround);
}

TEST(Netlist, NodesAreInterned) {
  Netlist n;
  const NodeId a = n.Node("x");
  EXPECT_EQ(n.Node("x"), a);
  EXPECT_NE(n.Node("y"), a);
  EXPECT_EQ(n.NodeName(a), "x");
}

TEST(Netlist, NodeOrThrowRejectsUnknown) {
  Netlist n;
  EXPECT_THROW(n.NodeOrThrow("nope"), ConfigError);
}

TEST(Netlist, RejectsNonPositiveDevices) {
  Netlist n;
  const NodeId a = n.Node("a");
  EXPECT_THROW(n.AddResistor(a, kGround, 0.0), ConfigError);
  EXPECT_THROW(n.AddCapacitor(a, kGround, -1e-15), ConfigError);
}

TEST(Netlist, RejectsUnsortedPwl) {
  Netlist n;
  const NodeId a = n.Node("a");
  EXPECT_THROW(n.AddVpwl(a, kGround, {{1.0, 0.0}, {0.5, 1.0}}), ConfigError);
}

TEST(VoltageSourceWaveform, InterpolatesAndClamps) {
  VoltageSource src{1, 0, {{0.0, 0.0}, {1e-9, 1.0}}};
  EXPECT_DOUBLE_EQ(src.ValueAt(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(src.ValueAt(0.5e-9), 0.5);
  EXPECT_DOUBLE_EQ(src.ValueAt(2e-9), 1.0);
}

// ---------------------------------------------------------------------------
// Transient engine vs. closed-form RC answers
// ---------------------------------------------------------------------------

TEST(Transient, RcDischargeMatchesAnalytic) {
  // 1k / 1pF from 1V: v(t) = exp(-t/RC).
  Netlist n;
  const NodeId top = n.Node("top");
  n.AddResistor(top, kGround, 1e3);
  n.AddCapacitor(top, kGround, 1e-12);
  n.SetInitialCondition(top, 1.0);

  TransientOptions opt;
  opt.t_stop_s = 3e-9;
  opt.dt_s = 1e-12;
  const Waveform wave = RunTransient(n, opt, {"top"});

  const double rc = 1e3 * 1e-12;
  for (const double t : {0.5e-9, 1e-9, 2e-9}) {
    EXPECT_NEAR(wave.ValueAt("top", t), std::exp(-t / rc), 2e-3);
  }
}

TEST(Transient, RcChargeThroughSourceMatchesAnalytic) {
  // Source 1V -> R -> C: v(t) = 1 - exp(-t/RC).
  Netlist n;
  const NodeId vs = n.Node("vs");
  const NodeId top = n.Node("top");
  n.AddVdc(vs, kGround, 1.0);
  n.AddResistor(vs, top, 2e3);
  n.AddCapacitor(top, kGround, 1e-12);

  TransientOptions opt;
  opt.t_stop_s = 10e-9;
  opt.dt_s = 2e-12;
  const Waveform wave = RunTransient(n, opt, {"top"});

  const double rc = 2e3 * 1e-12;
  for (const double t : {1e-9, 3e-9, 6e-9}) {
    EXPECT_NEAR(wave.ValueAt("top", t), 1.0 - std::exp(-t / rc), 2e-3);
  }
}

TEST(Transient, BackwardEulerAlsoConverges) {
  Netlist n;
  const NodeId top = n.Node("top");
  n.AddResistor(top, kGround, 1e3);
  n.AddCapacitor(top, kGround, 1e-12);
  n.SetInitialCondition(top, 1.0);

  TransientOptions opt;
  opt.t_stop_s = 2e-9;
  opt.dt_s = 0.5e-12;
  opt.method = Integration::kBackwardEuler;
  const Waveform wave = RunTransient(n, opt, {"top"});
  const double rc = 1e-9;
  EXPECT_NEAR(wave.ValueAt("top", 1e-9), std::exp(-1.0), 5e-3);
}

TEST(Transient, CapacitiveDividerConservesCharge) {
  // Two caps joined through a resistor: final voltage is the
  // charge-weighted average (the charge-sharing primitive of Fig. 2b).
  Netlist n;
  const NodeId a = n.Node("a");
  const NodeId b = n.Node("b");
  n.AddCapacitor(a, kGround, 24e-15);
  n.AddCapacitor(b, kGround, 100e-15);
  n.AddResistor(a, b, 10e3);
  n.SetInitialCondition(a, 1.2);
  n.SetInitialCondition(b, 0.6);

  TransientOptions opt;
  opt.t_stop_s = 50e-9;
  opt.dt_s = 10e-12;
  const Waveform wave = RunTransient(n, opt, {"a", "b"});

  const double v_final = (24e-15 * 1.2 + 100e-15 * 0.6) / (124e-15);
  EXPECT_NEAR(wave.FinalValue("a"), v_final, 1e-3);
  EXPECT_NEAR(wave.FinalValue("b"), v_final, 1e-3);
}

TEST(Transient, PwlSourceDrivesNode) {
  Netlist n;
  const NodeId src = n.Node("src");
  n.AddVpwl(src, kGround, {{0.0, 0.0}, {1e-9, 1.0}});
  n.AddResistor(src, kGround, 1e6);  // keep the source loaded

  TransientOptions opt;
  opt.t_stop_s = 2e-9;
  opt.dt_s = 1e-12;
  const Waveform wave = RunTransient(n, opt, {"src"});
  EXPECT_NEAR(wave.ValueAt("src", 0.5e-9), 0.5, 1e-6);
  EXPECT_NEAR(wave.ValueAt("src", 1.5e-9), 1.0, 1e-9);
}

TEST(Transient, NmosFollowsGateAsSwitch) {
  // NMOS passing from a 1V source into a cap: output settles near
  // vg - vt (source-follower limit) when gate is not boosted.
  Netlist n;
  const NodeId vd = n.Node("vd");
  const NodeId vg = n.Node("vg");
  const NodeId out = n.Node("out");
  n.AddVdc(vd, kGround, 1.0);
  n.AddVpwl(vg, kGround, StepWaveform(0.0, 1.0, 0.1e-9, 20e-12));
  n.AddMosfet(MosType::kNmos, vd, vg, out, {0.4, 1e-3, 0.0});
  n.AddCapacitor(out, kGround, 10e-15);

  TransientOptions opt;
  opt.t_stop_s = 20e-9;
  opt.dt_s = 5e-12;
  const Waveform wave = RunTransient(n, opt, {"out"});
  EXPECT_NEAR(wave.FinalValue("out"), 0.6, 0.05);  // vg - vt = 0.6
}

TEST(Transient, RejectsNonGroundReferencedSource) {
  Netlist n;
  const NodeId a = n.Node("a");
  const NodeId b = n.Node("b");
  n.AddVdc(a, b, 1.0);
  n.AddResistor(a, b, 1e3);
  TransientOptions opt;
  EXPECT_THROW(RunTransient(n, opt, {"a"}), ConfigError);
}

TEST(Transient, RejectsDoublyDrivenNode) {
  Netlist n;
  const NodeId a = n.Node("a");
  n.AddVdc(a, kGround, 1.0);
  n.AddVdc(a, kGround, 2.0);
  TransientOptions opt;
  EXPECT_THROW(RunTransient(n, opt, {"a"}), ConfigError);
}

TEST(Transient, RejectsBadOptions) {
  Netlist n;
  n.AddResistor(n.Node("a"), kGround, 1.0);
  TransientOptions opt;
  opt.dt_s = 0.0;
  EXPECT_THROW(RunTransient(n, opt, {"a"}), ConfigError);
}

// ---------------------------------------------------------------------------
// DRAM circuits
// ---------------------------------------------------------------------------

TechnologyParams SmallTech() {
  TechnologyParams tech;
  tech.rows = 2048;
  tech.columns = 8;  // keep array tests fast
  return tech;
}

TEST(DataPatternHelpers, ValuesMatchDefinition) {
  EXPECT_FALSE(CellValue(DataPattern::kAllZeros, 3));
  EXPECT_TRUE(CellValue(DataPattern::kAllOnes, 3));
  EXPECT_FALSE(CellValue(DataPattern::kAlternating, 0));
  EXPECT_TRUE(CellValue(DataPattern::kAlternating, 1));
  // Random is deterministic per index.
  EXPECT_EQ(CellValue(DataPattern::kRandom, 5),
            CellValue(DataPattern::kRandom, 5));
  EXPECT_EQ(PatternName(DataPattern::kRandom), "rand");
}

TEST(EqualizationCircuit, BitlinesConvergeToVeq) {
  const TechnologyParams tech = SmallTech();
  EqualizationCircuit circuit = BuildEqualizationCircuit(tech, 20e-12);

  TransientOptions opt;
  opt.t_stop_s = 5e-9;
  opt.dt_s = 2e-12;
  const Waveform wave =
      RunTransient(circuit.netlist, opt, {circuit.bl, circuit.blb});

  EXPECT_NEAR(wave.FinalValue(circuit.bl), tech.Veq(), 0.02);
  EXPECT_NEAR(wave.FinalValue(circuit.blb), tech.Veq(), 0.02);
  // bl starts at Vdd and must decay monotonically toward Veq.
  EXPECT_NEAR(wave.ValueAt(circuit.bl, 0.0), tech.vdd, 1e-9);
  EXPECT_NEAR(wave.ValueAt(circuit.blb, 0.0), tech.vss, 1e-9);
}

TEST(EqualizationCircuit, ComplementConvergesFasterPhase) {
  // Fig. 5 observation: B̄ (rising from 0, device in triode) tracks all
  // models closely; B (falling from Vdd, device saturates first) is slower
  // to start.  Check the rising side reaches 90% of its swing earlier than
  // the falling side in the circuit reference.
  const TechnologyParams tech = SmallTech();
  EqualizationCircuit circuit = BuildEqualizationCircuit(tech, 0.0);

  TransientOptions opt;
  opt.t_stop_s = 5e-9;
  opt.dt_s = 2e-12;
  const Waveform wave =
      RunTransient(circuit.netlist, opt, {circuit.bl, circuit.blb});

  const double veq = tech.Veq();
  const double t_bl = wave.CrossingTime(circuit.bl, veq + 0.1 * (tech.vdd - veq),
                                        /*rising=*/false);
  const double t_blb = wave.CrossingTime(circuit.blb, veq - 0.1 * veq,
                                         /*rising=*/true);
  ASSERT_GT(t_bl, 0.0);
  ASSERT_GT(t_blb, 0.0);
  EXPECT_LT(t_blb, t_bl);
}

TEST(ChargeSharingArray, DevelopsExpectedSenseVoltage) {
  const TechnologyParams tech = SmallTech();
  ChargeSharingArray array =
      BuildChargeSharingArray(tech, DataPattern::kAllOnes, 1.0, 20e-12);

  TransientOptions opt;
  opt.t_stop_s = 30e-9;
  opt.dt_s = 10e-12;
  const Waveform wave = RunTransient(array.netlist, opt,
                                     {array.bitline_nodes[2],
                                      array.cell_nodes[2]});

  // Ideal charge sharing (no parasitics): dV = Cs/(Cs+Cbl) * (Vdd - Veq).
  // The circuit also sees the wordline-coupling boost through Cbw (the
  // wordline swings to Vpp) and mutual reinforcement through Cbb when all
  // neighbours store the same value, so dv may exceed the uncoupled ideal.
  const double ideal =
      tech.cs / (tech.cs + tech.Cbl()) * (tech.vdd - tech.Veq());
  const double dv = wave.FinalValue(array.bitline_nodes[2]) - tech.Veq();
  EXPECT_GT(dv, 0.5 * ideal);
  EXPECT_LT(dv, 1.6 * ideal);
  // Cell and bitline converge to the same level.
  EXPECT_NEAR(wave.FinalValue(array.bitline_nodes[2]),
              wave.FinalValue(array.cell_nodes[2]), 5e-3);
}

TEST(ChargeSharingArray, ZeroCellPullsBitlineDown) {
  const TechnologyParams tech = SmallTech();
  ChargeSharingArray array =
      BuildChargeSharingArray(tech, DataPattern::kAllZeros, 1.0, 20e-12);

  TransientOptions opt;
  opt.t_stop_s = 30e-9;
  opt.dt_s = 10e-12;
  const Waveform wave =
      RunTransient(array.netlist, opt, {array.bitline_nodes[0]});
  EXPECT_LT(wave.FinalValue(array.bitline_nodes[0]), tech.Veq());
}

TEST(RefreshPath, RestoresCellTowardFull) {
  const TechnologyParams tech = SmallTech();
  RefreshPathCircuit path =
      BuildRefreshPathCircuit(tech, /*cell_value=*/true,
                              /*initial_charge_fraction=*/0.7,
                              /*t_wordline_s=*/0.1e-9, /*t_sense_s=*/3e-9);

  TransientOptions opt;
  opt.t_stop_s = 40e-9;
  opt.dt_s = 10e-12;
  const Waveform wave =
      RunTransient(path.netlist, opt, {path.cell, path.bl, path.blb});

  // After sensing, the bitline pair splits to the rails and the cell is
  // restored above its initial 70% level.
  EXPECT_GT(wave.FinalValue(path.bl), 0.9 * tech.vdd);
  EXPECT_LT(wave.FinalValue(path.blb), 0.1 * tech.vdd);
  EXPECT_GT(wave.FinalValue(path.cell), 0.9 * tech.vdd);
}

TEST(RefreshPath, RestoresZeroCell) {
  const TechnologyParams tech = SmallTech();
  RefreshPathCircuit path =
      BuildRefreshPathCircuit(tech, /*cell_value=*/false,
                              /*initial_charge_fraction=*/1.0,
                              /*t_wordline_s=*/0.1e-9, /*t_sense_s=*/3e-9);

  TransientOptions opt;
  opt.t_stop_s = 40e-9;
  opt.dt_s = 10e-12;
  const Waveform wave =
      RunTransient(path.netlist, opt, {path.cell, path.bl, path.blb});

  EXPECT_LT(wave.FinalValue(path.bl), 0.1 * tech.vdd);
  EXPECT_GT(wave.FinalValue(path.blb), 0.9 * tech.vdd);
  EXPECT_LT(wave.FinalValue(path.cell), 0.1 * tech.vdd);
}

// ---------------------------------------------------------------------------
// DC operating point
// ---------------------------------------------------------------------------

TEST(DcOperatingPoint, ResistiveDivider) {
  Netlist n;
  const NodeId vs = n.Node("vs");
  const NodeId mid = n.Node("mid");
  n.AddVdc(vs, kGround, 1.2);
  n.AddResistor(vs, mid, 1e3);
  n.AddResistor(mid, kGround, 3e3);
  const auto op = SolveDc(n, DcOptions{});
  EXPECT_NEAR(op[mid], 0.9, 1e-6);
  EXPECT_NEAR(op[vs], 1.2, 1e-12);
}

TEST(DcOperatingPoint, CapacitorsAreOpen) {
  // With the cap open, no current flows: mid sits at the source voltage.
  Netlist n;
  const NodeId vs = n.Node("vs");
  const NodeId mid = n.Node("mid");
  n.AddVdc(vs, kGround, 1.0);
  n.AddResistor(vs, mid, 1e3);
  n.AddCapacitor(mid, kGround, 1e-12);
  const auto op = SolveDc(n, DcOptions{});
  EXPECT_NEAR(op[mid], 1.0, 1e-5);
}

TEST(DcOperatingPoint, SourceFollowerSettlesNearVgMinusVt) {
  Netlist n;
  const NodeId vd = n.Node("vd");
  const NodeId vg = n.Node("vg");
  const NodeId out = n.Node("out");
  n.AddVdc(vd, kGround, 1.2);
  n.AddVdc(vg, kGround, 1.0);
  n.AddMosfet(MosType::kNmos, vd, vg, out, {0.4, 1e-3, 0.0});
  n.AddResistor(out, kGround, 100e3);
  DcOptions options;
  const auto op = SolveDc(n, options);
  // Between cutoff (vg - vt) and the resistive pull-down equilibrium.
  EXPECT_GT(op[out], 0.4);
  EXPECT_LT(op[out], 0.6);
}

TEST(DcOperatingPoint, EvaluatesSourcesAtGivenTime) {
  Netlist n;
  const NodeId src = n.Node("src");
  n.AddVpwl(src, kGround, {{0.0, 0.0}, {1e-9, 1.0}});
  n.AddResistor(src, kGround, 1e3);
  DcOptions at_end;
  at_end.time_s = 2e-9;
  EXPECT_NEAR(SolveDc(n, at_end)[src], 1.0, 1e-12);
  DcOptions at_mid;
  at_mid.time_s = 0.5e-9;
  EXPECT_NEAR(SolveDc(n, at_mid)[src], 0.5, 1e-12);
}

TEST(Waveform, CrossingTimeInterpolates) {
  Waveform wave;
  wave.AddSignal("x");
  wave.Append(0.0, {0.0});
  wave.Append(1.0, {1.0});
  EXPECT_NEAR(wave.CrossingTime("x", 0.25, true), 0.25, 1e-12);
  EXPECT_LT(wave.CrossingTime("x", 2.0, true), 0.0);  // never crosses
}

TEST(Waveform, UnknownSignalThrows) {
  Waveform wave;
  wave.AddSignal("x");
  wave.Append(0.0, {0.0});
  EXPECT_THROW(wave.Samples("y"), ConfigError);
}

// ---------------------------------------------------------------------------
// Known-answer waveform pins
//
// FNV-1a hashes of every time and sample bit, captured from the engine that
// zeroed and restamped every device in every Newton iteration and solved the
// full band.  The engine must reproduce each bit.
// ---------------------------------------------------------------------------

/// FNV-1a over the bytes of each value's bit pattern, low byte first.
class Fnv1a {
 public:
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(const std::vector<double>& values) {
    for (const double v : values) {
      Add(v);
    }
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Hash of every time and every sample of every signal, in signal order.
std::uint64_t WaveformHash(const Waveform& wave) {
  Fnv1a fnv;
  fnv.Add(wave.times());
  for (const auto& name : wave.signal_names()) {
    fnv.Add(wave.Samples(name));
  }
  return fnv.hash();
}

std::uint64_t ChargeSharingHash(std::size_t columns, Integration method,
                                DataPattern pattern) {
  const TechnologyParams tech = TechnologyParams{}.WithGeometry(2048, columns);
  const double t_wl = 0.1e-9;
  const double rise = tech.wl_delay_per_column_s * static_cast<double>(columns);
  const ChargeSharingArray array =
      BuildChargeSharingArray(tech, pattern, 0.7, t_wl, rise);
  TransientOptions opt;
  opt.t_stop_s = t_wl + rise + 6e-9;
  opt.dt_s = 20e-12;
  opt.method = method;
  std::vector<std::string> probes = array.bitline_nodes;
  probes.insert(probes.end(), array.cell_nodes.begin(), array.cell_nodes.end());
  return WaveformHash(RunTransient(array.netlist, opt, probes));
}

std::uint64_t EqualizationHash() {
  const EqualizationCircuit circuit =
      BuildEqualizationCircuit(TechnologyParams{}, 20e-12);
  TransientOptions opt;
  opt.t_stop_s = 3e-9;
  opt.dt_s = 5e-12;
  return WaveformHash(
      RunTransient(circuit.netlist, opt, {circuit.bl, circuit.blb}));
}

std::uint64_t RefreshPathHash(bool cell_value) {
  const RefreshPathCircuit path = BuildRefreshPathCircuit(
      TechnologyParams{}, cell_value, 0.7, 0.1e-9, 2e-9, 0.01);
  TransientOptions opt;
  opt.t_stop_s = 8e-9;
  opt.dt_s = 10e-12;
  return WaveformHash(
      RunTransient(path.netlist, opt, {path.cell, path.bl, path.blb}));
}

/// A banded-path netlist (3 unknowns per stage, 24 stages) whose devices
/// reach every stamp target: matrix entries, pinned-column folds from a
/// resistor, a capacitor and both MOSFET rows, and dropped stamps (ground
/// column, pinned or ground row).
Netlist StampTargetNetlist() {
  Netlist n;
  const NodeId vdd = n.Node("vdd");
  const NodeId gate = n.Node("gate");
  n.AddVdc(vdd, kGround, 1.2);
  n.AddVpwl(gate, kGround, StepWaveform(0.2, 1.1, 50e-12, 100e-12));
  NodeId prev = kGround;
  for (std::size_t i = 0; i < 24; ++i) {
    const NodeId a = n.Node("a" + std::to_string(i));
    const NodeId b = n.Node("b" + std::to_string(i));
    const NodeId c = n.Node("c" + std::to_string(i));
    // Pull-down with a grounded source and a pinned gate.
    n.AddMosfet(MosType::kNmos, a, gate, kGround, {0.4, 2e-4, 0.05});
    // Follower with a pinned drain, its gate on an unknown node.
    n.AddMosfet(MosType::kNmos, vdd, a, b, {0.35, 3e-4, 0.02});
    // PMOS with a pinned source.
    n.AddMosfet(MosType::kPmos, c, b, vdd, {0.4, 1e-4, 0.0});
    n.AddResistor(vdd, a, 20e3 + 100.0 * static_cast<double>(i));
    n.AddResistor(b, c, 5e3);
    n.AddResistor(c, kGround, 50e3);
    n.AddCapacitor(a, kGround, 2e-15);
    n.AddCapacitor(b, gate, 0.5e-15);
    n.AddCapacitor(c, kGround, 3e-15);
    if (prev != kGround) {
      n.AddCapacitor(prev, c, 0.2e-15);
      n.AddResistor(prev, a, 200e3);
    }
    prev = c;
    n.SetInitialCondition(a, 0.05 * static_cast<double>(i % 7));
    n.SetInitialCondition(c, 0.6);
  }
  return n;
}

std::uint64_t StampTargetHash(Integration method) {
  const Netlist n = StampTargetNetlist();
  TransientOptions opt;
  opt.t_stop_s = 1e-9;
  opt.dt_s = 5e-12;
  opt.method = method;
  std::vector<std::string> probes;
  for (std::size_t i = 0; i < 24; ++i) {
    probes.push_back("a" + std::to_string(i));
    probes.push_back("b" + std::to_string(i));
    probes.push_back("c" + std::to_string(i));
  }
  return WaveformHash(RunTransient(n, opt, probes));
}

std::uint64_t DcHash() {
  Fnv1a fnv;
  const RefreshPathCircuit path =
      BuildRefreshPathCircuit(TechnologyParams{}, true, 0.7, 0.1e-9, 2e-9);
  DcOptions at_sense;
  at_sense.time_s = 2.5e-9;
  fnv.Add(SolveDc(path.netlist, at_sense));
  DcOptions at_end;
  at_end.time_s = 1e-9;
  fnv.Add(SolveDc(StampTargetNetlist(), at_end));
  return fnv.hash();
}

TEST(TransientPins, ChargeSharingArrayWaveformsAreBitIdentical) {
  struct Pin {
    std::size_t columns;
    Integration method;
    DataPattern pattern;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {32, Integration::kTrapezoidal, DataPattern::kAllOnes,
       0x0279d67dee10dd1dull},
      {32, Integration::kTrapezoidal, DataPattern::kAlternating,
       0x23d4b1e5857bd489ull},
      {32, Integration::kBackwardEuler, DataPattern::kAllOnes,
       0x6d1bd5334cdd91e7ull},
      {32, Integration::kBackwardEuler, DataPattern::kAlternating,
       0x2d9df7776e1309b4ull},
      {128, Integration::kTrapezoidal, DataPattern::kAllOnes,
       0x624ce63ae74314ffull},
      {128, Integration::kTrapezoidal, DataPattern::kAlternating,
       0x5b6541ad3d84116bull},
      {128, Integration::kBackwardEuler, DataPattern::kAllOnes,
       0xd58f922459467cb2ull},
      {128, Integration::kBackwardEuler, DataPattern::kAlternating,
       0x9d365ac8367c001aull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::to_string(pin.columns) + " columns, " +
                 (pin.method == Integration::kTrapezoidal ? "trap, "
                                                          : "BE, ") +
                 std::string(PatternName(pin.pattern)));
    EXPECT_EQ(ChargeSharingHash(pin.columns, pin.method, pin.pattern),
              pin.hash);
  }
}

TEST(TransientPins, EqualizationWaveformIsBitIdentical) {
  EXPECT_EQ(EqualizationHash(), 0xc042b7c79aa4cd04ull);
}

TEST(TransientPins, RefreshPathWaveformsAreBitIdentical) {
  EXPECT_EQ(RefreshPathHash(true), 0x9e191813342d33bfull);
  EXPECT_EQ(RefreshPathHash(false), 0xe6ffe81a669c54deull);
}

TEST(TransientPins, BandedStampTargetWaveformsAreBitIdentical) {
  EXPECT_EQ(StampTargetHash(Integration::kTrapezoidal),
            0x1c65042b2e069e11ull);
  EXPECT_EQ(StampTargetHash(Integration::kBackwardEuler),
            0x9468ed7f82a09415ull);
}

TEST(TransientPins, DcOperatingPointsAreBitIdentical) {
  EXPECT_EQ(DcHash(), 0xafa60c3847fa7551ull);
}

}  // namespace
}  // namespace vrl::circuit
