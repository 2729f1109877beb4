#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/data_pattern.hpp"
#include "common/error.hpp"
#include "common/interpolation.hpp"
#include "common/rng.hpp"
#include "common/technology.hpp"
#include "common/tridiagonal.hpp"
#include "model/equalization.hpp"
#include "model/postsensing.hpp"
#include "model/presensing.hpp"
#include "model/refresh_model.hpp"
#include "model/single_cell.hpp"

namespace vrl::model {
namespace {

TechnologyParams DefaultTech() { return TechnologyParams{}; }

// ---------------------------------------------------------------------------
// EqualizationModel (§2.1, Eq. 1-2)
// ---------------------------------------------------------------------------

TEST(Equalization, PhaseOneTimeMatchesEq1) {
  const TechnologyParams tech = DefaultTech();
  const EqualizationModel eq(tech);
  // t_o = Cbl * Vtn / Idsat, Idsat = beta/2 * (Vdd - Veq - Vtn)^2.
  const double beta = tech.BetaN(tech.wl_eq);
  const double ov = tech.vdd - tech.Veq() - tech.vt_n;
  const double idsat = 0.5 * beta * ov * ov;
  EXPECT_NEAR(eq.PhaseOneTime(BitlineSide::kHigh),
              tech.Cbl() * tech.vt_n / idsat, 1e-15);
  EXPECT_DOUBLE_EQ(eq.PhaseOneTime(BitlineSide::kLow), 0.0);
}

TEST(Equalization, HighSideStartsAtVddAndDropsLinearlyInPhase1) {
  const TechnologyParams tech = DefaultTech();
  const EqualizationModel eq(tech);
  EXPECT_DOUBLE_EQ(eq.VoltageAt(BitlineSide::kHigh, 0.0), tech.vdd);
  const double to = eq.PhaseOneTime(BitlineSide::kHigh);
  // Linear in phase 1: half of t_o gives half of the Vtn drop.
  EXPECT_NEAR(eq.VoltageAt(BitlineSide::kHigh, 0.5 * to),
              tech.vdd - 0.5 * tech.vt_n, 1e-9);
  // At t_o the bitline has dropped exactly by Vtn.
  EXPECT_NEAR(eq.VoltageAt(BitlineSide::kHigh, to), tech.vdd - tech.vt_n,
              1e-9);
}

TEST(Equalization, BothSidesConvergeToVeq) {
  const TechnologyParams tech = DefaultTech();
  const EqualizationModel eq(tech);
  const double t_long = 50e-9;
  EXPECT_NEAR(eq.VoltageAt(BitlineSide::kHigh, t_long), tech.Veq(), 1e-3);
  EXPECT_NEAR(eq.VoltageAt(BitlineSide::kLow, t_long), tech.Veq(), 1e-3);
}

TEST(Equalization, HighSideIsMonotonicallyDecreasing) {
  const EqualizationModel eq(DefaultTech());
  double prev = eq.VoltageAt(BitlineSide::kHigh, 0.0);
  for (int i = 1; i <= 100; ++i) {
    const double v = eq.VoltageAt(BitlineSide::kHigh, i * 0.05e-9);
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }
}

TEST(Equalization, LowSideRisesFasterThanHighSideFalls) {
  // The paper's Fig. 5: the complementary bitline (linear region all the
  // way) settles earlier than the Vdd bitline (saturation phase first).
  const EqualizationModel eq(DefaultTech());
  EXPECT_LT(eq.SettleTime(BitlineSide::kLow, 0.01),
            eq.SettleTime(BitlineSide::kHigh, 0.01));
}

TEST(Equalization, SettleTimeShrinksWithLooserTolerance) {
  const EqualizationModel eq(DefaultTech());
  EXPECT_LT(eq.SettleTime(BitlineSide::kHigh, 0.05),
            eq.SettleTime(BitlineSide::kHigh, 0.005));
}

TEST(Equalization, DelayGrowsWithBitlineLength) {
  const TechnologyParams small = DefaultTech().WithGeometry(2048, 32);
  const TechnologyParams large = DefaultTech().WithGeometry(16384, 32);
  EXPECT_LT(EqualizationModel(small).EqualizationDelay(),
            EqualizationModel(large).EqualizationDelay());
}

TEST(Equalization, RejectsNonConductingDevice) {
  TechnologyParams tech = DefaultTech();
  tech.vt_n = 0.65;  // above Vdd/2: M2/M3 can never drive the bitline to Veq
  tech.vdd = 1.2;
  EXPECT_THROW(EqualizationModel{tech}, ConfigError);
}

// ---------------------------------------------------------------------------
// PreSensingModel (§2.2, Eq. 3-8)
// ---------------------------------------------------------------------------

TEST(PreSensing, CouplingCoefficientsMatchEq7) {
  const TechnologyParams tech = DefaultTech();
  const PreSensingModel pre(tech);
  const double denom =
      tech.cs + tech.Cbl() + 2.0 * tech.Cbb() + tech.Cbw();
  EXPECT_NEAR(pre.K1(), tech.cs / denom, 1e-12);
  EXPECT_NEAR(pre.K2(), tech.Cbb() / denom, 1e-12);
  EXPECT_LT(pre.K2(), pre.K1());
}

TEST(PreSensing, UStartsAtOneAndDecaysToZero) {
  const PreSensingModel pre(DefaultTech());
  EXPECT_DOUBLE_EQ(pre.U(0.0), 1.0);
  EXPECT_DOUBLE_EQ(pre.U(-1.0), 1.0);
  EXPECT_GT(pre.U(0.5e-9), pre.U(2e-9));
  EXPECT_LT(pre.U(100e-9), 1e-3);
}

TEST(PreSensing, UMatchesEq3Form) {
  const TechnologyParams tech = DefaultTech();
  const PreSensingModel pre(tech);
  const double t = 1.5e-9;
  const double cs = tech.cs;
  const double cbl = tech.Cbl();
  const double rpre = tech.ron_access + tech.Rbl();
  const double expected = (cs * std::exp(-t / (rpre * cbl)) +
                           cbl * std::exp(-t / (rpre * cs))) /
                          (cs + cbl);
  EXPECT_NEAR(pre.U(t), expected, 1e-12);
}

TEST(PreSensing, UncoupledSenseVoltageMatchesEq4) {
  const TechnologyParams tech = DefaultTech();
  const PreSensingModel pre(tech);
  const double expected =
      tech.cs / (tech.cs + tech.Cbl()) * (tech.vdd - tech.Veq());
  EXPECT_NEAR(pre.UncoupledSenseVoltage(tech.vdd), expected, 1e-12);
}

TEST(PreSensing, AllOnesSenseVoltagesArePositive) {
  const PreSensingModel pre(DefaultTech());
  for (const double v :
       pre.SenseVoltagesForPattern(DataPattern::kAllOnes, 1.0)) {
    EXPECT_GT(v, 0.0);
  }
}

TEST(PreSensing, AllZerosSenseVoltagesAreNegative) {
  const PreSensingModel pre(DefaultTech());
  for (const double v :
       pre.SenseVoltagesForPattern(DataPattern::kAllZeros, 1.0)) {
    EXPECT_LT(v, 0.0);
  }
}

TEST(PreSensing, SameDataNeighboursAmplify) {
  // Coupling helps when neighbours move the same way: the interior
  // all-ones sense voltage exceeds the uncoupled Eq. 4 value computed with
  // the same effective K1 denominator.
  const TechnologyParams tech = DefaultTech();
  const PreSensingModel pre(tech);
  const auto vs = pre.SenseVoltagesForPattern(DataPattern::kAllOnes, 1.0);
  const double uncoupled = pre.K1() * (tech.vdd - tech.Veq());
  EXPECT_GT(vs[tech.columns / 2], uncoupled);
}

TEST(PreSensing, AlternatingPatternIsWorstCase) {
  const PreSensingModel pre(DefaultTech());
  const double worst_alt =
      pre.WorstSenseVoltage(DataPattern::kAlternating, 1.0);
  const double worst_ones = pre.WorstSenseVoltage(DataPattern::kAllOnes, 1.0);
  EXPECT_LT(worst_alt, worst_ones);
  EXPECT_LE(pre.WorstSenseVoltageAllPatterns(1.0), worst_alt);
}

TEST(PreSensing, TrackedSenseVoltageDropsWithCharge) {
  const PreSensingModel pre(DefaultTech());
  EXPECT_GT(pre.WorstTrackedSenseVoltage(1.0),
            pre.WorstTrackedSenseVoltage(0.8));
  EXPECT_GT(pre.WorstTrackedSenseVoltage(0.8),
            pre.WorstTrackedSenseVoltage(0.6));
}

TEST(PreSensing, TrackedCellAtHalfChargeIsNegative) {
  // At 50% the cell sits at Veq; neighbour drag under the worst pattern
  // pushes the sensed value below zero (read as '0').
  const PreSensingModel pre(DefaultTech());
  EXPECT_LT(pre.WorstTrackedSenseVoltage(0.5), 0.0);
}

TEST(PreSensing, DevelopedVoltageGrowsWithTime) {
  const PreSensingModel pre(DefaultTech());
  const double vs = 0.05;
  EXPECT_LT(pre.DevelopedVoltage(vs, 0.5e-9), pre.DevelopedVoltage(vs, 5e-9));
  EXPECT_LE(pre.DevelopedVoltage(vs, 1e-6), vs + 1e-12);
}

TEST(PreSensing, RejectsEmptyCellVector) {
  const PreSensingModel pre(DefaultTech());
  EXPECT_THROW(pre.SenseVoltages({}), ConfigError);
  // One voltage per column of the modelled slice, no more, no fewer.
  EXPECT_THROW(pre.SenseVoltages(std::vector<double>(31, 0.5)), ConfigError);
}

// The tracked-cell probe as PreSensingModel evaluated it before it kept a
// factor and the probes' prefixes: the full cell vector, the general
// tridiagonal solve, element [mid].  The bit-for-bit reference.
double ReferenceTrackedProbe(const PreSensingModel& pre,
                             const TechnologyParams& tech, DataPattern pattern,
                             std::size_t shift, double fraction) {
  const std::size_t n = tech.columns;
  const std::size_t mid = n / 2;
  std::vector<double> cells(n);
  for (std::size_t i = 0; i < n; ++i) {
    cells[i] = CellValue(pattern, i + shift) ? tech.vdd : tech.vss;
  }
  cells[mid] = tech.vss + fraction * (tech.vdd - tech.vss);
  TridiagonalSystem system;
  system.diag.assign(n, 1.0);
  system.lower.assign(n - 1, -pre.K2());
  system.upper.assign(n - 1, -pre.K2());
  system.rhs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lself = cells[i] - tech.Veq();
    system.rhs[i] = pre.K1() * lself;
  }
  return SolveTridiagonal(system)[mid];
}

double ReferenceWorstTracked(const PreSensingModel& pre,
                             const TechnologyParams& tech, double fraction) {
  double worst = std::numeric_limits<double>::max();
  for (const DataPattern pattern : kAllDataPatterns) {
    worst = std::min(worst,
                     ReferenceTrackedProbe(pre, tech, pattern, 0, fraction));
  }
  return std::min(worst, ReferenceTrackedProbe(
                             pre, tech, DataPattern::kAlternating, 1, fraction));
}

TEST(PreSensing, TrackedProbesAreBitIdenticalToTheFullSolve) {
  Rng rng(77);
  for (const std::size_t columns :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{31},
        std::size_t{32}, std::size_t{33}, std::size_t{128}}) {
    TechnologyParams tech = DefaultTech();
    tech.columns = columns;
    const PreSensingModel pre(tech);
    std::vector<double> fractions{0.0, 0.5, 0.5 + 1e-6, 0.95, 1.0};
    for (int i = 0; i < 16; ++i) {
      fractions.push_back(rng.UniformDouble());
    }
    for (const double f : fractions) {
      for (const DataPattern pattern : kAllDataPatterns) {
        EXPECT_EQ(pre.TrackedSenseVoltage(pattern, f),
                  ReferenceTrackedProbe(pre, tech, pattern, 0, f))
            << "columns=" << columns << " f=" << f << " "
            << PatternName(pattern);
      }
      EXPECT_EQ(pre.WorstTrackedSenseVoltage(f),
                ReferenceWorstTracked(pre, tech, f))
          << "columns=" << columns << " f=" << f;
    }
  }
}

TEST(PreSensing, PatternSenseVoltagesAreBitIdenticalToTheFullSolve) {
  const TechnologyParams tech = DefaultTech();
  const PreSensingModel pre(tech);
  for (const DataPattern pattern : kAllDataPatterns) {
    TridiagonalSystem system;
    system.diag.assign(tech.columns, 1.0);
    system.lower.assign(tech.columns - 1, -pre.K2());
    system.upper.assign(tech.columns - 1, -pre.K2());
    for (std::size_t i = 0; i < tech.columns; ++i) {
      const double cell =
          CellValue(pattern, i) ? tech.vss + 0.8 * (tech.vdd - tech.vss)
                                : tech.vss;
      system.rhs.push_back(pre.K1() * (cell - tech.Veq()));
    }
    EXPECT_EQ(pre.SenseVoltagesForPattern(pattern, 0.8),
              SolveTridiagonal(system))
        << PatternName(pattern);
  }
}

// ---------------------------------------------------------------------------
// PostSensingModel (§2.3, Eq. 9-12)
// ---------------------------------------------------------------------------

TEST(PostSensing, T1MatchesEq9) {
  const TechnologyParams tech = DefaultTech();
  const PostSensingModel post(tech);
  EXPECT_NEAR(post.T1(),
              tech.Cbl() * tech.vt_p / post.SenseSaturationCurrent(), 1e-15);
}

TEST(PostSensing, T2ShrinksWithLargerSignal) {
  const PostSensingModel post(DefaultTech());
  EXPECT_GT(post.T2(0.005), post.T2(0.05));
}

TEST(PostSensing, T2IsZeroForHugeSignal) {
  const PostSensingModel post(DefaultTech());
  EXPECT_DOUBLE_EQ(post.T2(10.0), 0.0);
}

TEST(PostSensing, T2RejectsNonPositiveSignal) {
  const PostSensingModel post(DefaultTech());
  EXPECT_THROW(post.T2(0.0), ConfigError);
  EXPECT_THROW(post.T2(-0.01), ConfigError);
}

TEST(PostSensing, CpostMatchesEq12) {
  const TechnologyParams tech = DefaultTech();
  const PostSensingModel post(tech);
  EXPECT_NEAR(post.Cpost(),
              tech.cs + tech.Cbl() + 2 * tech.Cbb() + tech.Cbw(), 1e-20);
}

TEST(PostSensing, NoRestoreWithinSensingDelay) {
  const PostSensingModel post(DefaultTech());
  const double dv = 0.02;
  const double v0 = 0.62;
  EXPECT_DOUBLE_EQ(post.RestoredVoltage(v0, dv, 0.5 * post.SensingDelay(dv)),
                   v0);
}

TEST(PostSensing, RestoreApproachesVddAsymptotically) {
  const TechnologyParams tech = DefaultTech();
  const PostSensingModel post(tech);
  const double v = post.RestoredVoltage(0.62, 0.02, 500e-9);
  EXPECT_GT(v, 0.999 * tech.vdd);
  EXPECT_LE(v, tech.vdd);
}

TEST(PostSensing, RestoreIsMonotoneInTime) {
  const PostSensingModel post(DefaultTech());
  double prev = 0.0;
  for (int i = 1; i <= 40; ++i) {
    const double v = post.RestoredVoltage(0.62, 0.02, i * 1e-9);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(PostSensing, TimeToRestoreInvertsRestoredVoltage) {
  const PostSensingModel post(DefaultTech());
  const double v0 = 0.61;
  const double dv = 0.015;
  const double target = 1.1;
  const double t = post.TimeToRestore(v0, dv, target);
  EXPECT_NEAR(post.RestoredVoltage(v0, dv, t), target, 1e-9);
}

TEST(PostSensing, TimeToRestoreRejectsVdd) {
  const TechnologyParams tech = DefaultTech();
  const PostSensingModel post(tech);
  EXPECT_THROW(post.TimeToRestore(0.6, 0.02, tech.vdd), NumericalError);
}

TEST(PostSensing, LastFivePercentDominates) {
  // Observation 1: restoring 95% -> ~100% costs a large share of the
  // restore time.
  const TechnologyParams tech = DefaultTech();
  const PostSensingModel post(tech);
  const double v0 = 0.62;
  const double dv = 0.02;
  const double t95 = post.TimeToRestore(v0, dv, 0.95 * tech.vdd);
  const double t999 = post.TimeToRestore(v0, dv, 0.9995 * tech.vdd);
  EXPECT_GT((t999 - t95) / t999, 0.35);
}

// ---------------------------------------------------------------------------
// RefreshModel (Eq. 13 + §3.1)
// ---------------------------------------------------------------------------

TEST(RefreshModel, TrfcComposition) {
  const RefreshModel m(DefaultTech());
  const TimingBreakdown t = m.FullRefreshTimings();
  EXPECT_EQ(t.trfc(), t.tau_eq + t.tau_pre + t.tau_post + t.tau_fixed);
  EXPECT_NEAR(t.trfc_s(),
              t.tau_eq_s + t.tau_pre_s + t.tau_post_s + t.tau_fixed_s, 1e-15);
}

TEST(RefreshModel, PaperCalibration) {
  // The §3.1 setup: τeq = 1 cycle, τpre = 2 cycles, τfixed = 4 cycles, and
  // τ_partial / τ_full ≈ 11/19 ≈ 0.58.
  const RefreshModel m(DefaultTech());
  const TimingBreakdown full = m.FullRefreshTimings();
  const TimingBreakdown part = m.PartialRefreshTimings();
  EXPECT_EQ(full.tau_eq, 1u);
  EXPECT_EQ(full.tau_pre, 2u);
  EXPECT_EQ(full.tau_fixed, 4u);
  const double ratio = static_cast<double>(part.trfc()) /
                       static_cast<double>(full.trfc());
  EXPECT_NEAR(ratio, 11.0 / 19.0, 0.05);
}

TEST(RefreshModel, CalibrationPin) {
  // Pins the exact default calibration that EXPERIMENTS.md records
  // (full 26 = 1/2/19/4, partial 15 = 1/2/8/4).  If a parameter change
  // moves these, re-derive the documented numbers before accepting it.
  const RefreshModel m(DefaultTech());
  const TimingBreakdown full = m.FullRefreshTimings();
  const TimingBreakdown partial = m.PartialRefreshTimings();
  EXPECT_EQ(full.tau_post, 19u);
  EXPECT_EQ(full.trfc(), 26u);
  EXPECT_EQ(partial.tau_post, 8u);
  EXPECT_EQ(partial.trfc(), 15u);
}

TEST(RefreshModel, TauPreIsTheSettleTimeOfU) {
  const TechnologyParams tech = DefaultTech();
  const RefreshModel m(tech);
  const PreSensingModel& pre = m.presensing();
  const double t_max = 60.0 * pre.Rpre() * tech.Cbl();
  const double settle = BisectRoot(0.0, t_max, 1e-15, [&](double t) {
    return pre.U(t) - m.spec().presense_settle;
  });
  EXPECT_EQ(m.TauPreSeconds(), m.WordlineDelaySeconds() + settle);
}

TEST(RefreshModel, SensingDeltaVIsTheDevelopedTrackedVoltage) {
  const RefreshModel m(DefaultTech());
  const PreSensingModel& pre = m.presensing();
  for (const double f : {0.0, 0.5, 0.55, 0.65, 0.8, 0.95, 1.0}) {
    const double vsense = pre.WorstTrackedSenseVoltage(f);
    const double developed = pre.DevelopedVoltage(vsense, m.TauPreSeconds());
    EXPECT_EQ(m.SensingDeltaV(f), vsense >= 0.0 ? developed : -developed)
        << f;
  }
}

TEST(RefreshModel, NeverSettlingPreSensingThrowsAtConstruction) {
  RefreshModel::Spec spec;
  spec.presense_settle = 1e-30;  // below U(t) at the bisection horizon
  try {
    const RefreshModel m(DefaultTech(), spec);
    ADD_FAILURE() << "expected a NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(std::string(e.what()),
              "RefreshModel: pre-sensing never settles");
  }
}

TEST(RefreshModel, PartialIsCheaperThanFull) {
  const RefreshModel m(DefaultTech());
  EXPECT_LT(m.PartialRefreshTimings().trfc(), m.FullRefreshTimings().trfc());
}

TEST(RefreshModel, RestoreCurveHits95PercentNear60PercentOfTrfc) {
  // Observation 1 / Fig. 1a: ~60% of tRFC restores 95% of the charge.
  const RefreshModel m(DefaultTech());
  const auto curve = m.RestoreCurve();
  const double x95 = curve.InverseLookup(0.95);
  EXPECT_GT(x95, 0.50);
  EXPECT_LT(x95, 0.70);
}

TEST(RefreshModel, RestoreCurveIsMonotone) {
  const RefreshModel m(DefaultTech());
  const auto curve = m.RestoreCurve(100);
  const auto& ys = curve.ys();
  for (std::size_t i = 1; i < ys.size(); ++i) {
    EXPECT_GE(ys[i], ys[i - 1] - 1e-12);
  }
  EXPECT_NEAR(ys.front(), 0.0, 1e-9);
  EXPECT_NEAR(ys.back(), 1.0, 1e-9);
}

TEST(RefreshModel, MinReadableFractionIsAboveHalf) {
  const RefreshModel m(DefaultTech());
  const double f = m.MinReadableFraction();
  EXPECT_GT(f, 0.5);
  EXPECT_LT(f, 0.7);
  // At that fraction the sensed swing equals the SA margin.
  EXPECT_NEAR(m.SensingDeltaV(f), m.tech().v_sense_min, 1e-6);
}

TEST(RefreshModel, ApplyRefreshRestoresHealthyCell) {
  const RefreshModel m(DefaultTech());
  const auto out =
      m.ApplyRefresh(0.85, m.FullRefreshTimings().tau_post_s);
  EXPECT_TRUE(out.sense_ok);
  EXPECT_GT(out.fraction_after, 0.99);
}

TEST(RefreshModel, ApplyRefreshFailsBelowReadable) {
  const RefreshModel m(DefaultTech());
  const double f = m.MinReadableFraction() - 0.05;
  const auto out = m.ApplyRefresh(f, m.FullRefreshTimings().tau_post_s);
  EXPECT_FALSE(out.sense_ok);
  EXPECT_DOUBLE_EQ(out.fraction_after, f);
}

TEST(RefreshModel, ApplyRefreshHonorsRestoreCap) {
  const RefreshModel m(DefaultTech());
  const auto out =
      m.ApplyRefresh(0.9, m.FullRefreshTimings().tau_post_s, 0.8);
  EXPECT_TRUE(out.sense_ok);
  EXPECT_DOUBLE_EQ(out.fraction_after, 0.8);
}

TEST(RefreshModel, PartialRestoreCapCompounds) {
  const RefreshModel m(DefaultTech());
  EXPECT_DOUBLE_EQ(m.PartialRestoreCap(0), 1.0);
  const double c1 = m.PartialRestoreCap(1);
  const double c2 = m.PartialRestoreCap(2);
  const double c3 = m.PartialRestoreCap(3);
  EXPECT_NEAR(c1, m.spec().partial_target, 1e-12);
  EXPECT_LT(c2, c1);
  EXPECT_LT(c3, c2);
  EXPECT_GE(c3, 0.0);
}

TEST(RefreshModel, MinPreSensingCyclesGrowsWithRows) {
  const RefreshModel small(DefaultTech().WithGeometry(2048, 32));
  const RefreshModel mid(DefaultTech().WithGeometry(8192, 32));
  const RefreshModel large(DefaultTech().WithGeometry(16384, 32));
  const Cycles c_small = small.MinPreSensingCycles(
      0.95, small.FullRefreshTimings().tau_post);
  const Cycles c_mid =
      mid.MinPreSensingCycles(0.95, mid.FullRefreshTimings().tau_post);
  const Cycles c_large = large.MinPreSensingCycles(
      0.95, large.FullRefreshTimings().tau_post);
  EXPECT_LT(c_small, c_mid);
  EXPECT_LT(c_mid, c_large);
}

TEST(RefreshModel, MinPreSensingCyclesGrowsWithColumns) {
  const RefreshModel narrow(DefaultTech().WithGeometry(8192, 32));
  const RefreshModel wide(DefaultTech().WithGeometry(8192, 128));
  EXPECT_LE(narrow.MinPreSensingCycles(
                0.95, narrow.FullRefreshTimings().tau_post),
            wide.MinPreSensingCycles(0.95,
                                     wide.FullRefreshTimings().tau_post));
}

TEST(RefreshModel, MinPreSensingCyclesRejectsBadTarget) {
  const RefreshModel m(DefaultTech());
  EXPECT_THROW(m.MinPreSensingCycles(0.5, 10), ConfigError);
  EXPECT_THROW(m.MinPreSensingCycles(1.0, 10), ConfigError);
}

TEST(RefreshModel, MinPreSensingCyclesThrowsOnTinyBudget) {
  const RefreshModel m(DefaultTech());
  EXPECT_THROW(m.MinPreSensingCycles(0.95, 1), NumericalError);
}

TEST(RefreshModel, RejectsInvalidSpec) {
  RefreshModel::Spec spec;
  spec.start_fraction = 0.4;
  EXPECT_THROW(RefreshModel(DefaultTech(), spec), ConfigError);

  spec = RefreshModel::Spec{};
  spec.partial_target = 0.9999;  // above full target
  EXPECT_THROW(RefreshModel(DefaultTech(), spec), ConfigError);
}

// ---------------------------------------------------------------------------
// SingleCellModel (Li et al. baseline)
// ---------------------------------------------------------------------------

TEST(SingleCell, PreSensingCyclesIsGeometryIndependent) {
  const SingleCellModel small(DefaultTech().WithGeometry(2048, 32));
  const SingleCellModel large(DefaultTech().WithGeometry(16384, 128));
  EXPECT_EQ(small.PreSensingCycles(), large.PreSensingCycles());
}

TEST(SingleCell, PreSensingCyclesNearPaperValue) {
  const SingleCellModel sc(DefaultTech());
  EXPECT_GE(sc.PreSensingCycles(), 4u);
  EXPECT_LE(sc.PreSensingCycles(), 8u);
}

TEST(SingleCell, UnderestimatesLargeArrays) {
  // Table 1's message: the single-cell model underestimates pre-sensing
  // time for large banks because it ignores the real bitline load.
  const TechnologyParams tech = DefaultTech().WithGeometry(16384, 128);
  const RefreshModel ours(tech);
  const SingleCellModel baseline(tech);
  EXPECT_LT(baseline.PreSensingCycles(),
            ours.MinPreSensingCycles(0.95,
                                     ours.FullRefreshTimings().tau_post));
}

TEST(SingleCell, EqualizationIsSingleExponential) {
  const TechnologyParams tech = DefaultTech();
  const SingleCellModel sc(tech);
  EXPECT_DOUBLE_EQ(sc.EqualizationVoltageAt(true, 0.0), tech.vdd);
  EXPECT_DOUBLE_EQ(sc.EqualizationVoltageAt(false, 0.0), tech.vss);
  EXPECT_NEAR(sc.EqualizationVoltageAt(true, 1e-6), tech.Veq(), 1e-6);
  // No phase-1 plateau: strictly exponential decay from t=0 (the real
  // two-phase model drops linearly first).
  const double v1 = sc.EqualizationVoltageAt(true, 0.1e-9);
  EXPECT_LT(v1, tech.vdd);
}

TEST(SingleCell, SenseVoltageUsesNominalLoad) {
  const TechnologyParams small = DefaultTech().WithGeometry(2048, 32);
  const TechnologyParams large = DefaultTech().WithGeometry(16384, 32);
  const SingleCellModel a(small);
  const SingleCellModel b(large);
  EXPECT_DOUBLE_EQ(a.SenseVoltage(1.0), b.SenseVoltage(1.0));
}

}  // namespace
}  // namespace vrl::model
