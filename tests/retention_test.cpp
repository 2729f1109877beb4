#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "model/refresh_model.hpp"
#include "retention/distribution.hpp"
#include "retention/leakage.hpp"
#include "retention/mprsf.hpp"
#include "retention/profile.hpp"
#include "retention/vrt.hpp"

namespace vrl::retention {
namespace {

// ---------------------------------------------------------------------------
// RetentionDistribution (Fig. 3a)
// ---------------------------------------------------------------------------

TEST(Distribution, SamplesRespectFloor) {
  RetentionDistribution dist;
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_GE(dist.SampleCellRetention(rng),
              dist.params().min_retention_s);
  }
}

TEST(Distribution, CdfIsMonotoneAndBounded) {
  RetentionDistribution dist;
  double prev = 0.0;
  for (double t = 0.05; t < 10.0; t *= 1.3) {
    const double c = dist.CellCdf(t);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(dist.CellCdf(0.01), 0.0);
}

TEST(Distribution, EmpiricalCdfMatchesAnalytic) {
  RetentionDistribution dist;
  Rng rng(7);
  const int n = 200000;
  int below_1s = 0;
  int below_256ms = 0;
  for (int i = 0; i < n; ++i) {
    const double t = dist.SampleCellRetention(rng);
    below_1s += t < 1.0 ? 1 : 0;
    below_256ms += t < 0.256 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(below_1s) / n, dist.CellCdf(1.0), 0.01);
  EXPECT_NEAR(static_cast<double>(below_256ms) / n, dist.CellCdf(0.256),
              5e-4);
}

TEST(Distribution, WeakTailFractionCalibrated) {
  // ~0.122% of cells below 256 ms, matching the Fig. 3b row binning.
  RetentionDistribution dist;
  EXPECT_NEAR(dist.CellCdf(0.256), dist.params().weak_fraction, 1e-5);
}

TEST(Distribution, RowRetentionIsMinOfCells) {
  RetentionDistribution dist;
  Rng rng_a(42);
  Rng rng_b(42);
  // With the same stream, the row draw equals the running min of the same
  // 32 cell draws.
  const double row = dist.SampleRowRetention(rng_a, 32);
  double expected = 1e99;
  for (int i = 0; i < 32; ++i) {
    expected = std::min(expected, dist.SampleCellRetention(rng_b));
  }
  EXPECT_DOUBLE_EQ(row, expected);
}

TEST(Distribution, RowMinShiftsDistributionDown) {
  RetentionDistribution dist;
  Rng rng(3);
  double sum_cell = 0.0;
  double sum_row = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    sum_cell += dist.SampleCellRetention(rng);
    sum_row += dist.SampleRowRetention(rng, 32);
  }
  EXPECT_LT(sum_row, sum_cell);
}

TEST(Distribution, HistogramCoversWindow) {
  RetentionDistribution dist;
  Rng rng(5);
  const auto hist =
      BuildRetentionHistogram(dist, rng, 50000, 0.065, 4.681, 21, true);
  ASSERT_EQ(hist.size(), 21u);
  const auto total = std::accumulate(hist.begin(), hist.end(), std::size_t{0});
  EXPECT_EQ(total, 50000u);  // clamped overflow keeps every sample
  // Fig. 3a shape: an interior peak (not the first bucket).
  const auto peak = std::max_element(hist.begin(), hist.end());
  EXPECT_GT(peak - hist.begin(), 1);
}

TEST(Distribution, RejectsBadParams) {
  RetentionDistributionParams p;
  p.weak_fraction = 1.5;
  EXPECT_THROW(RetentionDistribution{p}, ConfigError);
  p = RetentionDistributionParams{};
  p.lognormal_sigma = 0.0;
  EXPECT_THROW(RetentionDistribution{p}, ConfigError);
}

// ---------------------------------------------------------------------------
// RetentionProfile + binning (Fig. 3b)
// ---------------------------------------------------------------------------

TEST(Profile, GenerateProducesRequestedRows) {
  RetentionDistribution dist;
  Rng rng(11);
  const auto profile = RetentionProfile::Generate(dist, 512, 32, rng);
  EXPECT_EQ(profile.rows(), 512u);
  EXPECT_GT(profile.MinRetention(), 0.0);
}

TEST(Profile, RejectsEmptyAndNonPositive) {
  EXPECT_THROW(RetentionProfile(std::vector<double>{}), ConfigError);
  EXPECT_THROW(RetentionProfile({1.0, -2.0}), ConfigError);
}

TEST(Profile, RowRetentionBoundsChecked) {
  const RetentionProfile profile({1.0, 2.0});
  EXPECT_DOUBLE_EQ(profile.RowRetention(1), 2.0);
  EXPECT_THROW(profile.RowRetention(2), ConfigError);
}

TEST(Binning, AssignsLargestSafePeriod) {
  const RetentionProfile profile({0.07, 0.13, 0.2, 0.3, 5.0});
  const auto bins = BinRows(profile, StandardBinPeriods());
  EXPECT_EQ(bins.row_bin[0], 0);  // 70ms -> 64ms bin
  EXPECT_EQ(bins.row_bin[1], 1);  // 130ms -> 128ms bin
  EXPECT_EQ(bins.row_bin[2], 2);  // 200ms -> 192ms bin
  EXPECT_EQ(bins.row_bin[3], 3);  // 300ms -> 256ms bin
  EXPECT_EQ(bins.row_bin[4], 3);  // 5s -> 256ms bin (largest available)
  EXPECT_DOUBLE_EQ(bins.RowPeriod(4), 0.256);
}

TEST(Binning, CountsSumToRows) {
  RetentionDistribution dist;
  Rng rng(1234);
  const auto profile = RetentionProfile::Generate(dist, 8192, 32, rng);
  const auto bins = BinRows(profile, StandardBinPeriods());
  const auto total = std::accumulate(bins.rows_per_bin.begin(),
                                     bins.rows_per_bin.end(), std::size_t{0});
  EXPECT_EQ(total, 8192u);
}

TEST(Binning, ReproducesFig3bShape) {
  // Monte-Carlo reproduction of the paper's Fig. 3b table
  // (68 / 101 / 145 / 7878 rows).  Allow generous tolerance: the bin
  // populations are binomial draws.
  RetentionDistribution dist;
  Rng rng(1234);
  const auto profile = RetentionProfile::Generate(dist, 8192, 32, rng);
  const auto bins = BinRows(profile, StandardBinPeriods());
  ASSERT_EQ(bins.rows_per_bin.size(), 4u);
  EXPECT_NEAR(static_cast<double>(bins.rows_per_bin[0]), 68.0, 35.0);
  EXPECT_NEAR(static_cast<double>(bins.rows_per_bin[1]), 101.0, 45.0);
  EXPECT_NEAR(static_cast<double>(bins.rows_per_bin[2]), 145.0, 55.0);
  EXPECT_GT(bins.rows_per_bin[3], 7700u);
  // And the ordering of the weak bins is preserved.
  EXPECT_LT(bins.rows_per_bin[0], bins.rows_per_bin[1]);
  EXPECT_LT(bins.rows_per_bin[1], bins.rows_per_bin[2]);
}

TEST(Binning, ThrowsOnUnrefreshableRow) {
  const RetentionProfile profile({0.01});
  EXPECT_THROW(BinRows(profile, StandardBinPeriods()), ConfigError);
}

TEST(Binning, RejectsUnsortedPeriods) {
  const RetentionProfile profile({1.0});
  EXPECT_THROW(BinRows(profile, {0.128, 0.064}), ConfigError);
}

// ---------------------------------------------------------------------------
// LeakageModel
// ---------------------------------------------------------------------------

TEST(Leakage, DecayReachesReadableAtRetentionTime) {
  // By definition: starting from full, after exactly the retention time the
  // cell is at the readable limit.
  const LeakageModel leak(0.9995, 0.579);
  const double t_ret = 0.5;
  EXPECT_NEAR(leak.FractionAfter(0.9995, t_ret, t_ret), 0.579, 1e-9);
}

TEST(Leakage, DecayIsExponential) {
  const LeakageModel leak(1.0, 0.5);
  const double tau = leak.TauCell(1.0);
  EXPECT_NEAR(leak.FractionAfter(1.0, tau, 1.0), std::exp(-1.0), 1e-12);
}

TEST(Leakage, LongerRetentionDecaysSlower) {
  const LeakageModel leak(0.9995, 0.579);
  EXPECT_GT(leak.FractionAfter(1.0, 0.064, 0.256),
            leak.FractionAfter(1.0, 0.064, 0.128));
}

TEST(Leakage, TimeToReachInvertsDecay) {
  const LeakageModel leak(0.9995, 0.579);
  const double t = leak.TimeToReach(0.9, 0.7, 1.0);
  EXPECT_NEAR(leak.FractionAfter(0.9, t, 1.0), 0.7, 1e-12);
}

TEST(Leakage, TimeToReachEdgeCases) {
  const LeakageModel leak(0.9995, 0.579);
  EXPECT_DOUBLE_EQ(leak.TimeToReach(0.7, 0.8, 1.0), 0.0);
  EXPECT_TRUE(std::isinf(leak.TimeToReach(0.7, 0.0, 1.0)));
}

TEST(Leakage, RejectsBadFractions) {
  EXPECT_THROW(LeakageModel(0.5, 0.6), ConfigError);
  EXPECT_THROW(LeakageModel(1.2, 0.5), ConfigError);
  EXPECT_THROW(LeakageModel(0.9, 0.0), ConfigError);
}

// ---------------------------------------------------------------------------
// MprsfCalculator (§3, Fig. 1b)
// ---------------------------------------------------------------------------

class MprsfTest : public ::testing::Test {
 protected:
  MprsfTest()
      : model_(TechnologyParams{}),
        calc_(model_, model_.PartialRefreshTimings().tau_post_s) {}

  model::RefreshModel model_;
  MprsfCalculator calc_;
};

TEST_F(MprsfTest, BarelyRetainingCellHasZeroMprsf) {
  // Retention just above the refresh period: the first partial leaves too
  // little charge for the next refresh.
  EXPECT_EQ(calc_.ComputeMprsf(0.067, 0.064, 8), 0u);
}

TEST_F(MprsfTest, ModerateCellSustainsOnePartial) {
  EXPECT_EQ(calc_.ComputeMprsf(0.100, 0.064, 8), 1u);
}

TEST_F(MprsfTest, StrongCellIsLimitedByRestoreTruncation) {
  // Even a very strong cell cannot sustain unlimited partials: the
  // compounded restore deficit kills the third consecutive partial.
  EXPECT_LE(calc_.ComputeMprsf(4.0, 0.256, 8), 3u);
  EXPECT_GE(calc_.ComputeMprsf(4.0, 0.256, 8), 2u);
}

TEST_F(MprsfTest, MprsfIsMonotoneInRetention) {
  std::size_t prev = 0;
  for (const double t : {0.067, 0.08, 0.1, 0.2, 0.5, 1.0, 3.0}) {
    const std::size_t m = calc_.ComputeMprsf(t, 0.064, 8);
    EXPECT_GE(m, prev);
    prev = m;
  }
}

TEST_F(MprsfTest, MaxPartialsCapsResult) {
  const std::size_t uncapped = calc_.ComputeMprsf(4.0, 0.256, 8);
  EXPECT_EQ(calc_.ComputeMprsf(4.0, 0.256, 1), std::min<std::size_t>(uncapped, 1));
}

TEST_F(MprsfTest, ThrowsWhenRefreshSlowerThanRetention) {
  EXPECT_THROW(calc_.ComputeMprsf(0.05, 0.064, 8), ConfigError);
}

TEST_F(MprsfTest, Fig1bTrajectoryFailsOnSecondPartial) {
  // The paper's Fig. 1b cell: retention slightly above 64 ms.  Full
  // refresh, one good partial at 95%, then the second partial finds the
  // cell below the sensing threshold.
  const auto traj = calc_.SimulateSchedule(0.067, 0.064, 3, 4);
  std::vector<MprsfCalculator::TrajectoryPoint> refreshes;
  for (const auto& p : traj) {
    if (p.is_refresh) {
      refreshes.push_back(p);
    }
  }
  ASSERT_GE(refreshes.size(), 3u);
  EXPECT_TRUE(refreshes[0].was_full);
  EXPECT_TRUE(refreshes[1].sense_ok);
  EXPECT_FALSE(refreshes[1].was_full);
  EXPECT_NEAR(refreshes[1].fraction, 0.95, 0.01);
  EXPECT_FALSE(refreshes[2].sense_ok);  // data lost
}

TEST_F(MprsfTest, FullRefreshOnlyScheduleIsStable) {
  const auto traj = calc_.SimulateSchedule(0.1, 0.064, 0, 10);
  for (const auto& p : traj) {
    EXPECT_TRUE(p.sense_ok);
    if (p.is_refresh) {
      EXPECT_TRUE(p.was_full);
      // Cycle-quantized τpost restores slightly beyond the target.
      EXPECT_NEAR(p.fraction, model_.spec().full_target, 1e-3);
      EXPECT_GE(p.fraction, model_.spec().full_target - 1e-9);
    }
  }
}

TEST_F(MprsfTest, TrajectoryTimesAreMonotone) {
  const auto traj = calc_.SimulateSchedule(0.5, 0.064, 2, 6);
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_GE(traj[i].time_s, traj[i - 1].time_s);
  }
}

TEST_F(MprsfTest, RowMprsfMatchesPerRowComputation) {
  // Two bins whose rows are interleaved and repeat retention values, so
  // the bisection fills runs it did not evaluate row by row.
  const RetentionProfile profile(
      {0.067, 0.1, 2.0, 0.067, 3.0, 3.0, 0.1, 0.067, 0.1, 3.0});
  const auto bins = BinRows(profile, StandardBinPeriods());
  std::size_t evaluations = 0;
  const auto row_mprsf = calc_.ComputeRowMprsf(profile, bins, 3, &evaluations);
  ASSERT_EQ(row_mprsf.size(), profile.rows());
  for (std::size_t r = 0; r < profile.rows(); ++r) {
    EXPECT_EQ(row_mprsf[r],
              calc_.ComputeMprsf(profile.RowRetention(r), bins.RowPeriod(r), 3));
  }
  EXPECT_LT(evaluations, profile.rows());
}

// ---------------------------------------------------------------------------
// FillNonDecreasingRuns (the bisection behind ComputeRowMprsf)
// ---------------------------------------------------------------------------

/// Runs FillNonDecreasingRuns over `values`, counting evaluator calls.
struct FillResult {
  std::vector<std::size_t> out;
  std::size_t calls = 0;
};

FillResult FillFrom(const std::vector<std::size_t>& values) {
  FillResult result;
  result.out.assign(values.size(), 999);
  FillNonDecreasingRuns(
      values.size(),
      [&](std::size_t i) {
        ++result.calls;
        return values.at(i);
      },
      result.out.data());
  return result;
}

TEST(FillNonDecreasingRuns, EmptyRangeEvaluatesNothing) {
  const FillResult r = FillFrom({});
  EXPECT_EQ(r.calls, 0u);
}

TEST(FillNonDecreasingRuns, SingleElementEvaluatesOnce) {
  const FillResult r = FillFrom({4});
  EXPECT_EQ(r.out, std::vector<std::size_t>({4}));
  EXPECT_EQ(r.calls, 1u);
}

TEST(FillNonDecreasingRuns, ConstantRunNeedsOnlyItsEnds) {
  const std::vector<std::size_t> values(1000, 2);
  const FillResult r = FillFrom(values);
  EXPECT_EQ(r.out, values);
  EXPECT_EQ(r.calls, 2u);
}

TEST(FillNonDecreasingRuns, StepsCostLogarithmicallyPerDistinctValue) {
  std::vector<std::size_t> values(4096, 0);
  std::fill(values.begin() + 1000, values.end(), 1);
  std::fill(values.begin() + 3000, values.end(), 3);
  const FillResult r = FillFrom(values);
  EXPECT_EQ(r.out, values);
  // Two steps, each located by a bisection over at most 12 levels.
  EXPECT_LE(r.calls, 2u + 2u * 12u);
}

TEST(FillNonDecreasingRuns, MidpointOutsideEndsFallsBackPerElement) {
  // Ends 1 and 2, midpoint 0: the ordering is visibly broken.
  const std::vector<std::size_t> values{1, 3, 0, 2, 2};
  const FillResult r = FillFrom(values);
  EXPECT_EQ(r.out, values);
  EXPECT_EQ(r.calls, 3u + values.size());  // ends, midpoint, then every one
}

TEST(FillNonDecreasingRuns, DescendingEndsFallBackPerElement) {
  const std::vector<std::size_t> values{3, 3, 2, 1, 1, 0};
  const FillResult r = FillFrom(values);
  EXPECT_EQ(r.out, values);
  EXPECT_EQ(r.calls, 2u + values.size());
}

TEST_F(MprsfTest, RejectsNonPositiveTauPartial) {
  EXPECT_THROW(MprsfCalculator(model_, 0.0), ConfigError);
}

// ---------------------------------------------------------------------------
// VRT (the worst-case path guarding the fault campaign)
// ---------------------------------------------------------------------------

TEST(Vrt, SampleVrtRowsIsDeterministicGivenRngState) {
  VrtParams params;
  params.row_fraction = 0.1;
  Rng a(99);
  Rng b(99);
  EXPECT_EQ(SampleVrtRows(params, 4096, a), SampleVrtRows(params, 4096, b));
  Rng c(100);
  EXPECT_NE(SampleVrtRows(params, 4096, a), SampleVrtRows(params, 4096, c));
}

TEST(Vrt, WorstCaseScalesExactlyTheVrtRows) {
  VrtParams params;
  params.low_ratio = 0.6;
  const RetentionProfile profiled({0.5, 1.0, 2.0, 4.0});
  const std::vector<bool> vrt_rows = {false, true, false, true};
  const auto worst = WorstCaseRuntimeProfile(profiled, vrt_rows, params);
  ASSERT_EQ(worst.rows(), 4u);
  EXPECT_DOUBLE_EQ(worst.RowRetention(0), 0.5);
  EXPECT_DOUBLE_EQ(worst.RowRetention(1), 1.0 * 0.6);
  EXPECT_DOUBLE_EQ(worst.RowRetention(2), 2.0);
  EXPECT_DOUBLE_EQ(worst.RowRetention(3), 4.0 * 0.6);
}

TEST(Vrt, ParamsValidateDwellTime) {
  VrtParams params;
  EXPECT_NO_THROW(params.Validate());
  params.mean_dwell_s = 0.0;
  EXPECT_THROW(params.Validate(), ConfigError);
  params.mean_dwell_s = -1.0;
  EXPECT_THROW(params.Validate(), ConfigError);
}

}  // namespace
}  // namespace vrl::retention
