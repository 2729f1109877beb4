#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
#include "dram/policy_registry.hpp"
#include "fault/adaptive_policy.hpp"
#include "fault/campaign.hpp"
#include "fault/charge_tracker.hpp"
#include "fault/injector.hpp"
#include "model/refresh_model.hpp"
#include "retention/temperature.hpp"
#include "retention/vrt.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/trace_export.hpp"

#include "grant_all.hpp"

namespace vrl::fault {
namespace {

// ---------------------------------------------------------------------------
// ChargeTracker
// ---------------------------------------------------------------------------

TEST(ChargeTracker, FullRefreshOnScheduleKeepsMarginPositive) {
  const model::RefreshModel model{TechnologyParams{}};
  ChargeTracker tracker(model, 2);
  const double tau_post = model.FullRefreshTimings().tau_post_s;
  // A 64 ms schedule against 200 ms retention: comfortably safe.
  for (int i = 1; i <= 20; ++i) {
    const auto result =
        tracker.Refresh(0, 0.064 * i, 0.2, /*is_full=*/true, tau_post);
    EXPECT_TRUE(result.sense_ok);
    EXPECT_GT(result.margin, 0.0);
  }
  EXPECT_GT(tracker.min_margin(), 0.0);
}

TEST(ChargeTracker, LateRefreshFailsToSense) {
  const model::RefreshModel model{TechnologyParams{}};
  ChargeTracker tracker(model, 1);
  const double tau_post = model.FullRefreshTimings().tau_post_s;
  // Decaying for 4x the retention target leaves nothing to sense.
  const auto result = tracker.Refresh(0, 0.8, 0.2, true, tau_post);
  EXPECT_FALSE(result.sense_ok);
  EXPECT_LT(result.margin, 0.0);
  EXPECT_LT(tracker.min_margin(), 0.0);
}

TEST(ChargeTracker, RestoreResetsChargeAndPartialStreak) {
  const model::RefreshModel model{TechnologyParams{}};
  ChargeTracker tracker(model, 1);
  const double tau_post = model.PartialRefreshTimings().tau_post_s;
  tracker.Refresh(0, 0.064, 0.2, /*is_full=*/false, tau_post);
  tracker.Refresh(0, 0.128, 0.2, /*is_full=*/false, tau_post);
  EXPECT_EQ(tracker.consecutive_partials(0), 2u);
  tracker.Restore(0, 0.130);
  EXPECT_EQ(tracker.consecutive_partials(0), 0u);
  EXPECT_DOUBLE_EQ(tracker.fraction(0), model.spec().full_target);
}

TEST(ChargeTracker, ConsecutivePartialsTruncateRestore) {
  const model::RefreshModel model{TechnologyParams{}};
  ChargeTracker tracker(model, 1);
  const double tau_post = model.PartialRefreshTimings().tau_post_s;
  double prev_after = 1.0;
  // Back-to-back partials: each restore is capped lower than the last,
  // even with essentially no decay between them (10 s retention).
  for (int i = 1; i <= 3; ++i) {
    const auto result =
        tracker.Refresh(0, 0.001 * i, 10.0, /*is_full=*/false, tau_post);
    EXPECT_TRUE(result.sense_ok);
    EXPECT_LT(result.fraction_after, prev_after);
    prev_after = result.fraction_after;
  }
  EXPECT_EQ(tracker.consecutive_partials(0), 3u);
  // The compounding deficit has eaten the whole margin: a fourth
  // back-to-back partial cannot even sense the row.  This is the physics
  // the MPRSF cap exists to respect.
  const auto fourth = tracker.Refresh(0, 0.004, 10.0, false, tau_post);
  EXPECT_FALSE(fourth.sense_ok);
  EXPECT_EQ(tracker.consecutive_partials(0), 3u);
}

TEST(ChargeTracker, RejectsBadInputs) {
  const model::RefreshModel model{TechnologyParams{}};
  ChargeTracker tracker(model, 2);
  EXPECT_THROW(tracker.Refresh(2, 0.1, 0.2, true, 1e-9), ConfigError);
  EXPECT_THROW(tracker.Refresh(0, 0.1, 0.0, true, 1e-9), ConfigError);
  tracker.Refresh(0, 0.1, 0.2, true, 1e-9);
  EXPECT_THROW(tracker.Refresh(0, 0.05, 0.2, true, 1e-9), ConfigError);
  // Other rows keep their own clocks.
  EXPECT_NO_THROW(tracker.Refresh(1, 0.05, 0.2, true, 1e-9));
}

// ---------------------------------------------------------------------------
// FaultState and injectors
// ---------------------------------------------------------------------------

TEST(FaultState, RowScaleIsProductOfComponents) {
  FaultState state(4);
  EXPECT_DOUBLE_EQ(state.RowScale(2), 1.0);
  state.set_vrt_scale(2, 0.6);
  state.set_corruption_scale(2, 0.8);
  state.set_temperature_scale(0.5);
  state.set_drift_scale(0.9);
  EXPECT_DOUBLE_EQ(state.RowScale(2), 0.6 * 0.8 * 0.5 * 0.9);
  EXPECT_DOUBLE_EQ(state.RowScale(0), 0.5 * 0.9);
}

TEST(VrtFlipInjectorTest, SameSeedSameTrace) {
  retention::VrtParams params;
  params.row_fraction = 0.1;
  const auto run = [&](std::uint64_t seed) {
    VrtFlipInjector injector(params);
    FaultState state(512);
    Rng rng(seed);
    std::vector<double> trace;
    for (int tick = 0; tick < 50; ++tick) {
      injector.Advance(0.01 * tick, state, rng);
      for (std::size_t row = 0; row < 512; ++row) {
        trace.push_back(state.RowScale(row));
      }
    }
    return trace;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(VrtFlipInjectorTest, OnlyVrtRowsFlipAndOnlyToLowRatio) {
  retention::VrtParams params;
  params.row_fraction = 0.2;
  params.low_ratio = 0.6;
  params.mean_dwell_s = 0.05;  // fast telegraph so flips happen in-test
  VrtFlipInjector injector(params);
  FaultState state(256);
  Rng rng(3);

  std::size_t low_seen = 0;
  for (int tick = 0; tick < 200; ++tick) {
    injector.Advance(0.01 * tick, state, rng);
    for (std::size_t row = 0; row < 256; ++row) {
      const double scale = state.RowScale(row);
      if (scale != 1.0) {
        EXPECT_DOUBLE_EQ(scale, params.low_ratio);
        EXPECT_TRUE(injector.vrt_rows()[row]);
        ++low_seen;
      }
    }
  }
  EXPECT_GT(low_seen, 0u);
}

/// Reference for VrtFlipInjector's walk over its VRT row index: visits every
/// row on every tick and skips the non-VRT ones.
class DenseVrtWalk {
 public:
  explicit DenseVrtWalk(const retention::VrtParams& params) : params_(params) {}

  void Advance(double now_s, FaultState& state, Rng& rng) {
    const std::size_t rows = state.rows();
    if (vrt_rows_.empty()) {
      vrt_rows_ = retention::SampleVrtRows(params_, rows, rng);
      in_low_.assign(rows, false);
      for (std::size_t r = 0; r < rows; ++r) {
        if (vrt_rows_[r]) {
          in_low_[r] = rng.Bernoulli(params_.low_state_prob);
          state.set_vrt_scale(r, in_low_[r] ? params_.low_ratio : 1.0);
        }
      }
      last_now_s_ = now_s;
      return;
    }
    const double dt = now_s - last_now_s_;
    last_now_s_ = now_s;
    if (dt <= 0.0) {
      return;
    }
    const double p = params_.low_state_prob;
    const double d_low = params_.mean_dwell_s;
    const double p_leave_low = p >= 1.0 ? 0.0 : -std::expm1(-dt / d_low);
    double p_enter_low = 1.0;
    if (p <= 0.0) {
      p_enter_low = 0.0;
    } else if (p < 1.0) {
      p_enter_low = -std::expm1(-dt / (d_low * (1.0 - p) / p));
    }
    for (std::size_t r = 0; r < rows; ++r) {
      if (!vrt_rows_[r]) {
        continue;
      }
      if (rng.Bernoulli(in_low_[r] ? p_leave_low : p_enter_low)) {
        in_low_[r] = !in_low_[r];
        state.set_vrt_scale(r, in_low_[r] ? params_.low_ratio : 1.0);
      }
    }
  }

 private:
  retention::VrtParams params_;
  std::vector<bool> vrt_rows_;
  std::vector<bool> in_low_;
  double last_now_s_ = 0.0;
};

/// Advances VrtFlipInjector and DenseVrtWalk side by side and expects the
/// same scales and the same generator state after every step.
void ExpectSparseWalkMatchesDense(double row_fraction, double low_state_prob,
                                  double mean_dwell_s) {
  retention::VrtParams params;
  params.row_fraction = row_fraction;
  params.low_state_prob = low_state_prob;
  params.mean_dwell_s = mean_dwell_s;
  constexpr std::size_t kRows = 300;

  VrtFlipInjector sparse(params);
  DenseVrtWalk dense(params);
  FaultState sparse_state(kRows);
  FaultState dense_state(kRows);
  Rng sparse_rng(17);
  Rng dense_rng(17);
  // Includes a repeated instant (dt == 0) and uneven steps.
  for (const double now : {0.0, 0.01, 0.02, 0.02, 0.05, 0.06, 0.2, 0.21}) {
    sparse.Advance(now, sparse_state, sparse_rng);
    dense.Advance(now, dense_state, dense_rng);
    EXPECT_EQ(sparse_state.vrt_scale(), dense_state.vrt_scale()) << now;
    EXPECT_EQ(sparse_rng(), dense_rng()) << now;
  }
}

class VrtSparseWalkTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(VrtSparseWalkTest, SameScalesAndRngStreamAsDenseWalk) {
  // A fast telegraph (0.05 s dwell) so rows flip in-test.
  ExpectSparseWalkMatchesDense(std::get<0>(GetParam()),
                               std::get<1>(GetParam()), 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    RowFractionByLowProb, VrtSparseWalkTest,
    ::testing::Combine(::testing::Values(0.0, 0.02, 1.0),
                       ::testing::Values(0.0, 0.3, 1.0)));

/// The integer-threshold draw at both ends of the flip probability: a 1 ms
/// dwell, far below the 10-150 ms steps (p from 1 - 5e-5 up to exactly 1,
/// thresholds at or just below 2^53), and a 1e5 s one far above them
/// (p ~ 1e-7, a threshold of ~1e9 out of 2^53).
class VrtSparseWalkDwellTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(VrtSparseWalkDwellTest, SameScalesAndRngStreamAsDenseWalk) {
  ExpectSparseWalkMatchesDense(0.5, std::get<0>(GetParam()),
                               std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    LowProbByDwell, VrtSparseWalkDwellTest,
    ::testing::Combine(::testing::Values(0.3, 0.5),
                       ::testing::Values(1e-3, 1e5)));

TEST(VrtFlipInjectorTest, RejectsRowCountChangeBetweenAdvances) {
  VrtFlipInjector injector(retention::VrtParams{});
  Rng rng(1);
  FaultState small(8);
  FaultState large(16);
  injector.Advance(0.0, small, rng);
  EXPECT_THROW(injector.Advance(0.1, large, rng), ConfigError);
  EXPECT_NO_THROW(injector.Advance(0.1, small, rng));
}

TEST(TemperatureExcursionInjectorTest, ScalesOnlyInsideWindow) {
  const retention::TemperatureModel model;
  TemperatureExcursionInjector injector(
      model, /*start_s=*/1.0, /*duration_s=*/0.5, /*peak_celsius=*/85.0);
  FaultState state(8);
  Rng rng(1);
  injector.Advance(0.5, state, rng);
  EXPECT_DOUBLE_EQ(state.RowScale(0), 1.0);
  injector.Advance(1.2, state, rng);
  const double hot = state.RowScale(0);
  EXPECT_LT(hot, 1.0);  // hotter = leakier
  injector.Advance(2.0, state, rng);
  EXPECT_DOUBLE_EQ(state.RowScale(0), 1.0);
}

TEST(TemperatureExcursionInjectorTest, RejectsPeakAtOrBelowProfiling) {
  const retention::TemperatureModel model;
  for (const double peak : {-10.0, 0.0, 30.0, model.profiling_celsius}) {
    EXPECT_THROW(TemperatureExcursionInjector(model, 1.0, 0.5, peak),
                 ConfigError)
        << peak;
  }
  const double hotter = model.profiling_celsius + 1.0;
  EXPECT_NO_THROW(TemperatureExcursionInjector(model, 1.0, 0.5, hotter));
}

TEST(RetentionDriftInjectorTest, DeclinesLinearlyToFloor) {
  RetentionDriftInjector injector(/*rate_per_s=*/0.1, /*floor_scale=*/0.7);
  FaultState state(4);
  Rng rng(1);
  injector.Advance(1.0, state, rng);
  EXPECT_NEAR(state.RowScale(0), 0.9, 1e-12);
  injector.Advance(10.0, state, rng);
  EXPECT_NEAR(state.RowScale(0), 0.7, 1e-12);  // floored
}

TEST(ProfileCorruptionInjectorTest, FiresOnceAndSticks) {
  ProfileCorruptionInjector injector(
      /*row_fraction=*/0.5, /*true_ratio=*/0.8, /*at_s=*/1.0);
  FaultState state(512);
  Rng rng(5);
  injector.Advance(0.5, state, rng);
  for (std::size_t row = 0; row < 512; ++row) {
    EXPECT_DOUBLE_EQ(state.RowScale(row), 1.0);
  }
  injector.Advance(1.5, state, rng);
  std::size_t corrupted = 0;
  for (std::size_t row = 0; row < 512; ++row) {
    if (state.RowScale(row) != 1.0) {
      EXPECT_DOUBLE_EQ(state.RowScale(row), 0.8);
      ++corrupted;
    }
  }
  EXPECT_GT(corrupted, 150u);
  EXPECT_LT(corrupted, 350u);
  // Sticky: the same rows stay corrupted forever after.
  injector.Advance(100.0, state, rng);
  std::size_t still = 0;
  for (std::size_t row = 0; row < 512; ++row) {
    if (state.RowScale(row) != 1.0) {
      ++still;
    }
  }
  EXPECT_EQ(still, corrupted);
}

TEST(FaultScheduleTest, EnforcesContract) {
  FaultSchedule schedule(1);
  EXPECT_EQ(schedule.Describe(), "none");
  EXPECT_THROW(schedule.Add(nullptr), ConfigError);
  schedule.Add(std::make_unique<RetentionDriftInjector>(0.01, 0.5));
  EXPECT_EQ(schedule.Describe(), "retention-drift");
  // A recording needs a bank of rows, and tick and row indices that fit
  // a FaultWrite; the index check comes before any state is allocated.
  constexpr std::size_t kPastIndex =
      std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;
  const TickSequence ticks = {1000, 4, 2.5e-9};
  EXPECT_THROW(FaultRecording(FaultSchedule{}, ticks, 0), ConfigError);
  EXPECT_THROW(FaultRecording(FaultSchedule{}, ticks, kPastIndex),
               ConfigError);
  EXPECT_THROW(
      FaultRecording(FaultSchedule{}, TickSequence{1000, kPastIndex, 2.5e-9},
                     8),
      ConfigError);
  const FaultRecording recording(std::move(schedule), ticks, 8);
  EXPECT_EQ(recording.description(), "retention-drift");
  EXPECT_EQ(recording.ticks(), ticks);
  EXPECT_EQ(recording.rows(), 8u);
}

// ---------------------------------------------------------------------------
// FaultRecording and replay
// ---------------------------------------------------------------------------

/// All four injectors, timed so the ticks below cross each one's changes:
/// a fast VRT telegraph, a hot window from 0.3 s to 0.6 s, drift reaching
/// its floor at 0.4 s and a corruption firing at 0.5 s.
std::vector<std::unique_ptr<FaultInjector>> FourInjectors() {
  retention::VrtParams vrt;
  vrt.row_fraction = 0.2;
  vrt.mean_dwell_s = 0.05;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  injectors.push_back(std::make_unique<VrtFlipInjector>(vrt));
  injectors.push_back(std::make_unique<TemperatureExcursionInjector>(
      retention::TemperatureModel{}, 0.3, 0.3, 85.0));
  injectors.push_back(std::make_unique<RetentionDriftInjector>(0.5, 0.8));
  injectors.push_back(
      std::make_unique<ProfileCorruptionInjector>(0.1, 0.8, 0.5));
  return injectors;
}

/// 100 ticks of 10 ms (4 M cycles at 2.5 ns).
constexpr TickSequence kTenMsTicks = {4'000'000, 100, 2.5e-9};

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(FaultRecording, ReplayGivesTheLiveRowScalesAtEveryTick) {
  constexpr std::size_t kRows = 256;
  constexpr std::uint64_t kSeed = 9;
  FaultSchedule schedule(kSeed);
  for (auto& injector : FourInjectors()) {
    schedule.Add(std::move(injector));
  }
  const FaultRecording recording(std::move(schedule), kTenMsTicks, kRows);
  EXPECT_EQ(recording.description(),
            "vrt-flips, temperature-excursion, retention-drift, "
            "profile-corruption");

  // The live reference: the same injectors advanced by hand, in schedule
  // order, from a generator seeded with the schedule's seed.  A campaign
  // reads faults only through the row scales, so equal scales at every
  // tick make every replayed campaign the live one.
  const std::vector<std::unique_ptr<FaultInjector>> live = FourInjectors();
  FaultState live_state(kRows);
  Rng rng(kSeed);
  FaultState replayed(kRows);
  ReplayCursor cursor(recording);
  std::size_t changed_rows = 0;
  std::vector<double> previous(kRows, 1.0);
  for (std::size_t k = 0; k < kTenMsTicks.count; ++k) {
    for (const auto& injector : live) {
      injector->Advance(kTenMsTicks.seconds(k), live_state, rng);
    }
    cursor.ApplyThrough(k, replayed);
    for (std::size_t row = 0; row < kRows; ++row) {
      const double scale = live_state.RowScale(row);
      ASSERT_EQ(Bits(replayed.RowScale(row)), Bits(scale))
          << "tick " << k << " row " << row;
      changed_rows += scale != previous[row] ? 1 : 0;
      previous[row] = scale;
    }
  }
  EXPECT_GT(changed_rows, kRows);

  // Every component was written, and only its changes were logged.
  std::size_t by_component[4] = {};
  const std::vector<FaultWrite> writes = recording.writes();
  for (const FaultWrite& write : writes) {
    ++by_component[static_cast<std::size_t>(write.component)];
  }
  for (const std::size_t count : by_component) {
    EXPECT_GT(count, 0u);
  }
  EXPECT_EQ(by_component[static_cast<std::size_t>(
                FaultComponent::kTemperature)],
            2u);  // into the hot window and out of it
  EXPECT_LT(writes.size(), kTenMsTicks.count * kRows / 10);
  EXPECT_TRUE(std::is_sorted(writes.begin(), writes.end(),
                             [](const FaultWrite& a, const FaultWrite& b) {
                               return a.tick < b.tick;
                             }));
}

TEST(FaultRecording, ReplayRejectsTimesNotInTheRecording) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  constexpr std::size_t kWindows = 1;
  const CampaignSetup setup = system.CampaignSetupFor(kWindows);
  const TickSequence ticks = setup.Ticks();
  const auto campaign = [&](const TickSequence& over) {
    const FaultRecording faults(FaultSchedule{}, over,
                                system.profile().rows());
    const auto policy = system.MakePolicyFactory("VRL")();
    return RunCampaign(system.refresh_model(), system.profile(), *policy,
                       faults, setup);
  };
  EXPECT_NO_THROW(campaign(ticks));

  TickSequence more_windows = ticks;
  more_windows.count += setup.base_window / setup.t_refi;
  TickSequence half_refi = ticks;  // the same horizon at twice the rate
  half_refi.period /= 2;
  half_refi.count = 2 * ticks.count - 1;
  TickSequence other_clock = ticks;
  other_clock.clock_period_s *= 2.0;
  for (const TickSequence& other : {more_windows, half_refi, other_clock}) {
    EXPECT_THROW(campaign(other), ConfigError);
  }

  // Through the system, a recording by a system of another tREFI or clock
  // is refused too: the campaign takes its length from the recording, but
  // not its ticks.
  core::VrlConfig double_refi_config = config;
  double_refi_config.timing.t_refi *= 2;
  core::VrlConfig other_clock_config = config;
  other_clock_config.tech.clock_period_s *= 2.0;
  for (const core::VrlConfig& other :
       {double_refi_config, other_clock_config}) {
    const core::VrlSystem recorder(other);
    EXPECT_THROW(system.RunFaultCampaign(
                     {"VRL"}, recorder.RecordFaults(FaultSchedule{}, kWindows)),
                 ConfigError);
  }
}

// ---------------------------------------------------------------------------
// AdaptiveVrlPolicy state machine
// ---------------------------------------------------------------------------

constexpr Cycles kWindow = 1000;
constexpr Cycles kMinPeriod = 100;

AdaptiveVrlPolicy MakeAdaptive(AdaptiveParams params = {},
                               std::size_t rows = 4) {
  dram::RowRefreshPlan plan;
  plan.period_cycles.assign(rows, kWindow);
  plan.mprsf.assign(rows, 3);
  auto inner = std::make_unique<dram::VrlPolicy>(plan, 19, 11);
  return AdaptiveVrlPolicy(std::move(inner), plan, 19, 11, kWindow,
                           kMinPeriod, params);
}

TEST(AdaptivePolicy, ValidatesConstruction) {
  dram::RowRefreshPlan plan;
  plan.period_cycles.assign(4, kWindow);
  plan.mprsf.assign(4, 1);
  EXPECT_THROW(AdaptiveVrlPolicy(nullptr, plan, 19, 11, kWindow, kMinPeriod),
               ConfigError);
  auto inner = std::make_unique<dram::VrlPolicy>(plan, 19, 11);
  dram::RowRefreshPlan wrong = plan;
  wrong.period_cycles.push_back(kWindow);
  EXPECT_THROW(AdaptiveVrlPolicy(std::move(inner), wrong, 19, 11, kWindow,
                                 kMinPeriod),
               ConfigError);
  inner = std::make_unique<dram::VrlPolicy>(plan, 19, 11);
  EXPECT_THROW(
      AdaptiveVrlPolicy(std::move(inner), plan, 19, 19, kWindow, kMinPeriod),
      ConfigError);
}

TEST(AdaptivePolicy, HealthyRowsPassThroughInner) {
  auto policy = MakeAdaptive();
  EXPECT_EQ(policy.Name(), "Adaptive(VRL)");
  EXPECT_EQ(policy.rows(), 4u);
  std::size_t inner_ops = 0;
  for (Cycles now = 0; now <= 10 * kWindow; now += 50) {
    inner_ops += GrantAll(policy, now).size();
  }
  EXPECT_GT(inner_ops, 0u);
  EXPECT_EQ(policy.stats().demotions, 0u);
}

TEST(AdaptivePolicy, DemotionHalvesMprsfThenPeriod) {
  auto policy = MakeAdaptive();
  // Base setting: mprsf 3, period 1000.  The ladder: mprsf 3 -> 1 -> 0,
  // then period 1000 -> 500 -> 250 -> 125; 125/2 < 100 saturates.
  const std::vector<std::pair<std::uint8_t, Cycles>> ladder = {
      {1, 1000}, {0, 1000}, {0, 500}, {0, 250}, {0, 125}};
  Cycles now = 10;
  for (const auto& [mprsf, period] : ladder) {
    EXPECT_EQ(policy.OnSensingFailure(1, now), FailureResponse::kCorrected);
    EXPECT_EQ(policy.DemotedSetting(1),
              std::make_pair(mprsf, period));
    now += 2;
  }
  EXPECT_EQ(policy.DemotionLevel(1), ladder.size());
  EXPECT_EQ(policy.OnSensingFailure(1, now), FailureResponse::kSaturated);
  EXPECT_EQ(policy.DemotionLevel(1), ladder.size());  // unchanged
  const auto stats = policy.stats();
  EXPECT_EQ(stats.demotions, ladder.size());
  EXPECT_EQ(stats.saturated_failures, 1u);
  EXPECT_EQ(stats.rows_demoted_now, 1u);
}

TEST(AdaptivePolicy, FailureForcesImmediateFullRefresh) {
  auto policy = MakeAdaptive();
  policy.OnSensingFailure(2, 500);
  const auto ops = GrantAll(policy, 501);
  ASSERT_FALSE(ops.empty());
  EXPECT_EQ(ops.front().row, 2u);
  EXPECT_TRUE(ops.front().is_full);
  EXPECT_EQ(ops.front().trfc, 19u);
  EXPECT_EQ(policy.stats().forced_full_refreshes, 1u);
}

TEST(AdaptivePolicy, DemotedRowLeavesInnerSchedule) {
  auto policy = MakeAdaptive();
  policy.OnSensingFailure(0, 10);  // demoted: mprsf 1, period 1000
  std::size_t row0_ops = 0;
  std::size_t full_row0 = 0;
  for (Cycles now = 11; now <= 20 * kWindow; now += 50) {
    for (const auto& op : GrantAll(policy, now)) {
      if (op.row == 0) {
        ++row0_ops;
        full_row0 += op.is_full ? 1u : 0u;
      }
    }
  }
  // Forced full + one op per period: the wrapper owns row 0 now, and with
  // mprsf 1 roughly half its scheduled refreshes are full.
  EXPECT_GE(row0_ops, 20u);
  EXPECT_GE(full_row0, 10u);
}

TEST(AdaptivePolicy, PromotionNeedsCleanWindows) {
  AdaptiveParams params;
  params.promote_after_clean_windows = 2;
  auto policy = MakeAdaptive(params);
  policy.OnSensingFailure(1, 500);  // window 0, level 1
  // Too soon: window 1 < 0 + 2.
  policy.OnCleanFullRefresh(1, 1 * kWindow + 10);
  EXPECT_EQ(policy.DemotionLevel(1), 1u);
  // Window 2 reaches the threshold: promoted back to the inner policy.
  policy.OnCleanFullRefresh(1, 2 * kWindow + 10);
  EXPECT_EQ(policy.DemotionLevel(1), 0u);
  EXPECT_EQ(policy.stats().promotions, 1u);
  EXPECT_EQ(policy.stats().rows_demoted_now, 0u);
}

TEST(AdaptivePolicy, PromotionStepsDownOneLevelAtATime) {
  AdaptiveParams params;
  params.promote_after_clean_windows = 1;
  auto policy = MakeAdaptive(params);
  policy.OnSensingFailure(1, 10);
  policy.OnSensingFailure(1, 20);  // level 2: mprsf 0, period 1000
  EXPECT_EQ(policy.DemotionLevel(1), 2u);
  policy.OnCleanFullRefresh(1, 1 * kWindow + 10);
  EXPECT_EQ(policy.DemotionLevel(1), 1u);
  EXPECT_EQ(policy.DemotedSetting(1), std::make_pair(std::uint8_t{1},
                                                     Cycles{1000}));
  policy.OnCleanFullRefresh(1, 2 * kWindow + 10);
  EXPECT_EQ(policy.DemotionLevel(1), 0u);
  EXPECT_THROW(policy.DemotedSetting(1), ConfigError);
}

TEST(AdaptivePolicy, CleanRefreshOfHealthyRowIsIgnored) {
  auto policy = MakeAdaptive();
  policy.OnCleanFullRefresh(3, 5 * kWindow);
  EXPECT_EQ(policy.stats().promotions, 0u);
}

TEST(AdaptivePolicy, FallbackEntersAtThresholdAndRefreshesFullRate) {
  AdaptiveParams params;
  params.fallback_enter_failures = 3;
  auto policy = MakeAdaptive(params);
  policy.OnSensingFailure(0, 100);
  policy.OnSensingFailure(1, 110);
  EXPECT_FALSE(policy.InFallback());
  policy.OnSensingFailure(2, 120);  // third failure in window 0
  EXPECT_TRUE(policy.InFallback());
  EXPECT_EQ(policy.stats().fallback_entries, 1u);

  // Row 3 (healthy) is now refreshed at the full JEDEC rate by the wrapper.
  std::size_t row3_fulls = 0;
  for (Cycles now = 121; now < 121 + 2 * kWindow; now += 10) {
    for (const auto& op : GrantAll(policy, now)) {
      if (op.row == 3) {
        EXPECT_TRUE(op.is_full);
        ++row3_fulls;
      }
    }
  }
  EXPECT_GE(row3_fulls, 2u);
}

TEST(AdaptivePolicy, FallbackExitsAfterCleanWindowsWithHysteresis) {
  AdaptiveParams params;
  params.fallback_enter_failures = 2;
  params.fallback_exit_clean_windows = 2;
  auto policy = MakeAdaptive(params);
  policy.OnSensingFailure(0, 100);
  policy.OnSensingFailure(1, 110);
  EXPECT_TRUE(policy.InFallback());

  // A failure in window 1 resets the clean-window streak.
  policy.OnSensingFailure(2, 1 * kWindow + 50);

  // Windows 2 and 3 are clean; the exit lands when window 4 begins.
  GrantAll(policy, 2 * kWindow + 1);
  EXPECT_TRUE(policy.InFallback());
  GrantAll(policy, 3 * kWindow + 1);
  EXPECT_TRUE(policy.InFallback());  // only one clean window so far
  GrantAll(policy, 4 * kWindow + 1);
  EXPECT_FALSE(policy.InFallback());
  EXPECT_EQ(policy.stats().fallback_exits, 1u);
}

TEST(AdaptivePolicy, FallbackDisabledWhenThresholdZero) {
  AdaptiveParams params;
  params.fallback_enter_failures = 0;
  auto policy = MakeAdaptive(params);
  for (int i = 0; i < 100; ++i) {
    policy.OnSensingFailure(0, 100 + static_cast<Cycles>(i));
  }
  EXPECT_FALSE(policy.InFallback());
}

TEST(AdaptivePolicy, RowAccessResetsDemotedPartialCounter) {
  auto policy = MakeAdaptive();
  policy.OnSensingFailure(1, 10);  // mprsf 1, period 1000
  GrantAll(policy, 11);  // drain the forced full
  // First scheduled op would be a partial (rcount 0 -> 1)...
  std::size_t partials = 0;
  for (Cycles now = 12; now <= 5 * kWindow; now += 100) {
    policy.OnRowAccess(1);  // ...but every access resets the counter,
    for (const auto& op : GrantAll(policy, now)) {
      if (op.row == 1 && !op.is_full) {
        ++partials;
      }
    }
  }
  // so the demoted row's schedule emits partials, never two in a row.
  EXPECT_GT(partials, 0u);
}

// ---------------------------------------------------------------------------
// The always-on lineage ring: a default Recorder (tracing off) still keeps
// the adaptive layer's transitions, with their cause.
// ---------------------------------------------------------------------------

/// Drives an adaptive policy attached to `recorder` through two windows
/// with one sensing failure (row 2 at cycle 500).
void RunAdaptiveWithFailure(telemetry::Recorder& recorder) {
  auto policy = MakeAdaptive();
  policy.set_telemetry(&recorder);
  for (Cycles now = 0; now <= 2 * kWindow; now += 50) {
    if (now == 500) {
      policy.OnSensingFailure(2, now);
    }
    GrantAll(policy, now);
  }
  policy.FlushTelemetry();
}

std::size_t CountKind(const telemetry::Lineage& lineage,
                      telemetry::EventKind kind) {
  const auto records = lineage.Retained();
  return static_cast<std::size_t>(std::count_if(
      records.begin(), records.end(),
      [kind](const auto& record) { return record.kind == kind; }));
}

TEST(AdaptiveLineage, TransitionsAlwaysRecordedPerOpOnlyWithLineageOps) {
  for (const bool lineage_ops : {false, true}) {
    telemetry::RecorderOptions options;  // tracing stays off
    options.lineage_ops = lineage_ops;
    telemetry::Recorder recorder(options);
    RunAdaptiveWithFailure(recorder);
    ASSERT_EQ(recorder.tracer(), nullptr);
    const telemetry::Lineage& lineage = recorder.lineage();
    EXPECT_EQ(CountKind(lineage, telemetry::EventKind::kDemotion), 1u);
    EXPECT_EQ(CountKind(lineage, telemetry::EventKind::kForcedFullRefresh),
              1u);
    for (const auto& record : lineage.Retained()) {
      if (record.kind == telemetry::EventKind::kDemotion ||
          record.kind == telemetry::EventKind::kForcedFullRefresh) {
        EXPECT_EQ(lineage.label(record.cause), "Adaptive(VRL)");
      }
    }
    const std::size_t ops =
        CountKind(lineage, telemetry::EventKind::kFullRefresh) +
        CountKind(lineage, telemetry::EventKind::kPartialRefresh);
    EXPECT_EQ(ops > 0, lineage_ops) << "lineage_ops=" << lineage_ops;
  }
}

TEST(AdaptiveLineage, ShardMergeMatchesSerialCausesAndOrder) {
  // Shard 0 interns a campaign cause before the policy's, shard 1 only the
  // policy's, so the shards' label indices disagree and the merge must
  // relabel to reproduce the serial ring.
  const auto work = [](telemetry::Recorder& recorder, bool campaign) {
    if (campaign) {
      telemetry::Lineage& lineage = recorder.lineage();
      lineage.Add({telemetry::EventKind::kSensingFailure, 1, 7,
                   lineage.Intern("campaign:VRL"), 0, -0.25});
    }
    RunAdaptiveWithFailure(recorder);
  };
  telemetry::Recorder serial;
  work(serial, true);
  work(serial, false);
  telemetry::ShardedRecorder shards(2);
  work(shards.shard(0), true);
  work(shards.shard(1), false);
  telemetry::Recorder merged;
  shards.MergeInto(merged);

  const auto expected = serial.lineage().Retained();
  const auto actual = merged.lineage().Retained();
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_EQ(actual.size(), 5u);  // 1 failure + 2 x (demotion, forced full)
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].kind, expected[i].kind) << i;
    EXPECT_EQ(actual[i].cycle, expected[i].cycle) << i;
    EXPECT_EQ(merged.lineage().label(actual[i].cause),
              serial.lineage().label(expected[i].cause))
        << i;
  }
  std::ostringstream serial_jsonl;
  std::ostringstream merged_jsonl;
  telemetry::WriteLineageJsonl(serial_jsonl, serial.lineage());
  telemetry::WriteLineageJsonl(merged_jsonl, merged.lineage());
  EXPECT_EQ(merged_jsonl.str(), serial_jsonl.str());
}

// ---------------------------------------------------------------------------
// Campaign: acceptance comparison (ISSUE: adaptive survives what plain
// VRL does not, and keeps the refresh-overhead saving)
// ---------------------------------------------------------------------------

TEST(Campaign, SetupValidates) {
  CampaignSetup setup;
  setup.tau_post_full_s = 1e-9;
  setup.tau_post_partial_s = 1e-9;
  EXPECT_NO_THROW(setup.Validate());
  setup.windows = 0;
  EXPECT_THROW(setup.Validate(), ConfigError);
  setup = CampaignSetup{};
  setup.tau_post_full_s = 1e-9;
  setup.tau_post_partial_s = 1e-9;
  setup.t_refi = 0;
  EXPECT_THROW(setup.Validate(), ConfigError);
  EXPECT_THROW(setup.Ticks(), ConfigError);
  // Ticks run from cycle 0 through the horizon inclusive.
  setup.t_refi = 3125;
  setup.windows = 2;
  const TickSequence ticks = setup.Ticks();
  EXPECT_EQ(ticks.count, 2 * setup.base_window / setup.t_refi + 1);
  EXPECT_EQ(ticks.cycle(ticks.count - 1), 2 * setup.base_window);
  EXPECT_EQ(ticks.seconds(1), CyclesToSeconds(3125, setup.clock_period_s));
}

TEST(Campaign, AdaptiveSurvivesVrtWherePlainVrlLosesData) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);

  retention::VrtParams vrt;  // defaults: row_fraction 0.02, low_ratio 0.6
  core::ExperimentOptions options;
  options.windows = 8;
  options.fault_seed = 0xFA11ULL;
  const auto result =
      core::RunResilienceComparison(system, "VRL", vrt, options);

  // The JEDEC baseline never fails (full rate, full latency).
  EXPECT_EQ(result.jedec.detected_failures, 0u);
  EXPECT_FALSE(result.jedec.DataLost());

  // Plain VRL trusts the stale profile: VRT flips silently lose data.
  EXPECT_TRUE(result.plain.DataLost());
  EXPECT_GT(result.plain.unrecovered_failures, 0u);
  EXPECT_EQ(result.plain.corrected_failures, 0u);
  EXPECT_LT(result.plain.min_margin, 0.0);

  // Same fault trace: the adaptive wrapper detects every failure, corrects
  // all of them, and ends with zero unrecovered failures...
  EXPECT_GT(result.adaptive.detected_failures, 0u);
  EXPECT_EQ(result.adaptive.corrected_failures,
            result.adaptive.detected_failures);
  EXPECT_EQ(result.adaptive.unrecovered_failures, 0u);
  EXPECT_FALSE(result.adaptive.DataLost());
  EXPECT_GT(result.adaptive.adaptive.demotions, 0u);

  // ...while retaining a measurable refresh-overhead saving vs JEDEC.
  EXPECT_LT(result.AdaptiveOverheadVsJedec(), 0.8);
  EXPECT_LT(result.adaptive.refresh_busy_cycles,
            result.jedec.refresh_busy_cycles);
}

/// Field-for-field equality of two reports, margins compared bit for bit.
void ExpectSameReport(const CampaignReport& a, const CampaignReport& b) {
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.partial_refreshes, b.partial_refreshes);
  EXPECT_EQ(a.detected_failures, b.detected_failures);
  EXPECT_EQ(a.corrected_failures, b.corrected_failures);
  EXPECT_EQ(a.unrecovered_failures, b.unrecovered_failures);
  EXPECT_EQ(Bits(a.min_margin), Bits(b.min_margin));
  EXPECT_EQ(a.refresh_busy_cycles, b.refresh_busy_cycles);
  EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
  EXPECT_TRUE(a.adaptive == b.adaptive);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const SensingFailureEvent& x = a.events[i];
    const SensingFailureEvent& y = b.events[i];
    EXPECT_EQ(x.row, y.row) << i;
    EXPECT_EQ(x.at_cycle, y.at_cycle) << i;
    EXPECT_EQ(Bits(x.at_s), Bits(y.at_s)) << i;
    EXPECT_EQ(Bits(x.margin), Bits(y.margin)) << i;
    EXPECT_EQ(x.was_full, y.was_full) << i;
    EXPECT_EQ(x.corrected, y.corrected) << i;
  }
}

TEST(Campaign, ThreeLegsShareTheFaultTrace) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  retention::VrtParams vrt;
  core::ExperimentOptions options;
  options.windows = 4;
  options.fault_seed = 77;
  // Each leg recording its own draw is the reference for the comparison's
  // one recorded draw, replayed into every leg.
  const std::vector<core::ResilienceLeg> legs = core::ResilienceLegs("VRL");
  std::vector<CampaignReport> own;
  for (const core::ResilienceLeg& leg : legs) {
    own.push_back(core::RunResilienceLeg(system, leg, vrt, options, nullptr));
  }
  EXPECT_GT(own[1].unrecovered_failures, 0u);
  EXPECT_GT(own[2].corrected_failures, 0u);
  for (const std::size_t threads : {1u, 2u, 3u}) {
    SCOPED_TRACE(threads);
    options.threads = threads;
    const auto result =
        core::RunResilienceComparison(system, "VRL", vrt, options);
    ExpectSameReport(result.jedec, own[0]);
    ExpectSameReport(result.plain, own[1]);
    ExpectSameReport(result.adaptive, own[2]);
  }
}

TEST(Campaign, RecordingSetsTheCampaignLength) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  for (const std::size_t windows : {1u, 3u}) {
    SCOPED_TRACE(windows);
    telemetry::RecorderOptions options;
    options.enable_tracing = true;
    telemetry::Recorder recorder(options);
    const CampaignReport report = system.RunFaultCampaign(
        {"VRL"}, system.RecordFaults(FaultSchedule{}, windows), &recorder);
    EXPECT_EQ(report.simulated_cycles, system.HorizonForWindows(windows));
    const auto metrics = recorder.Snapshot().metrics;
    ASSERT_EQ(metrics.count("campaign.windows"), 1u);
    EXPECT_EQ(metrics.at("campaign.windows").count, windows);
    const telemetry::Tracer& tracer = *recorder.tracer();
    EXPECT_EQ(std::count_if(tracer.spans().begin(), tracer.spans().end(),
                            [&](const telemetry::SpanRecord& span) {
                              return tracer.label(span.name) == "window";
                            }),
              static_cast<std::ptrdiff_t>(windows));
  }
}

TEST(Campaign, IdleTickSkipMatchesAskingEveryTick) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  constexpr std::size_t kWindows = 2;
  const CampaignSetup setup = system.CampaignSetupFor(kWindows);
  retention::VrtParams vrt;
  vrt.row_fraction = 0.05;
  FaultSchedule schedule(5);
  schedule.Add(std::make_unique<VrtFlipInjector>(vrt));
  const FaultRecording recording =
      system.RecordFaults(std::move(schedule), kWindows);
  const auto campaign = [&](dram::RefreshPolicy& policy) {
    return RunCampaign(system.refresh_model(), system.profile(), policy,
                       recording, setup);
  };
  const std::size_t ticks = setup.Ticks().count;

  for (const dram::PolicyInfo& info :
       dram::PolicyRegistry::Global().entries()) {
    SCOPED_TRACE(info.name);
    const dram::PolicyFactory factory = system.MakePolicyFactory(info.name);
    const auto skipping = factory();
    AskEveryTick asking(factory());
    const CampaignReport a = campaign(*skipping);
    const CampaignReport b = campaign(asking);
    EXPECT_GT(a.refreshes, 0u);
    ExpectSameReport(a, b);
    EXPECT_EQ(asking.proposes(), ticks);
  }

  // Adaptive(VRL): RunCampaign must see the adaptive wrapper itself to feed
  // it failures, so the skip is switched off on its inner policy.  The
  // wrapper over plain VRL keeps next_proposal() current and skips.
  const auto adaptive = [&](std::unique_ptr<dram::RefreshPolicy> inner) {
    return AdaptiveVrlPolicy(
        std::move(inner),
        dram::MakeRefreshPlan(system.binning(), config.tech.clock_period_s,
                              system.row_mprsf()),
        system.TauFullCycles(), system.TauPartialCycles(),
        config.timing.t_refw, config.timing.t_refi);
  };
  const dram::PolicyFactory vrl = system.MakePolicyFactory("VRL");
  auto direct = adaptive(vrl());
  auto counted = std::make_unique<AskEveryTick>(vrl());
  const AskEveryTick& inner = *counted;
  auto asking = adaptive(std::move(counted));
  const CampaignReport a = campaign(direct);
  const CampaignReport b = campaign(asking);
  EXPECT_GT(a.detected_failures, 0u);
  ExpectSameReport(a, b);
  EXPECT_EQ(inner.proposes(), ticks);

  // The Propose calls that reach VRL under a skipping wrapper: about one
  // tick in four (4 153 of 16 385 at this seed), and the same campaign.
  auto through = std::make_unique<CountProposes>(vrl());
  const CountProposes& reached = *through;
  auto skipping = adaptive(std::move(through));
  ExpectSameReport(campaign(skipping), b);
  EXPECT_LT(reached.proposes(), ticks / 3);
}

TEST(Campaign, RefusesARecordingOfOtherRows) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  const CampaignSetup setup = system.CampaignSetupFor(1);
  const std::size_t rows = system.profile().rows();
  const auto campaign = [&](std::size_t of_rows) {
    const FaultRecording faults(FaultSchedule{}, setup.Ticks(), of_rows);
    const auto policy = system.MakePolicyFactory("VRL")();
    return RunCampaign(system.refresh_model(), system.profile(), *policy,
                       faults, setup);
  };
  EXPECT_NO_THROW(campaign(rows));
  EXPECT_THROW(campaign(rows + 1), ConfigError);
  EXPECT_THROW(campaign(rows - 1), ConfigError);
}

TEST(Campaign, RejectsJedecAsComparisonPolicy) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  retention::VrtParams vrt;
  core::ExperimentOptions options;
  options.windows = 2;
  options.fault_seed = 1;
  EXPECT_THROW(core::RunResilienceComparison(system, "JEDEC", vrt, options),
               ConfigError);
}

}  // namespace
}  // namespace vrl::fault
