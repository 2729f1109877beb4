#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
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
  state.vrt_scale()[2] = 0.6;
  state.corruption_scale()[2] = 0.8;
  state.set_temperature_scale(0.5);
  state.set_drift_scale(0.9);
  EXPECT_DOUBLE_EQ(state.RowScale(2), 0.6 * 0.8 * 0.5 * 0.9);
  EXPECT_DOUBLE_EQ(state.RowScale(0), 0.5 * 0.9);
}

TEST(VrtFlipInjectorTest, SameSeedSameTrace) {
  retention::VrtParams params;
  params.row_fraction = 0.1;
  const auto run = [&](std::uint64_t seed) {
    FaultSchedule schedule(seed);
    schedule.Add(std::make_unique<VrtFlipInjector>(params));
    std::vector<double> trace;
    for (int tick = 0; tick < 50; ++tick) {
      schedule.Advance(0.01 * tick, 512);
      for (std::size_t row = 0; row < 512; ++row) {
        trace.push_back(schedule.RowScale(row));
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
  FaultSchedule schedule(3);
  auto injector = std::make_unique<VrtFlipInjector>(params);
  const auto* raw = injector.get();
  schedule.Add(std::move(injector));

  std::size_t low_seen = 0;
  for (int tick = 0; tick < 200; ++tick) {
    schedule.Advance(0.01 * tick, 256);
    for (std::size_t row = 0; row < 256; ++row) {
      const double scale = schedule.RowScale(row);
      if (scale != 1.0) {
        EXPECT_DOUBLE_EQ(scale, params.low_ratio);
        EXPECT_TRUE(raw->vrt_rows()[row]);
        ++low_seen;
      }
    }
  }
  EXPECT_GT(low_seen, 0u);
}

TEST(TemperatureExcursionInjectorTest, ScalesOnlyInsideWindow) {
  const retention::TemperatureModel model;
  FaultSchedule schedule(1);
  schedule.Add(std::make_unique<TemperatureExcursionInjector>(
      model, /*start_s=*/1.0, /*duration_s=*/0.5, /*peak_celsius=*/85.0));
  schedule.Advance(0.5, 8);
  EXPECT_DOUBLE_EQ(schedule.RowScale(0), 1.0);
  schedule.Advance(1.2, 8);
  const double hot = schedule.RowScale(0);
  EXPECT_LT(hot, 1.0);  // hotter = leakier
  schedule.Advance(2.0, 8);
  EXPECT_DOUBLE_EQ(schedule.RowScale(0), 1.0);
}

TEST(RetentionDriftInjectorTest, DeclinesLinearlyToFloor) {
  FaultSchedule schedule(1);
  schedule.Add(std::make_unique<RetentionDriftInjector>(/*rate_per_s=*/0.1,
                                                        /*floor_scale=*/0.7));
  schedule.Advance(1.0, 4);
  EXPECT_NEAR(schedule.RowScale(0), 0.9, 1e-12);
  schedule.Advance(10.0, 4);
  EXPECT_NEAR(schedule.RowScale(0), 0.7, 1e-12);  // floored
}

TEST(ProfileCorruptionInjectorTest, FiresOnceAndSticks) {
  FaultSchedule schedule(5);
  schedule.Add(std::make_unique<ProfileCorruptionInjector>(
      /*row_fraction=*/0.5, /*true_ratio=*/0.8, /*at_s=*/1.0));
  schedule.Advance(0.5, 512);
  for (std::size_t row = 0; row < 512; ++row) {
    EXPECT_DOUBLE_EQ(schedule.RowScale(row), 1.0);
  }
  schedule.Advance(1.5, 512);
  std::size_t corrupted = 0;
  for (std::size_t row = 0; row < 512; ++row) {
    if (schedule.RowScale(row) != 1.0) {
      EXPECT_DOUBLE_EQ(schedule.RowScale(row), 0.8);
      ++corrupted;
    }
  }
  EXPECT_GT(corrupted, 150u);
  EXPECT_LT(corrupted, 350u);
  // Sticky: the same rows stay corrupted forever after.
  schedule.Advance(100.0, 512);
  std::size_t still = 0;
  for (std::size_t row = 0; row < 512; ++row) {
    if (schedule.RowScale(row) != 1.0) {
      ++still;
    }
  }
  EXPECT_EQ(still, corrupted);
}

TEST(FaultScheduleTest, EnforcesContract) {
  FaultSchedule schedule(1);
  schedule.Add(std::make_unique<RetentionDriftInjector>(0.01, 0.5));
  EXPECT_THROW(schedule.state(), ConfigError);  // before first Advance
  EXPECT_DOUBLE_EQ(schedule.RowScale(3), 1.0);  // but scales default to 1
  schedule.Advance(1.0, 8);
  EXPECT_THROW(schedule.Advance(0.5, 8), ConfigError);   // time backward
  EXPECT_THROW(schedule.Advance(2.0, 16), ConfigError);  // rows changed
  EXPECT_NO_THROW(schedule.Advance(1.0, 8));             // equal time is fine
  EXPECT_EQ(schedule.Describe(), "retention-drift");
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

TEST(Campaign, ThreeLegsShareTheFaultTrace) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  retention::VrtParams vrt;
  core::ExperimentOptions options;
  options.windows = 4;
  options.fault_seed = 77;
  const auto a = core::RunResilienceComparison(system, "VRL", vrt, options);
  const auto b = core::RunResilienceComparison(system, "VRL", vrt, options);
  // Deterministic end to end.
  EXPECT_EQ(a.plain.detected_failures, b.plain.detected_failures);
  EXPECT_EQ(a.adaptive.detected_failures, b.adaptive.detected_failures);
  EXPECT_EQ(a.adaptive.refresh_busy_cycles, b.adaptive.refresh_busy_cycles);
  EXPECT_DOUBLE_EQ(a.plain.min_margin, b.plain.min_margin);
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
