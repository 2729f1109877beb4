// Tests for the scheduler-coupled refresh API (propose/grant), the policy
// registry, and the DARP/SARP/VRL-Skip deferral machinery.
//
// The parallel experiment drivers stay bit-identical at every thread count
// (the tests/golden fixtures pin the end-to-end bench output and every
// policy's granted op stream; these tests pin the mechanism).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
#include "dram/bank.hpp"
#include "dram/policy_registry.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/scheduler.hpp"
#include "dram/timing_table.hpp"
#include "dram/topology.hpp"
#include "retention/vrt.hpp"
#include "runtime/resilient.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/trace_export.hpp"

#include "grant_all.hpp"

namespace {

using namespace vrl;

core::VrlConfig SmallConfig() {
  core::VrlConfig config;
  config.tech.rows = 512;
  return config;
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(RefreshApiShim, SuiteTelemetryAndLineageIdenticalAcrossThreadCounts) {
  const core::VrlSystem system(SmallConfig());

  std::vector<core::WorkloadResult> base_results;
  telemetry::MetricsSnapshot base_snapshot;
  std::string base_lineage;
  bool have_base = false;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ScopedThreadCount scoped(threads);
    telemetry::RecorderOptions options;
    options.enable_tracing = true;
    options.lineage_ops = true;
    telemetry::Recorder recorder(options);

    core::ExperimentOptions experiment;
    experiment.windows = 1;
    experiment.telemetry = &recorder;
    const auto results = core::RunEvaluationSuite(system, experiment);

    const auto snapshot = recorder.Snapshot();
    std::ostringstream lineage;
    telemetry::WriteLineageJsonl(lineage, recorder.lineage());

    if (!have_base) {
      base_results = results;
      base_snapshot = snapshot;
      base_lineage = lineage.str();
      have_base = true;
      EXPECT_FALSE(base_snapshot.metrics.empty());
      continue;
    }
    EXPECT_EQ(base_results, results) << "threads=" << threads;
    EXPECT_EQ(base_snapshot, snapshot) << "threads=" << threads;
    EXPECT_EQ(base_lineage, lineage.str()) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Deferral-window edge cases
// ---------------------------------------------------------------------------

TEST(RefreshDeferral, DemandBurstDefersUntilDeadlineForcesTheGrant) {
  const dram::TimingParams timing;
  dram::Bank bank(1, timing);
  dram::DarpPolicy policy(1, 1000, 50, 300);  // row 0 due at cycle 0

  const auto grant_at = [&](Cycles now, Cycles next_arrival,
                            dram::RefreshGrantStats& stats) {
    dram::RefreshGrantContext ctx;
    ctx.now = now;
    ctx.demand.now = now;
    ctx.demand.has_next = true;
    ctx.demand.next_arrival = next_arrival;
    ctx.demand.next_row = 0;
    ctx.bank = &bank;
    return dram::GrantRefreshes(policy, ctx, &stats);
  };

  // Non-urgent proposal vs. imminent demand: deferred, stays outstanding.
  dram::RefreshGrantStats stats;
  EXPECT_TRUE(grant_at(0, 10, stats).empty());
  EXPECT_EQ(stats.deferred, 1u);
  EXPECT_EQ(policy.outstanding(), 1u);

  // Still inside the window, demand still imminent: still deferred.
  EXPECT_TRUE(grant_at(100, 110, stats).empty());
  EXPECT_EQ(stats.deferred, 2u);

  // Deadline (due 0 + window 300) reached: granted despite the burst.
  const auto forced = grant_at(300, 310, stats);
  ASSERT_EQ(forced.size(), 1u);
  EXPECT_EQ(forced[0].row, 0u);
  EXPECT_EQ(forced[0].granularity, dram::RefreshGranularity::kPerBank);
  EXPECT_EQ(stats.urgent_grants, 1u);
  EXPECT_EQ(policy.outstanding(), 0u);

  // Re-arm anchors at the *due* cycle (0 + period 1000), not the grant
  // cycle: deferral must never stretch the retention schedule.
  dram::RefreshGrantStats quiet;
  EXPECT_TRUE(GrantAll(policy, 999).empty());
  const auto rearmed = grant_at(1000, dram::DemandView::kNever, quiet);
  ASSERT_EQ(rearmed.size(), 1u);
  EXPECT_EQ(quiet.urgent_grants, 0u);  // granted on time, not forced
}

TEST(RefreshDeferral, ActivationWindowPressureDefersRefpb) {
  const dram::TimingTable table =
      dram::MakeTimingTable(dram::TimingPreset::kDdr4_2400);
  ASSERT_NE(table.t_faw, 0u);
  dram::ConstraintEngine engine(table);
  const dram::BankAddress addr = dram::DecomposeBank(table.topology, 0);
  dram::Bank bank(1, table.core);
  bank.SetConstraintEngine(&engine, addr);

  // Four demand ACTs saturate the rank's tFAW window.
  for (int i = 0; i < 4; ++i) {
    const Cycles at = 100 + static_cast<Cycles>(i) * table.t_rrd_l;
    engine.RecordActivate(addr, engine.EarliestActivate(addr, at));
  }
  const Cycles pressured = 100 + 3 * table.t_rrd_l + 1;
  ASSERT_GT(engine.PeekActivate(addr, pressured), pressured);

  dram::DarpPolicy policy(1, 100'000, 50, 50'000);  // row 0 due at cycle 0
  dram::RefreshGrantContext ctx;
  ctx.now = pressured;
  ctx.demand.now = pressured;
  ctx.bank = &bank;
  ctx.engine = &engine;
  ctx.addr = addr;

  // No demand queued, but the REFpb cannot issue inside the closed
  // activation window: deferred.
  dram::RefreshGrantStats stats;
  EXPECT_TRUE(dram::GrantRefreshes(policy, ctx, &stats).empty());
  EXPECT_EQ(stats.deferred, 1u);

  // Once the window reopens the proposal is granted.
  Cycles open = pressured;
  while (engine.PeekActivate(addr, open) > open) {
    open = engine.PeekActivate(addr, open);
  }
  ctx.now = open;
  ctx.demand.now = open;
  const auto ops = dram::GrantRefreshes(policy, ctx, &stats);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].granularity, dram::RefreshGranularity::kPerBank);
}

TEST(RefreshDeferral, SarpOverlapsDemandToOtherSubarrays) {
  const dram::TimingParams timing;
  dram::Bank bank(8, timing, dram::RowBufferPolicy::kOpenPage, 2);
  ASSERT_EQ(bank.SubarrayOf(2), 0u);
  ASSERT_EQ(bank.SubarrayOf(5), 1u);

  const auto grant_with_demand = [&](dram::SarpPolicy& policy,
                                     std::size_t demand_row) {
    dram::RefreshGrantContext ctx;
    ctx.now = 0;
    ctx.demand.now = 0;
    ctx.demand.has_next = true;
    ctx.demand.next_arrival = 10;
    ctx.demand.next_row = demand_row;
    ctx.bank = &bank;
    return dram::GrantRefreshes(policy, ctx);
  };

  // Row 0 (subarray 0) comes due at cycle 0.  Demand to subarray 1 does
  // not collide: the refresh is granted and runs in parallel.
  dram::SarpPolicy parallel(8, 1000, 50, 300);
  const auto ops = grant_with_demand(parallel, 5);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].granularity, dram::RefreshGranularity::kSubarray);

  // Same-subarray demand collides: deferred.
  dram::SarpPolicy colliding(8, 1000, 50, 300);
  EXPECT_TRUE(grant_with_demand(colliding, 2).empty());
  EXPECT_EQ(colliding.outstanding(), 1u);
}

TEST(RefreshDeferral, VrlSkipSkipsRecentlyRestoredRows) {
  dram::RowRefreshPlan plan;
  plan.period_cycles = {1000, 1000};
  plan.mprsf = {1, 1};
  dram::VrlSkipPolicy policy(plan, 50, 20, 300);

  // Row 0 comes due at 0 and is granted; row 1 is due at 500.
  auto ops = GrantAll(policy, 0);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].row, 0u);

  // An access fully restores row 1 at tick 0: its scheduled refresh at 500
  // is stale and gets skipped, rescheduled one period after the restore.
  policy.OnRowAccess(1);
  EXPECT_TRUE(GrantAll(policy, 500).empty());
  EXPECT_EQ(policy.skipped(), 1u);

  // At the rescheduled point (restore 0 + period 1000) it refreshes, and
  // the access reset its MPRSF counter so the op is a partial.
  ops = GrantAll(policy, 1000);
  ASSERT_EQ(ops.size(), 2u);  // row 0's re-arm lands at 1000 too
  for (const auto& op : ops) {
    if (op.row == 1) {
      EXPECT_FALSE(op.is_full);
    }
  }
}

// ---------------------------------------------------------------------------
// REFpb execution and timing-table plumbing
// ---------------------------------------------------------------------------

TEST(RefreshGranularity, BankLevelRefreshBlocksEverySubarray) {
  const dram::TimingParams timing;
  dram::Bank bank(8, timing, dram::RowBufferPolicy::kOpenPage, 2);

  dram::RefreshOp sub;
  sub.row = 0;
  sub.trfc = 50;
  const Cycles sub_done = bank.ExecuteRefresh(sub, 0);
  EXPECT_EQ(bank.SubarrayBusyUntil(0), sub_done);
  EXPECT_EQ(bank.SubarrayBusyUntil(1), 0u);  // SALP: other subarray free

  dram::RefreshOp refpb;
  refpb.row = 0;
  refpb.trfc = 50;
  refpb.granularity = dram::RefreshGranularity::kPerBank;
  const Cycles pb_done = bank.ExecuteRefresh(refpb, sub_done);
  EXPECT_EQ(bank.SubarrayBusyUntil(0), pb_done);
  EXPECT_EQ(bank.SubarrayBusyUntil(1), pb_done);
}

TEST(RefreshGranularity, TimingTableCarriesAndValidatesTrfcPb) {
  const dram::TimingTable lpddr4 =
      dram::MakeTimingTable(dram::TimingPreset::kLpddr4_3200);
  EXPECT_NE(lpddr4.t_rfc_pb, 0u);
  EXPECT_LE(lpddr4.t_rfc_pb, lpddr4.t_rfc);

  dram::TimingTable bad = lpddr4;
  bad.t_rfc_pb = bad.t_rfc + 1;
  EXPECT_THROW(bad.Validate(), ConfigError);
}

// ---------------------------------------------------------------------------
// Policy registry
// ---------------------------------------------------------------------------

// A registry name is the only policy identifier, so every alias must reach
// the canonical name, and through it the same bytes wherever a name is
// written out (report meta, journal digests).
TEST(PolicyRegistry, CanonicalizesSpellings) {
  const auto& registry = dram::PolicyRegistry::Global();
  for (const dram::PolicyInfo& info : registry.entries()) {
    EXPECT_EQ(&registry.Get(info.name), &info) << info.name;
  }
  const std::pair<const char*, const char*> aliases[] = {
      {"vrl_access", "VRL-Access"}, {"VRLACCESS", "VRL-Access"},
      {"VrlAccess", "VRL-Access"},  {"jedec", "JEDEC"},
      {"vrl_skip", "VRL-Skip"},     {"darp", "DARP"},
  };
  for (const auto& [alias, name] : aliases) {
    EXPECT_EQ(registry.Get(alias).name, name) << alias;
  }
  // "--__" canonicalizes to empty, not to a policy.
  for (const char* bad : {"ddr5", "nope", "", "--__"}) {
    EXPECT_EQ(registry.Find(bad), nullptr) << bad;
    EXPECT_THROW(registry.Get(bad), ConfigError) << bad;
  }

  const core::VrlSystem system(SmallConfig());
  const retention::VrtParams vrt;
  const core::ExperimentOptions options;
  const auto digest = [&](const char* policy) {
    return runtime::ResilienceConfigDigest(system, policy, vrt, options);
  };
  EXPECT_EQ(digest("vrl_access"), digest("VRL-Access"));
  EXPECT_NE(digest("vrl_access"), digest("VRL"));
}

// PolicyInfo::plan is the only per-policy knowledge VrlSystem has: a
// context carrying just the declared plan must build, and a plan-consuming
// entry given only the other plan must throw.
TEST(PolicyRegistry, PlanFieldMatchesEachBuildersRequirements) {
  dram::PolicyBuildContext base;
  base.rows = 4;
  base.base_window = 1000;
  base.t_refi = 125;
  base.trfc_full = 50;
  base.trfc_partial = 20;
  dram::RowRefreshPlan binned;
  binned.period_cycles = {1000, 2000, 1000, 2000};
  dram::RowRefreshPlan with_mprsf = binned;
  with_mprsf.mprsf = {1, 2, 1, 2};

  for (const dram::PolicyInfo& info :
       dram::PolicyRegistry::Global().entries()) {
    EXPECT_FALSE(info.description.empty()) << info.name;
    dram::PolicyBuildContext declared = base;
    dram::PolicyBuildContext other = base;
    switch (info.plan) {
      case dram::RowPlanKind::kNone:
        break;
      case dram::RowPlanKind::kBinned:
        declared.binned_plan = binned;
        other.vrl_plan = with_mprsf;
        break;
      case dram::RowPlanKind::kMprsf:
        declared.vrl_plan = with_mprsf;
        other.binned_plan = binned;
        break;
    }
    EXPECT_NO_THROW(info.make(declared)) << info.name;
    if (info.plan != dram::RowPlanKind::kNone) {
      EXPECT_THROW(info.make(other), ConfigError) << info.name;
    }
  }
}

TEST(PolicyRegistry, UnknownNameListsEveryValidName) {
  try {
    dram::PolicyRegistry::Global().Get("bogus");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    for (const char* name :
         {"JEDEC", "RAIDR", "VRL", "VRL-Access", "VRL-Skip", "DARP",
          "SARP"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TEST(PolicyRegistry, BuildsEveryEntryAndValidatesMissingInputs) {
  dram::PolicyBuildContext ctx;
  ctx.rows = 4;
  ctx.base_window = 1000;
  ctx.t_refi = 125;
  ctx.trfc_full = 50;
  ctx.trfc_partial = 20;
  ctx.binned_plan.period_cycles = {1000, 2000, 1000, 2000};
  ctx.vrl_plan.period_cycles = {1000, 2000, 1000, 2000};
  ctx.vrl_plan.mprsf = {1, 2, 1, 2};

  const auto& registry = dram::PolicyRegistry::Global();
  for (const dram::PolicyInfo& info : registry.entries()) {
    const auto policy = registry.Build(info.name, ctx);
    ASSERT_NE(policy, nullptr) << info.name;
    EXPECT_EQ(policy->Name(), info.name);
    EXPECT_EQ(policy->rows(), 4u) << info.name;
  }

  dram::PolicyBuildContext empty;
  EXPECT_THROW(registry.Build("JEDEC", empty), ConfigError);
  EXPECT_THROW(registry.Build("VRL", empty), ConfigError);
  EXPECT_THROW(registry.Build("DARP", empty), ConfigError);
}

TEST(PolicyRegistry, SchedulerEntriesRoundTrip) {
  for (const dram::SchedulerInfo& info : dram::SchedulerEntries()) {
    EXPECT_EQ(dram::SchedulerName(info.kind), info.name);
    EXPECT_EQ(dram::SchedulerFromName(info.name), info.kind);
  }
  EXPECT_EQ(dram::SchedulerFromName("fr_fcfs"), dram::SchedulerKind::kFrFcfs);
  try {
    dram::SchedulerFromName("rr");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("FR-FCFS"), std::string::npos);
  }
}

}  // namespace
