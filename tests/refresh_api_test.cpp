// Tests for the scheduler-coupled refresh API (propose/grant), the policy
// registry, and the DARP/SARP/VRL-Skip deferral machinery.
//
// The parallel experiment drivers stay bit-identical at every thread count
// (the tests/golden fixtures pin the end-to-end bench output and every
// policy's granted op stream; these tests pin the mechanism).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <queue>
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
#include "fault/adaptive_policy.hpp"
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
  auto policy = Darp(1, 1000, 50, 300);  // row 0 due at cycle 0

  const auto grant_at = [&](Cycles now, Cycles next_arrival,
                            dram::RefreshGrantStats& stats) {
    dram::RefreshGrantContext ctx;
    ctx.now = now;
    ctx.demand.now = now;
    ctx.demand.has_next = true;
    ctx.demand.next_arrival = next_arrival;
    ctx.demand.next_row = 0;
    ctx.bank = &bank;
    return Grant(policy, ctx, &stats);
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

  auto policy = Darp(1, 100'000, 50, 50'000);  // row 0 due at cycle 0
  dram::RefreshGrantContext ctx;
  ctx.now = pressured;
  ctx.demand.now = pressured;
  ctx.bank = &bank;
  ctx.engine = &engine;
  ctx.addr = addr;

  // No demand queued, but the REFpb cannot issue inside the closed
  // activation window: deferred.
  dram::RefreshGrantStats stats;
  EXPECT_TRUE(Grant(policy, ctx, &stats).empty());
  EXPECT_EQ(stats.deferred, 1u);

  // Once the window reopens the proposal is granted.
  Cycles open = pressured;
  while (engine.PeekActivate(addr, open) > open) {
    open = engine.PeekActivate(addr, open);
  }
  ctx.now = open;
  ctx.demand.now = open;
  const auto ops = Grant(policy, ctx, &stats);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].granularity, dram::RefreshGranularity::kPerBank);
}

/// Offers the same proposals on every tick and records each decision as
/// (row, granted).
class ScriptedPolicy : public dram::RefreshPolicy {
 public:
  explicit ScriptedPolicy(std::vector<dram::RefreshProposal> script)
      : script_(std::move(script)) {}

  void Propose(Cycles now, const dram::DemandView& demand,
               std::vector<dram::RefreshProposal>& out) override {
    (void)demand;
    RequireMonotonicNow(now);
    out = script_;
  }
  void OnGrant(const dram::RefreshProposal& proposal, Cycles at) override {
    (void)at;
    decisions.emplace_back(proposal.op.row, true);
  }
  void OnDefer(const dram::RefreshProposal& proposal) override {
    decisions.emplace_back(proposal.op.row, false);
  }
  std::string Name() const override { return "scripted"; }
  std::size_t rows() const override { return 64; }

  std::vector<std::pair<std::size_t, bool>> decisions;

 private:
  std::vector<dram::RefreshProposal> script_;
};

/// The grant rule evaluated for one proposal on its own, probing the bank
/// and the engine afresh every time: the per-proposal form the once-per-call
/// probes must reproduce.
bool ReferenceGrants(const dram::RefreshProposal& proposal,
                     const dram::RefreshGrantContext& ctx) {
  if (ctx.now >= proposal.deadline || ctx.bank == nullptr) {
    return true;
  }
  const dram::RefreshOp& op = proposal.op;
  if (ctx.demand.has_next) {
    bool collides = false;
    if (op.granularity == dram::RefreshGranularity::kSubarray) {
      const std::size_t sub = ctx.bank->SubarrayOf(op.row);
      collides = ctx.bank->SubarrayOf(ctx.demand.next_row) == sub &&
                 ctx.demand.next_arrival <
                     std::max(ctx.now, ctx.bank->SubarrayBusyUntil(sub)) +
                         op.trfc;
    } else {
      Cycles start = ctx.now;
      for (std::size_t s = 0; s < ctx.bank->subarray_count(); ++s) {
        start = std::max(start, ctx.bank->SubarrayBusyUntil(s));
      }
      collides = ctx.demand.next_arrival < start + op.trfc;
    }
    if (collides) {
      return false;
    }
  }
  return !(op.granularity == dram::RefreshGranularity::kPerBank &&
           ctx.engine != nullptr &&
           ctx.engine->PeekActivate(ctx.addr, ctx.now) > ctx.now);
}

TEST(RefreshDeferral, OneTickOfMixedProposalsMatchesPerProposalProbes) {
  const dram::TimingTable table =
      dram::MakeTimingTable(dram::TimingPreset::kDdr4_2400);
  dram::ConstraintEngine engine(table);
  const dram::BankAddress addr = dram::DecomposeBank(table.topology, 0);
  for (int i = 0; i < 4; ++i) {
    const Cycles at = 100 + static_cast<Cycles>(i) * table.t_rrd_l;
    engine.RecordActivate(addr, engine.EarliestActivate(addr, at));
  }
  const Cycles blocked = 100 + 3 * table.t_rrd_l + 1;
  ASSERT_GT(engine.PeekActivate(addr, blocked), blocked);
  Cycles open = blocked;
  while (engine.PeekActivate(addr, open) > open) {
    open = engine.PeekActivate(addr, open);
  }

  // 64 rows in 4 subarrays of 16.  Non-urgent REFpb, all-bank and
  // subarray proposals of short and long tRFC, plus one urgent REFpb.
  const auto proposal = [](std::size_t row, Cycles trfc,
                           dram::RefreshGranularity granularity,
                           Cycles deadline) {
    dram::RefreshProposal p;
    p.op = {row, trfc, true, granularity};
    p.due = 0;
    p.deadline = deadline;
    return p;
  };
  constexpr auto kPb = dram::RefreshGranularity::kPerBank;
  constexpr auto kSa = dram::RefreshGranularity::kSubarray;
  constexpr auto kAll = dram::RefreshGranularity::kAllBank;
  const Cycles later = 1'000'000;
  const std::vector<dram::RefreshProposal> script = {
      proposal(0, 30, kPb, later),   proposal(20, 30, kSa, later),
      proposal(40, 30, kSa, later),  proposal(5, 400, kPb, later),
      proposal(50, 30, kAll, later), proposal(60, 30, kPb, 1),
      proposal(3, 100, kSa, later),  proposal(33, 30, kPb, later),
      proposal(21, 500, kSa, later), proposal(9, 30, kAll, later)};

  // Decisions per (now, demand case).
  std::map<std::pair<Cycles, std::size_t>,
           std::vector<std::pair<std::size_t, bool>>>
      outcomes;
  for (const Cycles now : {blocked, open}) {
    // Subarray 1 is busy for 200 cycles past `now`; the others are free.
    dram::Bank bank(64, table.core, dram::RowBufferPolicy::kOpenPage, 4);
    bank.SetConstraintEngine(&engine, addr);
    bank.ExecuteRefresh({16, 200, true, kSa}, now);
    ASSERT_EQ(bank.SubarrayBusyUntil(1), now + 200);

    dram::DemandView none;
    none.now = now;
    std::vector<dram::DemandView> demands = {none};
    for (const auto& [after, row] :
         std::vector<std::pair<Cycles, std::size_t>>{
             {100, 20}, {250, 3}, {250, 40}, {10'000, 20}}) {
      dram::DemandView demand = none;
      demand.has_next = true;
      demand.next_arrival = now + after;
      demand.next_row = row;
      demands.push_back(demand);
    }
    for (std::size_t d = 0; d < demands.size(); ++d) {
      const dram::DemandView& demand = demands[d];
      SCOPED_TRACE("now " + std::to_string(now) + " arrival " +
                   std::to_string(demand.next_arrival));
      dram::RefreshGrantContext ctx;
      ctx.now = now;
      ctx.demand = demand;
      ctx.bank = &bank;
      ctx.engine = &engine;
      ctx.addr = addr;

      std::vector<std::pair<std::size_t, bool>> want;
      std::vector<dram::RefreshOp> want_ops;
      for (const dram::RefreshProposal& p : script) {
        want.emplace_back(p.op.row, ReferenceGrants(p, ctx));
        if (want.back().second) {
          want_ops.push_back(p.op);
        }
      }
      ScriptedPolicy policy(script);
      dram::RefreshGrantStats stats;
      const auto ops = Grant(policy, ctx, &stats);
      EXPECT_EQ(policy.decisions, want);
      ASSERT_EQ(ops.size(), want_ops.size());
      for (std::size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(ops[i].row, want_ops[i].row);
      }
      EXPECT_EQ(stats.granted + stats.deferred, script.size());
      outcomes[{now, d}] = want;
    }
  }
  // With no demand the closed window alone defers the non-urgent REFpbs
  // (rows 0, 5, 33) and the open one grants everything; demand to a free
  // subarray defers the long bank-level ops and grants the short ones.
  const auto granted = [&](Cycles now, std::size_t demand,
                           std::size_t row) {
    for (const auto& [r, grant] : outcomes.at({now, demand})) {
      if (r == row) {
        return grant;
      }
    }
    ADD_FAILURE() << "row " << row << " has no decision";
    return false;
  };
  for (const std::size_t row : {0u, 5u, 33u}) {
    EXPECT_FALSE(granted(blocked, 0, row)) << row;
    EXPECT_TRUE(granted(open, 0, row)) << row;
  }
  EXPECT_TRUE(granted(open, 0, 9));  // all-bank REF ignores the window
  EXPECT_TRUE(granted(blocked, 0, 9));
  // Demand at +250 to subarray 0: a REFpb waits for subarray 1 (+200).
  EXPECT_TRUE(granted(open, 2, 0));   // +230 ends before the demand
  EXPECT_FALSE(granted(open, 2, 5));  // +600 does not
  EXPECT_TRUE(granted(open, 2, 3));   // subarray 0 op ends at +100
  EXPECT_TRUE(granted(open, 1, 60));  // urgent: granted under any demand
}

TEST(RefreshDeferral, SarpOverlapsDemandToOtherSubarrays) {
  const dram::TimingParams timing;
  dram::Bank bank(8, timing, dram::RowBufferPolicy::kOpenPage, 2);
  ASSERT_EQ(bank.SubarrayOf(2), 0u);
  ASSERT_EQ(bank.SubarrayOf(5), 1u);

  const auto grant_with_demand = [&](dram::FullLatencyPolicy& policy,
                                     std::size_t demand_row) {
    dram::RefreshGrantContext ctx;
    ctx.now = 0;
    ctx.demand.now = 0;
    ctx.demand.has_next = true;
    ctx.demand.next_arrival = 10;
    ctx.demand.next_row = demand_row;
    ctx.bank = &bank;
    return Grant(policy, ctx);
  };

  // Row 0 (subarray 0) comes due at cycle 0.  Demand to subarray 1 does
  // not collide: the refresh is granted and runs in parallel.
  auto parallel = Sarp(8, 1000, 50, 300);
  const auto ops = grant_with_demand(parallel, 5);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].granularity, dram::RefreshGranularity::kSubarray);

  // Same-subarray demand collides: deferred.
  auto colliding = Sarp(8, 1000, 50, 300);
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
// Next-proposal contract: skipping the ticks a policy reports idle
// ---------------------------------------------------------------------------

/// A 16-row bank whose RAIDR/VRL periods span 1x, 2x and 4x a 64-tick base
/// window: a row comes due at most once per four ticks (every row each
/// window under JEDEC/DARP/SARP), so most ticks are idle.  MPRSF 0..3
/// mixes full and partial refreshes.
dram::PolicyBuildContext IdleTickContext() {
  dram::PolicyBuildContext ctx;
  ctx.rows = 16;
  ctx.t_refi = 100;
  ctx.base_window = 64 * ctx.t_refi;
  ctx.trfc_full = 35;
  ctx.trfc_partial = 20;
  ctx.defer_window = 3 * ctx.t_refi;
  for (std::size_t r = 0; r < ctx.rows; ++r) {
    const Cycles period = ctx.base_window << (r % 3);
    ctx.binned_plan.period_cycles.push_back(period);
    ctx.vrl_plan.period_cycles.push_back(period);
    ctx.vrl_plan.mprsf.push_back(static_cast<std::uint8_t>(r % 4));
  }
  return ctx;
}

/// Every registry policy by name, plus "Adaptive(VRL)", which keeps its
/// next-proposal cycle from its inner policy's, its demoted rows' and the
/// next base-window boundary.
std::vector<std::string> PolicyNamesWithAdaptive() {
  std::vector<std::string> names;
  for (const dram::PolicyInfo& info :
       dram::PolicyRegistry::Global().entries()) {
    names.push_back(info.name);
  }
  names.emplace_back("Adaptive(VRL)");
  return names;
}

std::unique_ptr<dram::RefreshPolicy> BuildNamed(
    const std::string& name, const dram::PolicyBuildContext& ctx) {
  const auto& registry = dram::PolicyRegistry::Global();
  if (name != "Adaptive(VRL)") {
    return registry.Build(name, ctx);
  }
  return std::make_unique<fault::AdaptiveVrlPolicy>(
      registry.Build("VRL", ctx), ctx.vrl_plan, ctx.trfc_full,
      ctx.trfc_partial, ctx.base_window, ctx.t_refi);
}

std::string FormatOps(const std::vector<dram::RefreshOp>& ops) {
  std::string out;
  for (const dram::RefreshOp& op : ops) {
    out += std::to_string(op.row) + (op.is_full ? "F" : "P") +
           std::to_string(op.trfc) + "/" +
           dram::RefreshGranularityName(op.granularity) + " ";
  }
  return out;
}

TEST(NextProposal, SkippingIdleTicksGrantsTheEveryTickOpStream) {
  const dram::PolicyBuildContext ctx = IdleTickContext();
  const dram::TimingParams timing;
  constexpr std::size_t kTicks = 1500;  // > two periods of the slowest rows
  for (const std::string& name : PolicyNamesWithAdaptive()) {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{1}}) {
      SCOPED_TRACE(name + " cap " + std::to_string(cap));
      // `every` goes through GrantRefreshes on every tick; `skipping`
      // skips the ticks before its next_proposal(), as the controller does.
      const auto every = BuildNamed(name, ctx);
      const auto skipping = BuildNamed(name, ctx);
      every->set_max_ops_per_tick(cap);
      skipping->set_max_ops_per_tick(cap);
      // No refresh executes on the bank: it only answers the collision
      // probes, so demand right behind a tick defers non-urgent proposals.
      const dram::Bank bank(ctx.rows, timing, dram::RowBufferPolicy::kOpenPage,
                            4);
      dram::RefreshGrantStats every_stats;
      dram::RefreshGrantStats skipping_stats;
      std::vector<dram::RefreshProposal> every_proposals;
      std::vector<dram::RefreshProposal> skipping_proposals;
      std::vector<dram::RefreshOp> every_ops;
      std::vector<dram::RefreshOp> skipping_ops;
      // ProposingPolicy keeps the cycle current: with nothing outstanding
      // it is the next due cycle (past tick 0, never the "ask every tick"
      // 0), so a cancelled last proposal re-enables the skip.
      const auto* proposing =
          dynamic_cast<const dram::ProposingPolicy*>(skipping.get());
      const auto tight = [&] {
        return proposing == nullptr || proposing->outstanding() != 0 ||
               skipping->next_proposal() != 0;
      };
      std::size_t idle = 0;
      for (std::size_t tick = 0; tick < kTicks; ++tick) {
        const Cycles now = static_cast<Cycles>(tick) * ctx.t_refi;
        dram::RefreshGrantContext grant;
        grant.now = now;
        grant.demand.now = now;
        grant.bank = &bank;
        if (tick % 3 != 0) {
          grant.demand.has_next = true;
          grant.demand.next_arrival = now + 1;
          grant.demand.next_row = tick % ctx.rows;
        }
        // A policy reporting idle at `now` proposes nothing at `now`.
        const bool every_idle = now < every->next_proposal();
        dram::GrantRefreshes(*every, grant, &every_stats, every_ops,
                             every_proposals);
        if (every_idle) {
          ASSERT_TRUE(every_proposals.empty()) << "tick " << tick;
        }
        if (now < skipping->next_proposal()) {
          skipping->SkipIdleTick(now);
          skipping_ops.clear();
          ++idle;
        } else {
          dram::GrantRefreshes(*skipping, grant, &skipping_stats,
                               skipping_ops, skipping_proposals);
        }
        ASSERT_EQ(FormatOps(skipping_ops), FormatOps(every_ops))
            << "tick " << tick;
        EXPECT_TRUE(tight()) << "tick " << tick;
        // Accesses between ticks, every row once per 80 ticks: VRL-Access
        // resets counters, VRL-Skip stamps the restore with the policy's
        // clock (last_now()) and reschedules the row one period later, so
        // a skipped tick must still advance that clock.  Rows of the
        // 64-tick period come due between their accesses.
        if (tick % 5 == 2) {
          const std::size_t row = tick / 5 * 7 % ctx.rows;
          every->OnRowAccess(row);
          skipping->OnRowAccess(row);
          EXPECT_TRUE(tight()) << "access at tick " << tick;
        }
        // An access to a row whose proposal was just deferred: VRL-Skip
        // cancels the proposal (RearmOutstanding), which may leave nothing
        // outstanding.
        for (const dram::RefreshProposal& p : every_proposals) {
          const bool granted =
              std::any_of(every_ops.begin(), every_ops.end(),
                          [&](const dram::RefreshOp& op) {
                            return op.row == p.op.row;
                          });
          if (!granted && tick % 2 == 0) {
            every->OnRowAccess(p.op.row);
            skipping->OnRowAccess(p.op.row);
            EXPECT_TRUE(tight()) << "deferred-row access at tick " << tick;
            break;
          }
        }
      }
      EXPECT_EQ(skipping_stats.granted, every_stats.granted);
      EXPECT_EQ(skipping_stats.deferred, every_stats.deferred);
      EXPECT_EQ(skipping_stats.urgent_grants, every_stats.urgent_grants);
      EXPECT_GT(every_stats.granted, kTicks / 20);
      EXPECT_GT(idle, kTicks / 4);
      if (proposing != nullptr && proposing->defer_window() != 0) {
        EXPECT_GT(every_stats.deferred, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DARP under heavy deferral against a reference schedule
// ---------------------------------------------------------------------------

/// (row, granted) in the order the scheduler decided.
using Decisions = std::vector<std::pair<std::size_t, bool>>;

/// DARP's schedule written out plainly: a (due, row) min-heap, every
/// outstanding proposal offered on each Propose, a granted row found by
/// search and erased, re-armed one period after its due cycle.
class ReferenceDarp : public dram::RefreshPolicy {
 public:
  ReferenceDarp(std::size_t rows, Cycles period, Cycles trfc, Cycles defer)
      : rows_(rows), period_(period), trfc_(trfc), defer_(defer) {
    for (std::size_t r = 0; r < rows; ++r) {
      due_.emplace(period * r / rows, r);
    }
  }

  void Propose(Cycles now, const dram::DemandView& demand,
               std::vector<dram::RefreshProposal>& out) override {
    (void)demand;
    RequireMonotonicNow(now);
    while (!due_.empty() && due_.top().first <= now) {
      const auto [when, row] = due_.top();
      due_.pop();
      dram::RefreshProposal proposal;
      proposal.op = {row, trfc_, true, dram::RefreshGranularity::kPerBank};
      proposal.due = when;
      proposal.deadline = when + defer_;
      outstanding_.push_back(proposal);
    }
    out.assign(outstanding_.begin(), outstanding_.end());
  }
  void OnGrant(const dram::RefreshProposal& proposal, Cycles at) override {
    (void)at;
    decisions.emplace_back(proposal.op.row, true);
    for (auto it = outstanding_.begin(); it != outstanding_.end(); ++it) {
      if (it->op.row == proposal.op.row) {
        outstanding_.erase(it);
        break;
      }
    }
    due_.emplace(proposal.due + period_, proposal.op.row);
  }
  void OnDefer(const dram::RefreshProposal& proposal) override {
    decisions.emplace_back(proposal.op.row, false);
  }
  std::string Name() const override { return "reference-darp"; }
  std::size_t rows() const override { return rows_; }

  Decisions decisions;

 private:
  std::size_t rows_;
  Cycles period_;
  Cycles trfc_;
  Cycles defer_;
  std::priority_queue<std::pair<Cycles, std::size_t>,
                      std::vector<std::pair<Cycles, std::size_t>>,
                      std::greater<>>
      due_;
  std::vector<dram::RefreshProposal> outstanding_;
};

/// Forwards to `inner`, recording each decision.
class RecordDecisions : public dram::RefreshPolicy {
 public:
  explicit RecordDecisions(std::unique_ptr<dram::RefreshPolicy> inner)
      : inner_(std::move(inner)) {}

  void Propose(Cycles now, const dram::DemandView& demand,
               std::vector<dram::RefreshProposal>& out) override {
    inner_->Propose(now, demand, out);
  }
  void OnGrant(const dram::RefreshProposal& proposal, Cycles at) override {
    decisions.emplace_back(proposal.op.row, true);
    inner_->OnGrant(proposal, at);
  }
  void OnDefer(const dram::RefreshProposal& proposal) override {
    decisions.emplace_back(proposal.op.row, false);
    inner_->OnDefer(proposal);
  }
  std::string Name() const override { return inner_->Name(); }
  std::size_t rows() const override { return inner_->rows(); }

  Decisions decisions;

 private:
  std::unique_ptr<dram::RefreshPolicy> inner_;
};

TEST(RefreshDeferral, DarpUnderHeavyDeferralMatchesTheReferenceSchedule) {
  // 256 rows due over 64 ticks: four come due per tick.  Demand collides
  // with every REFpb except on one tick in 13, so proposals pile up (dozens
  // outstanding), some are granted early on a quiet tick and the rest are
  // forced at their deadline, eight ticks after they come due.
  constexpr std::size_t kRows = 256;
  constexpr Cycles kTrefi = 100;
  constexpr Cycles kPeriod = 64 * kTrefi;
  constexpr Cycles kTrfc = 35;
  constexpr Cycles kDefer = 8 * kTrefi;
  constexpr std::size_t kTicks = 1000;
  const dram::TimingParams timing;
  const dram::Bank bank(kRows, timing, dram::RowBufferPolicy::kOpenPage, 4);
  ReferenceDarp reference(kRows, kPeriod, kTrfc, kDefer);
  RecordDecisions darp(
      std::make_unique<dram::FullLatencyPolicy>(
          Darp(kRows, kPeriod, kTrfc, kDefer)));
  dram::RefreshGrantStats reference_stats;
  dram::RefreshGrantStats darp_stats;
  std::vector<dram::RefreshProposal> reference_proposals;
  std::vector<dram::RefreshProposal> darp_proposals;
  std::vector<dram::RefreshOp> reference_ops;
  std::vector<dram::RefreshOp> darp_ops;
  std::size_t most_offered = 0;
  for (std::size_t tick = 0; tick < kTicks; ++tick) {
    dram::RefreshGrantContext ctx;
    ctx.now = static_cast<Cycles>(tick) * kTrefi;
    ctx.demand.now = ctx.now;
    ctx.bank = &bank;
    if (tick % 13 != 0) {
      ctx.demand.has_next = true;
      ctx.demand.next_arrival = ctx.now + 1;
      ctx.demand.next_row = tick % kRows;
    }
    dram::GrantRefreshes(reference, ctx, &reference_stats, reference_ops,
                         reference_proposals);
    dram::GrantRefreshes(darp, ctx, &darp_stats, darp_ops, darp_proposals);
    most_offered = std::max(most_offered, darp_proposals.size());
    ASSERT_EQ(FormatOps(darp_ops), FormatOps(reference_ops))
        << "tick " << tick;
  }
  EXPECT_EQ(darp.decisions, reference.decisions);
  EXPECT_EQ(darp_stats.proposals, reference_stats.proposals);
  EXPECT_EQ(darp_stats.granted, reference_stats.granted);
  EXPECT_EQ(darp_stats.deferred, reference_stats.deferred);
  EXPECT_EQ(darp_stats.urgent_grants, reference_stats.urgent_grants);
  EXPECT_GT(most_offered, 24u);
  EXPECT_GT(darp_stats.deferred, darp_stats.granted);
  EXPECT_GT(darp_stats.urgent_grants, darp_stats.granted / 4);
  EXPECT_LT(darp_stats.urgent_grants, darp_stats.granted);
}

/// Runs every registry policy over `requests` twice, as built and wrapped
/// in AskEveryTick, and expects the same stats and command log.
void ExpectSkippingMatchesAskingEveryTick(
    const core::VrlSystem& system, const std::vector<dram::Request>& requests,
    Cycles horizon) {
  const core::VrlConfig& config = system.config();
  for (const dram::PolicyInfo& info :
       dram::PolicyRegistry::Global().entries()) {
    SCOPED_TRACE(info.name);
    const dram::PolicyFactory factory = system.MakePolicyFactory(info.name);
    const auto run = [&](const dram::PolicyFactory& f, dram::CommandLog* log) {
      dram::MemoryController controller(config.TimingTableFor(),
                                        config.tech.rows, f, config.scheduler,
                                        config.page_policy, config.subarrays);
      controller.EnableAudit();
      const dram::SimulationStats stats = controller.Run(requests, horizon);
      *log = controller.TakeAuditLog();
      return stats;
    };
    dram::CommandLog skipped;
    dram::CommandLog asked;
    const dram::SimulationStats a = run(factory, &skipped);
    const dram::SimulationStats b = run(
        [&] { return std::make_unique<AskEveryTick>(factory()); }, &asked);
    EXPECT_GT(a.TotalFullRefreshes() + a.TotalPartialRefreshes(), 0u);
    EXPECT_EQ(a.TotalFullRefreshes(), b.TotalFullRefreshes());
    EXPECT_EQ(a.TotalPartialRefreshes(), b.TotalPartialRefreshes());
    EXPECT_EQ(a.TotalRefreshBusyCycles(), b.TotalRefreshBusyCycles());
    EXPECT_EQ(a.AverageRequestLatency(), b.AverageRequestLatency());
    EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
    ASSERT_EQ(skipped.commands().size(), asked.commands().size());
    EXPECT_TRUE(skipped.commands() == asked.commands());
  }
}

TEST(NextProposal, ControllerRunMatchesAskingEveryTick) {
  struct Case {
    const char* label;
    dram::TimingPreset preset;
    dram::SchedulerKind scheduler;
    std::size_t subarrays;
  };
  const Case cases[] = {
      {"flat FCFS", dram::TimingPreset::kSingleBankEquivalent,
       dram::SchedulerKind::kFcfs, 1},
      {"flat FR-FCFS SALP", dram::TimingPreset::kSingleBankEquivalent,
       dram::SchedulerKind::kFrFcfs, 4},
      {"DDR4 FR-FCFS", dram::TimingPreset::kDdr4_2400,
       dram::SchedulerKind::kFrFcfs, 1},
  };
  // facesim touches most rows several times per refresh period; the sparse
  // trace touches a row about once per 64 ms window, so VRL-Skip's restore
  // stamps (taken from the policy's clock) decide when rows come due.
  trace::SyntheticWorkloadParams sparse = trace::SuiteWorkload("canneal");
  sparse.name = "sparse";
  sparse.mean_gap_cycles = 8000.0;
  sparse.footprint_fraction = 1.0;
  sparse.sequential_prob = 0.0;
  for (const Case& c : cases) {
    core::VrlConfig config;
    config.banks = 2;
    config.ApplyPreset(c.preset);
    config.scheduler = c.scheduler;
    config.subarrays = c.subarrays;
    const core::VrlSystem system(config);
    const Cycles horizon = system.HorizonForWindows(2);
    for (const trace::SyntheticWorkloadParams& workload :
         {trace::SuiteWorkload("facesim"), sparse}) {
      SCOPED_TRACE(std::string(c.label) + " " + workload.name);
      Rng rng(7);
      ExpectSkippingMatchesAskingEveryTick(
          system,
          trace::MapToRequests(
              trace::GenerateTrace(workload, system.Geometry(), horizon, rng),
              trace::AddressMapper(system.Geometry())),
          horizon);
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

// Each builder rejects a context missing one input it reads, naming the
// policy and the input; an input it does not read may be missing.
TEST(PolicyRegistry, MissingInputErrorsNameThePolicyAndTheInput) {
  dram::PolicyBuildContext full;
  full.rows = 4;
  full.base_window = 1000;
  full.t_refi = 125;
  full.trfc_full = 50;
  full.trfc_partial = 20;
  full.binned_plan.period_cycles = {1000, 2000, 1000, 2000};
  full.vrl_plan.period_cycles = {1000, 2000, 1000, 2000};
  full.vrl_plan.mprsf = {1, 2, 1, 2};
  using Clear = std::function<void(dram::PolicyBuildContext&)>;
  const std::vector<std::pair<std::string, Clear>> inputs = {
      {"rows", [](auto& c) { c.rows = 0; }},
      {"base_window", [](auto& c) { c.base_window = 0; }},
      {"trfc_full", [](auto& c) { c.trfc_full = 0; }},
      {"trfc_partial", [](auto& c) { c.trfc_partial = 0; }},
      {"binned_plan", [](auto& c) { c.binned_plan = {}; }},
      {"vrl_plan", [](auto& c) { c.vrl_plan = {}; }},
      {"defer_window or t_refi", [](auto& c) { c.t_refi = 0; }},
  };
  // The inputs each registry entry reads.
  const std::map<std::string, std::vector<std::string>> reads = {
      {"JEDEC", {"rows", "base_window", "trfc_full"}},
      {"RAIDR", {"binned_plan", "trfc_full"}},
      {"VRL", {"vrl_plan", "trfc_full", "trfc_partial"}},
      {"VRL-Access", {"vrl_plan", "trfc_full", "trfc_partial"}},
      {"VRL-Skip",
       {"vrl_plan", "trfc_full", "trfc_partial", "defer_window or t_refi"}},
      {"DARP", {"rows", "base_window", "trfc_full", "defer_window or t_refi"}},
      {"SARP", {"rows", "base_window", "trfc_full", "defer_window or t_refi"}},
  };
  const auto& registry = dram::PolicyRegistry::Global();
  ASSERT_EQ(reads.size(), registry.entries().size());
  for (const dram::PolicyInfo& info : registry.entries()) {
    const std::vector<std::string>& needed = reads.at(info.name);
    for (const auto& [input, clear] : inputs) {
      SCOPED_TRACE(info.name + " without " + input);
      dram::PolicyBuildContext ctx = full;
      clear(ctx);
      if (std::find(needed.begin(), needed.end(), input) == needed.end()) {
        EXPECT_NO_THROW(info.make(ctx));
        continue;
      }
      try {
        info.make(ctx);
        ADD_FAILURE() << "expected ConfigError";
      } catch (const ConfigError& e) {
        EXPECT_EQ(std::string(e.what()), "PolicyRegistry: building " +
                                             info.name + " requires " +
                                             input);
      }
    }
  }
}

// The first proposal of every registry policy: row 0 comes due at cycle 0
// with the policy's refresh scope, and its deadline trails its due cycle by
// the policy's defer window (0 for the fixed-schedule policies, the
// context's window or 8 x tREFI for the deferrable ones).
TEST(PolicyRegistry, FirstProposalCarriesGranularityAndDeferWindow) {
  struct Want {
    dram::RefreshGranularity granularity;
    bool deferrable;
  };
  constexpr auto kSa = dram::RefreshGranularity::kSubarray;
  const std::map<std::string, Want> want = {
      {"JEDEC", {kSa, false}},      {"RAIDR", {kSa, false}},
      {"VRL", {kSa, false}},        {"VRL-Access", {kSa, false}},
      {"VRL-Skip", {kSa, true}},    {"SARP", {kSa, true}},
      {"DARP", {dram::RefreshGranularity::kPerBank, true}},
  };
  const auto& registry = dram::PolicyRegistry::Global();
  ASSERT_EQ(want.size(), registry.entries().size());
  for (const Cycles defer_window : {Cycles{0}, Cycles{300}}) {
    dram::PolicyBuildContext ctx;
    ctx.rows = 4;
    ctx.base_window = 1000;
    ctx.t_refi = 125;
    ctx.trfc_full = 50;
    ctx.trfc_partial = 20;
    ctx.defer_window = defer_window;
    ctx.binned_plan.period_cycles = {1000, 2000, 1000, 2000};
    ctx.vrl_plan.period_cycles = {1000, 2000, 1000, 2000};
    ctx.vrl_plan.mprsf = {1, 2, 1, 2};
    for (const dram::PolicyInfo& info : registry.entries()) {
      SCOPED_TRACE(info.name + " defer_window " +
                   std::to_string(defer_window));
      const Want& w = want.at(info.name);
      const auto policy = registry.Build(info.name, ctx);
      std::vector<dram::RefreshProposal> proposals;
      policy->Propose(0, dram::DemandView{}, proposals);
      ASSERT_EQ(proposals.size(), 1u);
      const dram::RefreshProposal& first = proposals[0];
      EXPECT_EQ(first.op.row, 0u);
      EXPECT_EQ(first.due, 0u);
      EXPECT_EQ(first.op.granularity, w.granularity);
      EXPECT_EQ(first.deadline - first.due,
                w.deferrable ? ctx.DeferWindowOrDefault() : Cycles{0});
      if (info.plan != dram::RowPlanKind::kMprsf) {
        EXPECT_TRUE(first.op.is_full);
        EXPECT_EQ(first.op.trfc, ctx.trfc_full);
      }
    }
  }
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
