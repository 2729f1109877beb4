// Property-based tests of the DRAM substrate: scheduling-policy invariants
// swept over MPRSF values, refresh-rate conservation between policies, and
// controller accounting identities under arbitrary traffic.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <tuple>

#include "common/rng.hpp"
#include "dram/bank.hpp"
#include "dram/controller.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/scheduler.hpp"
#include "retention/profile.hpp"

#include "grant_all.hpp"

namespace vrl::dram {
namespace {

retention::BinningResult UniformBinning(std::size_t rows, double retention) {
  const retention::RetentionProfile profile(
      std::vector<double>(rows, retention));
  return retention::BinRows(profile, retention::StandardBinPeriods());
}

// ---------------------------------------------------------------------------
// VRL policy: the long-run partial fraction equals mprsf/(mprsf+1)
// ---------------------------------------------------------------------------

class VrlFractionProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VrlFractionProperty, SteadyStatePartialShare) {
  const std::size_t mprsf = GetParam();
  const std::size_t rows = 64;
  const auto binning = UniformBinning(rows, 1.0);
  const auto plan = MakeRefreshPlan(binning, 2.5e-9,
                                    std::vector<std::size_t>(rows, mprsf));
  VrlPolicy policy(plan, 26, 15);

  std::size_t fulls = 0;
  std::size_t partials = 0;
  const Cycles period = plan.period_cycles[0];
  const std::size_t super_cycles = 30;
  for (Cycles t = 0; t < super_cycles * (mprsf + 1) * period; t += period / 8) {
    for (const auto& op : GrantAll(policy, t)) {
      (op.is_full ? fulls : partials) += 1;
    }
  }
  ASSERT_GT(fulls, 0u);
  const double share = static_cast<double>(partials) /
                       static_cast<double>(fulls + partials);
  const double expected = static_cast<double>(mprsf) /
                          static_cast<double>(mprsf + 1);
  EXPECT_NEAR(share, expected, 0.02) << "mprsf=" << mprsf;
}

INSTANTIATE_TEST_SUITE_P(MprsfValues, VrlFractionProperty,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{2}, std::size_t{3},
                                           std::size_t{5}, std::size_t{7}));

// ---------------------------------------------------------------------------
// RAIDR and VRL issue the same refresh *count* for the same plan
// ---------------------------------------------------------------------------

class CountConservation : public ::testing::TestWithParam<double> {};

TEST_P(CountConservation, VrlChangesLatencyNotCount) {
  const double retention = GetParam();
  const std::size_t rows = 128;
  const auto binning = UniformBinning(rows, retention);
  const auto plan_raidr = MakeRefreshPlan(binning, 2.5e-9);
  const auto plan_vrl = MakeRefreshPlan(binning, 2.5e-9,
                                        std::vector<std::size_t>(rows, 2));
  auto raidr = Raidr(plan_raidr, 26);
  VrlPolicy vrl(plan_vrl, 26, 15);

  std::size_t raidr_ops = 0;
  std::size_t vrl_ops = 0;
  Cycles vrl_cycles = 0;
  Cycles raidr_cycles = 0;
  const Cycles horizon = 16 * 25'600'000;
  for (Cycles t = 0; t <= horizon; t += 3120) {
    for (const auto& op : GrantAll(raidr, t)) {
      ++raidr_ops;
      raidr_cycles += op.trfc;
    }
    for (const auto& op : GrantAll(vrl, t)) {
      ++vrl_ops;
      vrl_cycles += op.trfc;
    }
  }
  EXPECT_EQ(raidr_ops, vrl_ops);
  EXPECT_LT(vrl_cycles, raidr_cycles);
}

INSTANTIATE_TEST_SUITE_P(Retentions, CountConservation,
                         ::testing::Values(0.07, 0.13, 0.2, 0.5, 3.0));

// ---------------------------------------------------------------------------
// Controller accounting identities under random traffic
// ---------------------------------------------------------------------------

struct TrafficCase {
  std::size_t banks;
  std::size_t requests;
  SchedulerKind scheduler;
};

// Names each case in the test list ("Banks4_Requests2000_FrFcfs"); gtest's
// default is a byte dump that includes the struct's padding, which
// changes from build to build.
void PrintTo(const TrafficCase& c, std::ostream* os) {
  *os << "Banks" << c.banks << "_Requests" << c.requests
      << (c.scheduler == SchedulerKind::kFcfs ? "_Fcfs" : "_FrFcfs");
}

class ControllerAccounting : public ::testing::TestWithParam<TrafficCase> {};

TEST_P(ControllerAccounting, InvariantsHold) {
  const TrafficCase c = GetParam();
  const std::size_t rows = 64;
  TimingParams timing;
  timing.t_refi = 2000;
  timing.t_refw = 128000;

  MemoryController controller(
      c.banks, rows, timing,
      [&]() {
        return std::make_unique<FullLatencyPolicy>(
            Jedec(rows, timing.t_refw, 26));
      },
      c.scheduler);

  Rng rng(c.requests * 31 + c.banks);
  std::vector<Request> requests;
  Cycles t = 0;
  for (std::size_t i = 0; i < c.requests; ++i) {
    t += rng.UniformInt(200);
    Request r;
    r.arrival = t;
    r.bank = rng.UniformInt(c.banks);
    r.row = rng.UniformInt(rows);
    r.type = rng.Bernoulli(0.5) ? RequestType::kWrite : RequestType::kRead;
    requests.push_back(r);
  }

  const Cycles horizon = 4 * timing.t_refw;
  const auto stats = controller.Run(requests, horizon);

  // Every request is serviced exactly once.
  std::size_t in_horizon = 0;
  for (const auto& r : requests) {
    in_horizon += r.arrival <= horizon ? 1 : 0;
  }
  EXPECT_EQ(stats.TotalReads() + stats.TotalWrites(), in_horizon);

  // Hits + misses == accesses.
  EXPECT_EQ(stats.TotalRowHits() + stats.TotalRowMisses(), in_horizon);

  // Refresh busy cycles == ops * tRFC for a single-latency policy.
  EXPECT_EQ(stats.TotalRefreshBusyCycles(),
            stats.TotalFullRefreshes() * 26);
  EXPECT_EQ(stats.TotalPartialRefreshes(), 0u);

  // The simulation horizon covers the last completion.
  EXPECT_GE(stats.simulated_cycles, horizon);
}

INSTANTIATE_TEST_SUITE_P(
    Traffic, ControllerAccounting,
    ::testing::Values(TrafficCase{1, 0, SchedulerKind::kFcfs},
                      TrafficCase{1, 500, SchedulerKind::kFcfs},
                      TrafficCase{4, 2000, SchedulerKind::kFcfs},
                      TrafficCase{4, 2000, SchedulerKind::kFrFcfs},
                      TrafficCase{8, 5000, SchedulerKind::kFrFcfs}));

// ---------------------------------------------------------------------------
// Refresh burst capping (REF postponement)
// ---------------------------------------------------------------------------

class BurstCapProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BurstCapProperty, PostponedOpsAreNeverDropped) {
  const std::size_t cap = GetParam();
  const std::size_t rows = 128;
  const auto binning = UniformBinning(rows, 0.07);  // everyone in 64ms bin
  const auto plan_a = MakeRefreshPlan(binning, 2.5e-9);
  const auto plan_b = plan_a;

  auto uncapped = Raidr(plan_a, 26);
  auto capped = Raidr(plan_b, 26);
  capped.set_max_ops_per_tick(cap);
  EXPECT_EQ(capped.max_ops_per_tick(), cap);

  std::size_t ops_uncapped = 0;
  std::size_t ops_capped = 0;
  const Cycles horizon = 8 * 25'600'000;
  for (Cycles t = 0; t <= horizon; t += 3120) {
    ops_uncapped += GrantAll(uncapped, t).size();
    const auto batch = GrantAll(capped, t);
    if (cap != 0) {
      EXPECT_LE(batch.size(), cap);
    }
    ops_capped += batch.size();
  }
  // Postponement delays ops but conserves them (modulo the trailing ticks
  // still draining at the horizon).
  EXPECT_NEAR(static_cast<double>(ops_capped),
              static_cast<double>(ops_uncapped),
              static_cast<double>(cap == 0 ? 0 : 2 * rows));
}

INSTANTIATE_TEST_SUITE_P(Caps, BurstCapProperty,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{2}, std::size_t{8}));

TEST(BurstCap, DeferredRowsComeFirstNextTick) {
  const std::size_t rows = 4;
  const auto binning = UniformBinning(rows, 0.07);
  const auto plan = MakeRefreshPlan(binning, 2.5e-9);
  auto policy = Raidr(plan, 26);
  policy.set_max_ops_per_tick(1);

  // Jump past everyone's first deadline: all 4 rows are due, but each tick
  // emits exactly one, in deadline order.
  const Cycles late = plan.period_cycles[0] + 10;
  std::vector<std::size_t> order;
  for (int tick = 0; tick < 4; ++tick) {
    const auto ops = GrantAll(policy, late + static_cast<Cycles>(tick));
    ASSERT_EQ(ops.size(), 1u);
    order.push_back(ops[0].row);
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Scheduler selection properties
// ---------------------------------------------------------------------------

/// Requests to rows 9, 5, 5 in arrival order, none served yet.
const std::vector<RequestSlot> kPending = {{0, 9, false}, {1, 5, false},
                                           {2, 5, false}};
const std::vector<std::uint8_t> kNoneServed(3, 0);

/// A bank with `row` open (activated by one serviced read).
Bank BankWithOpenRow(std::size_t row) {
  Bank bank(16, TimingParams{});
  Request request;
  request.row = row;
  bank.ServiceRequest(request);
  return bank;
}

TEST(SchedulerSelect, FcfsAlwaysPicksOldest) {
  const Bank bank = BankWithOpenRow(5);
  EXPECT_EQ(SelectNextRequest(SchedulerKind::kFcfs, kPending, kNoneServed,
                              bank),
            0u);
}

TEST(SchedulerSelect, FrFcfsPrefersOldestRowHit) {
  const Bank bank = BankWithOpenRow(5);
  ASSERT_TRUE(bank.IsRowOpen(5));
  EXPECT_EQ(SelectNextRequest(SchedulerKind::kFrFcfs, kPending, kNoneServed,
                              bank),
            1u);
}

TEST(SchedulerSelect, FrFcfsFallsBackToOldest) {
  const Bank miss = BankWithOpenRow(7);
  EXPECT_EQ(SelectNextRequest(SchedulerKind::kFrFcfs, kPending, kNoneServed,
                              miss),
            0u);
  const Bank closed(16, TimingParams{});  // No row open yet.
  EXPECT_EQ(SelectNextRequest(SchedulerKind::kFrFcfs, kPending, kNoneServed,
                              closed),
            0u);
}

TEST(SchedulerSelect, RejectsEmptyPending) {
  const Bank bank(16, TimingParams{});
  EXPECT_THROW(SelectNextRequest(SchedulerKind::kFcfs, {}, {}, bank),
               ConfigError);
}

TEST(SchedulerSelect, NamesAreDistinct) {
  EXPECT_NE(SchedulerName(SchedulerKind::kFcfs),
            SchedulerName(SchedulerKind::kFrFcfs));
}

// ---------------------------------------------------------------------------
// Controller invariants across the full organization grid
// ---------------------------------------------------------------------------

struct OrganizationCase {
  SchedulerKind scheduler;
  RowBufferPolicy page;
  std::size_t subarrays;
};

class OrganizationProperty : public ::testing::TestWithParam<OrganizationCase> {
};

TEST_P(OrganizationProperty, AccountingHoldsForVrlPolicy) {
  const OrganizationCase c = GetParam();
  const std::size_t rows = 64;
  TimingParams timing;
  timing.t_refi = 2000;
  timing.t_refw = 128000;

  const auto binning = UniformBinning(rows, 1.0);
  const auto plan = MakeRefreshPlan(binning, 2.5e-9,
                                    std::vector<std::size_t>(rows, 2));
  MemoryController controller(
      2, rows, timing,
      [&]() { return std::make_unique<VrlPolicy>(plan, 26, 15); },
      c.scheduler, c.page, c.subarrays);

  Rng rng(77);
  std::vector<Request> requests;
  Cycles t = 0;
  for (int i = 0; i < 1500; ++i) {
    t += rng.UniformInt(120);
    Request r;
    r.arrival = t;
    r.bank = rng.UniformInt(2);
    r.row = rng.UniformInt(rows);
    r.type = rng.Bernoulli(0.4) ? RequestType::kWrite : RequestType::kRead;
    requests.push_back(r);
  }

  const Cycles horizon = 4 * timing.t_refw;
  const auto stats = controller.Run(requests, horizon);

  std::size_t in_horizon = 0;
  for (const auto& r : requests) {
    in_horizon += r.arrival <= horizon ? 1 : 0;
  }
  EXPECT_EQ(stats.TotalReads() + stats.TotalWrites(), in_horizon);
  EXPECT_EQ(stats.TotalRowHits() + stats.TotalRowMisses(), in_horizon);
  // Mixed-latency accounting: busy cycles = fulls*26 + partials*15.
  EXPECT_EQ(stats.TotalRefreshBusyCycles(),
            stats.TotalFullRefreshes() * 26 +
                stats.TotalPartialRefreshes() * 15);
  EXPECT_GT(stats.TotalPartialRefreshes(), 0u);
  // Closed-page never records row hits.
  if (c.page == RowBufferPolicy::kClosedPage) {
    EXPECT_EQ(stats.TotalRowHits(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, OrganizationProperty,
    ::testing::Values(
        OrganizationCase{SchedulerKind::kFcfs, RowBufferPolicy::kOpenPage, 1},
        OrganizationCase{SchedulerKind::kFrFcfs, RowBufferPolicy::kOpenPage,
                         1},
        OrganizationCase{SchedulerKind::kFcfs, RowBufferPolicy::kClosedPage,
                         1},
        OrganizationCase{SchedulerKind::kFcfs, RowBufferPolicy::kOpenPage, 4},
        OrganizationCase{SchedulerKind::kFrFcfs, RowBufferPolicy::kOpenPage,
                         8},
        OrganizationCase{SchedulerKind::kFrFcfs, RowBufferPolicy::kClosedPage,
                         4}));

// ---------------------------------------------------------------------------
// FR-FCFS end-to-end: never worse than FCFS on average latency
// ---------------------------------------------------------------------------

class SchedulerComparison : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerComparison, FrFcfsDoesNotHurtThroughput) {
  const std::size_t rows = 64;
  TimingParams timing;
  timing.t_refi = 2000;
  timing.t_refw = 128000;

  // Two interleaved sequential streams at high intensity.
  Rng rng(GetParam());
  std::vector<Request> requests;
  Cycles t = 0;
  std::size_t rowA = 3;
  std::size_t rowB = 40;
  for (int i = 0; i < 4000; ++i) {
    t += 1 + rng.UniformInt(30);
    Request r;
    r.arrival = t;
    r.bank = 0;
    r.row = rng.Bernoulli(0.5) ? rowA : rowB;
    requests.push_back(r);
    if (i % 50 == 49) {
      rowA = (rowA + 1) % rows;  // streams drift slowly
      rowB = (rowB + 1) % rows;
    }
  }

  const auto run = [&](SchedulerKind kind) {
    MemoryController controller(
        1, rows, timing,
        [&]() {
          return std::make_unique<FullLatencyPolicy>(
              Jedec(rows, timing.t_refw, 26));
        },
        kind);
    return controller.Run(requests, 2 * timing.t_refw);
  };

  const auto fcfs = run(SchedulerKind::kFcfs);
  const auto frfcfs = run(SchedulerKind::kFrFcfs);
  EXPECT_LE(frfcfs.AverageRequestLatency(),
            fcfs.AverageRequestLatency() + 1e-9);
  EXPECT_GE(frfcfs.TotalRowHits(), fcfs.TotalRowHits());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerComparison,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace vrl::dram
