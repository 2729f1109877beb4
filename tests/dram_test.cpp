#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dram/bank.hpp"
#include "dram/controller.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/timing.hpp"
#include "retention/profile.hpp"

#include "grant_all.hpp"

namespace vrl::dram {
namespace {

TimingParams FastTiming() {
  TimingParams t;
  t.t_refi = 1000;
  t.t_refw = 64000;
  return t;
}

// ---------------------------------------------------------------------------
// TimingParams
// ---------------------------------------------------------------------------

TEST(Timing, DefaultValidates) { EXPECT_NO_THROW(TimingParams{}.Validate()); }

TEST(Timing, RejectsInconsistent) {
  TimingParams t;
  t.t_ras = 2;
  t.t_rcd = 10;
  EXPECT_THROW(t.Validate(), ConfigError);
  t = TimingParams{};
  t.t_refw = t.t_refi - 1;
  EXPECT_THROW(t.Validate(), ConfigError);
  t = TimingParams{};
  t.t_cas = 0;
  EXPECT_THROW(t.Validate(), ConfigError);
}

TEST(Timing, RejectsRaggedRefreshWindow) {
  // tREFW must divide into whole tREFI ticks: the controller walks the
  // window in tREFI steps and a ragged remainder would silently shortchange
  // the rows due in it.  The message is pinned — callers (and docs) quote it.
  TimingParams t;
  t.t_refi = 1000;
  t.t_refw = 64500;  // 64.5 ticks
  try {
    t.Validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "TimingParams: tREFW must be a multiple of tREFI (a ragged "
                 "final refresh window would be silently truncated)");
  }
}

TEST(Timing, DefaultRefreshWindowIsWholeTicks) {
  // The JESD79-3 ratio: 8192 tREFI ticks per tREFW window, exactly.
  const TimingParams t;
  EXPECT_EQ(t.t_refw % t.t_refi, 0u);
  EXPECT_EQ(t.t_refw / t.t_refi, 8192u);
}

TEST(Scheduler, NamesRoundTrip) {
  for (const SchedulerKind kind :
       {SchedulerKind::kFcfs, SchedulerKind::kFrFcfs}) {
    EXPECT_EQ(SchedulerFromName(SchedulerName(kind)), kind);
  }
  EXPECT_EQ(SchedulerFromName("fr-fcfs"), SchedulerKind::kFrFcfs);
  EXPECT_EQ(SchedulerFromName("FR_FCFS"), SchedulerKind::kFrFcfs);
  EXPECT_EQ(SchedulerFromName("fcfs"), SchedulerKind::kFcfs);
  EXPECT_THROW(SchedulerFromName("round-robin"), ConfigError);
}

// ---------------------------------------------------------------------------
// Bank
// ---------------------------------------------------------------------------

TEST(Bank, RowMissCostsActivate) {
  const TimingParams t;
  Bank bank(64, t);
  Request r;
  r.arrival = 0;
  r.row = 3;
  const Cycles done = bank.ServiceRequest(r);
  // Row empty: tRCD + tCAS + burst.
  EXPECT_EQ(done, t.t_rcd + t.t_cas + t.t_bus);
  EXPECT_EQ(bank.stats().row_misses, 1u);
  EXPECT_EQ(bank.stats().row_hits, 0u);
  EXPECT_EQ(*bank.open_row(), 3u);
}

TEST(Bank, RowHitIsCheaper) {
  const TimingParams t;
  Bank bank(64, t);
  Request r;
  r.row = 3;
  const Cycles first = bank.ServiceRequest(r);
  r.arrival = first;
  const Cycles second = bank.ServiceRequest(r);
  EXPECT_EQ(second - first, t.t_cas + t.t_bus);
  EXPECT_EQ(bank.stats().row_hits, 1u);
}

TEST(Bank, RowConflictCostsPrechargeActivate) {
  const TimingParams t;
  Bank bank(64, t);
  Request r;
  r.row = 3;
  const Cycles first = bank.ServiceRequest(r);
  r.row = 5;
  r.arrival = first;
  const Cycles second = bank.ServiceRequest(r);
  // Precharge waits for tRAS of the ACT at 0 if the first access was quick.
  const Cycles pre_start = std::max(first, t.t_ras);
  EXPECT_EQ(second, pre_start + t.t_rp + t.t_rcd + t.t_cas + t.t_bus);
  EXPECT_EQ(bank.stats().row_misses, 2u);
}

TEST(Bank, RequestWaitsForBusyBank) {
  const TimingParams t;
  Bank bank(64, t);
  Request r;
  r.row = 1;
  const Cycles done = bank.ServiceRequest(r);
  Request r2;
  r2.row = 1;
  r2.arrival = 0;  // arrived while busy
  const Cycles done2 = bank.ServiceRequest(r2);
  EXPECT_EQ(done2, done + t.t_cas + t.t_bus);
  // Queueing delay shows up in the latency accounting.
  EXPECT_EQ(bank.stats().total_request_latency, done + done2);
}

TEST(Bank, RefreshClosesOpenRow) {
  const TimingParams t;
  Bank bank(64, t);
  Request r;
  r.row = 7;
  const Cycles done = bank.ServiceRequest(r);
  const RefreshOp op{0, 26, true};
  const Cycles ref_done = bank.ExecuteRefresh(op, done);
  EXPECT_EQ(ref_done, std::max(done, t.t_ras) + t.t_rp + 26);
  EXPECT_FALSE(bank.open_row().has_value());
  EXPECT_EQ(bank.stats().refresh_busy_cycles, 26u);
  EXPECT_EQ(bank.stats().full_refreshes, 1u);
}

TEST(Bank, RefreshFromPrechargedCostsOnlyTrfc) {
  Bank bank(64, TimingParams{});
  const Cycles done = bank.ExecuteRefresh({1, 15, false}, 100);
  EXPECT_EQ(done, 115u);
  EXPECT_EQ(bank.stats().partial_refreshes, 1u);
}

TEST(Bank, CountsReadsAndWrites) {
  Bank bank(64, TimingParams{});
  Request r;
  r.type = RequestType::kWrite;
  bank.ServiceRequest(r);
  r.type = RequestType::kRead;
  r.arrival = 1000;
  bank.ServiceRequest(r);
  EXPECT_EQ(bank.stats().writes, 1u);
  EXPECT_EQ(bank.stats().reads, 1u);
}

TEST(Bank, WriteRecoveryDelaysConflictPrecharge) {
  const TimingParams t;
  Bank bank(64, t);
  Request write;
  write.row = 3;
  write.type = RequestType::kWrite;
  const Cycles write_done = bank.ServiceRequest(write);
  // Immediate conflict: the precharge must wait out tWR after the write.
  Request conflict;
  conflict.row = 5;
  conflict.arrival = write_done;
  const Cycles done = bank.ServiceRequest(conflict);
  EXPECT_EQ(done,
            write_done + t.t_wr + t.t_rp + t.t_rcd + t.t_cas + t.t_bus);
}

TEST(Bank, ReadConflictNeedsNoWriteRecovery) {
  const TimingParams t;
  Bank bank(64, t);
  Request read;
  read.row = 3;
  const Cycles read_done = bank.ServiceRequest(read);
  Request conflict;
  conflict.row = 5;
  conflict.arrival = read_done;
  const Cycles done = bank.ServiceRequest(conflict);
  // No tWR wait — but the precharge still honors tRAS of the ACT at 0.
  const Cycles pre_start = std::max(read_done, t.t_ras);
  EXPECT_EQ(done, pre_start + t.t_rp + t.t_rcd + t.t_cas + t.t_bus);
}

TEST(Bank, TRasKeepsRowOpenBeforeConflict) {
  TimingParams t;
  t.t_ras = 200;  // force the constraint to bind
  Bank bank(64, t);
  Request first;
  first.row = 1;
  const Cycles first_done = bank.ServiceRequest(first);  // ACT at 0
  Request conflict;
  conflict.row = 2;
  conflict.arrival = first_done;
  const Cycles done = bank.ServiceRequest(conflict);
  // Precharge cannot start before ACT + tRAS = 200.
  EXPECT_EQ(done, 200 + t.t_rp + t.t_rcd + t.t_cas + t.t_bus);
}

TEST(Bank, TRasDelaysRefreshPrecharge) {
  TimingParams t;
  t.t_ras = 200;
  Bank bank(64, t);
  Request first;
  first.row = 1;
  const Cycles first_done = bank.ServiceRequest(first);
  const Cycles ref_done = bank.ExecuteRefresh({0, 26, true}, first_done);
  EXPECT_EQ(ref_done, 200 + t.t_rp + 26);
}

TEST(Bank, ClosedPagePrechargesAfterAccess) {
  const TimingParams t;
  Bank bank(64, t, RowBufferPolicy::kClosedPage);
  Request r;
  r.row = 7;
  const Cycles done = bank.ServiceRequest(r);
  EXPECT_FALSE(bank.open_row().has_value());
  // The auto-precharge (waiting out tRAS) occupies the bank beyond the
  // data burst.
  EXPECT_EQ(bank.busy_until(), std::max(done, t.t_ras) + t.t_rp);
}

TEST(Bank, ClosedPageTurnsConflictsIntoEmptyActivations) {
  const TimingParams t;
  Bank open_bank(64, t, RowBufferPolicy::kOpenPage);
  Bank closed_bank(64, t, RowBufferPolicy::kClosedPage);
  // Alternate two rows: open-page pays PRE+ACT each time, closed-page only
  // ACT (the precharge already happened in the shadow of the previous op).
  Cycles open_t = 0;
  Cycles closed_t = 0;
  for (int i = 0; i < 10; ++i) {
    Request r;
    r.row = static_cast<std::size_t>(i % 2);
    // Spaced far apart: the bank is idle when each request arrives.
    r.arrival = static_cast<Cycles>(i + 1) * 100000;
    open_t = open_bank.ServiceRequest(r);
    closed_t = closed_bank.ServiceRequest(r);
  }
  EXPECT_EQ(open_bank.stats().row_misses, 10u);
  EXPECT_EQ(closed_bank.stats().row_misses, 10u);
  // Same misses, but the closed bank never paid an in-line precharge after
  // the first access (arrivals are spaced out), so per-access latency is
  // tRCD+tCAS+tBUS vs tRP+tRCD+tCAS+tBUS.
  EXPECT_LT(closed_bank.stats().total_request_latency,
            open_bank.stats().total_request_latency);
}

// ---------------------------------------------------------------------------
// Subarray-level parallelism
// ---------------------------------------------------------------------------

TEST(BankSalp, RefreshDoesNotBlockOtherSubarrays) {
  const TimingParams t;
  Bank bank(64, t, RowBufferPolicy::kOpenPage, /*subarrays=*/4);
  // Refresh a row in subarray 0 (rows 0..15) with a long tRFC.
  bank.ExecuteRefresh({0, 500, true}, 0);
  // An access to subarray 3 proceeds immediately.
  Request r;
  r.row = 60;
  const Cycles done = bank.ServiceRequest(r);
  EXPECT_EQ(done, t.t_rcd + t.t_cas + t.t_bus);
  // An access to the refreshed subarray waits.
  Request blocked;
  blocked.row = 1;
  const Cycles blocked_done = bank.ServiceRequest(blocked);
  EXPECT_GE(blocked_done, 500u);
}

TEST(BankSalp, EachSubarrayHasItsOwnRowBuffer) {
  const TimingParams t;
  Bank bank(64, t, RowBufferPolicy::kOpenPage, 4);
  Request a;
  a.row = 1;  // subarray 0
  Request b;
  b.row = 20;  // subarray 1
  bank.ServiceRequest(a);
  bank.ServiceRequest(b);
  EXPECT_TRUE(bank.IsRowOpen(1));
  EXPECT_TRUE(bank.IsRowOpen(20));
  EXPECT_FALSE(bank.IsRowOpen(2));
  // Re-access of row 1 is still a hit: opening row 20 did not evict it.
  Request again;
  again.row = 1;
  again.arrival = 10000;
  bank.ServiceRequest(again);
  EXPECT_EQ(bank.stats().row_hits, 1u);
}

TEST(BankSalp, SharedBusSerializesBursts) {
  const TimingParams t;
  Bank bank(64, t, RowBufferPolicy::kOpenPage, 4);
  Request a;
  a.row = 1;  // subarray 0
  Request b;
  b.row = 60;  // subarray 3, same arrival
  const Cycles done_a = bank.ServiceRequest(a);
  const Cycles done_b = bank.ServiceRequest(b);
  // Row cycles overlap, but the two bursts cannot: completions differ by at
  // least the burst length.
  EXPECT_GE(done_b, done_a + t.t_bus);
  // And b finished earlier than a fully serialized bank would allow.
  EXPECT_LT(done_b, done_a + t.t_rcd + t.t_cas + t.t_bus);
}

TEST(BankSalp, SubarrayOfMapsRowsContiguously) {
  Bank bank(64, TimingParams{}, RowBufferPolicy::kOpenPage, 4);
  EXPECT_EQ(bank.subarray_count(), 4u);
  EXPECT_EQ(bank.SubarrayOf(0), 0u);
  EXPECT_EQ(bank.SubarrayOf(15), 0u);
  EXPECT_EQ(bank.SubarrayOf(16), 1u);
  EXPECT_EQ(bank.SubarrayOf(63), 3u);
}

TEST(BankSalp, SingleSubarrayMatchesLegacyBehaviour) {
  const TimingParams t;
  Bank legacy(64, t);
  EXPECT_EQ(legacy.subarray_count(), 1u);
  Request r;
  r.row = 3;
  const Cycles done = legacy.ServiceRequest(r);
  EXPECT_EQ(done, t.t_rcd + t.t_cas + t.t_bus);
  EXPECT_EQ(*legacy.open_row(), 3u);
}

TEST(BankSalp, RejectsBadSubarrayCount) {
  EXPECT_THROW(Bank(64, TimingParams{}, RowBufferPolicy::kOpenPage, 0),
               ConfigError);
  EXPECT_THROW(Bank(64, TimingParams{}, RowBufferPolicy::kOpenPage, 65),
               ConfigError);
}

TEST(Bank, RejectsBadInput) {
  EXPECT_THROW(Bank(0, TimingParams{}), ConfigError);
  Bank bank(4, TimingParams{});
  Request r;
  r.row = 4;
  EXPECT_THROW(bank.ServiceRequest(r), ConfigError);
  EXPECT_THROW(bank.ExecuteRefresh({9, 26, true}, 0), ConfigError);
  EXPECT_THROW(bank.ExecuteRefresh({0, 0, true}, 0), ConfigError);
}

// ---------------------------------------------------------------------------
// Refresh policies
// ---------------------------------------------------------------------------

retention::BinningResult MakeBinning(std::vector<double> retentions) {
  const retention::RetentionProfile profile(std::move(retentions));
  return retention::BinRows(profile, retention::StandardBinPeriods());
}

TEST(JedecPolicy, RefreshesEveryRowOncePerWindow) {
  auto policy = Jedec(16, 1600, 26);
  std::size_t ops = 0;
  for (Cycles t = 0; t < 3200; t += 100) {
    for (const auto& op : GrantAll(policy, t)) {
      EXPECT_TRUE(op.is_full);
      EXPECT_EQ(op.trfc, 26u);
      ++ops;
    }
  }
  // Two windows' worth of refreshes for 16 rows (t=3100 covers the second
  // window's staggered deadlines except the very last row).
  EXPECT_GE(ops, 31u);
  EXPECT_LE(ops, 32u);
}

TEST(RaidrPolicy, WeakRowsRefreshMoreOften) {
  // Row 0: 64 ms bin; row 1: 256 ms bin.
  const auto binning = MakeBinning({0.07, 1.0});
  const auto plan = MakeRefreshPlan(binning, 2.5e-9);
  auto policy = Raidr(plan, 26);
  std::size_t row0 = 0;
  std::size_t row1 = 0;
  const Cycles period64 = plan.period_cycles[0];
  for (Cycles t = 0; t < 8 * period64; t += period64 / 16) {
    for (const auto& op : GrantAll(policy, t)) {
      (op.row == 0 ? row0 : row1) += 1;
      EXPECT_TRUE(op.is_full);
    }
  }
  EXPECT_GT(row0, 3 * row1);
}

TEST(VrlPolicy, FollowsAlgorithmOne) {
  // Single row with MPRSF 2: pattern partial, partial, full, ...
  retention::BinningResult binning = MakeBinning({1.0});
  auto plan = MakeRefreshPlan(binning, 2.5e-9, {2});
  VrlPolicy policy(plan, 26, 15);
  const Cycles period = plan.period_cycles[0];

  std::vector<bool> fulls;
  for (Cycles t = 0; t < 9 * period; t += period) {
    for (const auto& op : GrantAll(policy, t)) {
      fulls.push_back(op.is_full);
      EXPECT_EQ(op.trfc, op.is_full ? 26u : 15u);
    }
  }
  ASSERT_GE(fulls.size(), 9u);
  // Exactly one full every three refreshes.
  std::size_t full_count = 0;
  for (std::size_t i = 0; i + 2 < fulls.size(); i += 3) {
    full_count += static_cast<std::size_t>(fulls[i]) + fulls[i + 1] + fulls[i + 2];
  }
  EXPECT_EQ(full_count, fulls.size() / 3);
}

TEST(VrlPolicy, ZeroMprsfMeansAllFull) {
  auto plan = MakeRefreshPlan(MakeBinning({1.0}), 2.5e-9, {0});
  VrlPolicy policy(plan, 26, 15);
  const Cycles period = plan.period_cycles[0];
  for (Cycles t = 0; t < 5 * period; t += period) {
    for (const auto& op : GrantAll(policy, t)) {
      EXPECT_TRUE(op.is_full);
    }
  }
}

TEST(VrlPolicy, CounterPhasesAreStaggered) {
  auto plan = MakeRefreshPlan(MakeBinning({1.0, 1.0, 1.0}), 2.5e-9, {2, 2, 2});
  VrlPolicy policy(plan, 26, 15);
  // rcount starts at r % (mprsf+1).
  EXPECT_EQ(policy.RefreshCount(0), 0);
  EXPECT_EQ(policy.RefreshCount(1), 1);
  EXPECT_EQ(policy.RefreshCount(2), 2);
}

TEST(VrlPolicy, RejectsBadConfiguration) {
  auto plan = MakeRefreshPlan(MakeBinning({1.0}), 2.5e-9, {1});
  EXPECT_THROW(VrlPolicy(plan, 26, 26), ConfigError);
  EXPECT_THROW(VrlPolicy(plan, 26, 0), ConfigError);
  auto no_mprsf = MakeRefreshPlan(MakeBinning({1.0}), 2.5e-9);
  EXPECT_THROW(VrlPolicy(no_mprsf, 26, 15), ConfigError);
}

TEST(VrlAccessPolicy, AccessResetsCounter) {
  auto plan = MakeRefreshPlan(MakeBinning({1.0}), 2.5e-9, {2});
  VrlAccessPolicy policy(plan, 26, 15);
  const Cycles period = plan.period_cycles[0];

  // Two partials bring the counter to 2 (next would be full)...
  (void)GrantAll(policy, 0);
  (void)GrantAll(policy, period);
  EXPECT_EQ(policy.RefreshCount(0), 2);
  // ...but an access resets it, so the next refresh is partial again.
  policy.OnRowAccess(0);
  EXPECT_EQ(policy.RefreshCount(0), 0);
  const auto ops = GrantAll(policy, 2 * period);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_FALSE(ops[0].is_full);
}

TEST(VrlAccessPolicy, RejectsUnknownRow) {
  auto plan = MakeRefreshPlan(MakeBinning({1.0}), 2.5e-9, {1});
  VrlAccessPolicy policy(plan, 26, 15);
  EXPECT_THROW(policy.OnRowAccess(1), ConfigError);
}

TEST(RefreshPolicyContract, ProposeRejectsDecreasingNow) {
  // Every policy enforces the documented non-decreasing `now` contract.
  const auto plan = MakeRefreshPlan(MakeBinning({1.0, 1.0}), 2.5e-9, {1, 1});
  const auto raidr_plan = MakeRefreshPlan(MakeBinning({1.0, 1.0}), 2.5e-9);
  std::vector<std::unique_ptr<RefreshPolicy>> policies;
  policies.push_back(std::make_unique<FullLatencyPolicy>(Jedec(2, 1600, 26)));
  policies.push_back(
      std::make_unique<FullLatencyPolicy>(Raidr(raidr_plan, 26)));
  policies.push_back(std::make_unique<VrlPolicy>(plan, 26, 15));
  policies.push_back(std::make_unique<VrlAccessPolicy>(plan, 26, 15));
  for (auto& policy : policies) {
    (void)GrantAll(*policy, 100);
    EXPECT_NO_THROW(GrantAll(*policy, 100)) << policy->Name();
    EXPECT_THROW(GrantAll(*policy, 99), ConfigError) << policy->Name();
    // The clock did not move backward; later ticks still work.
    EXPECT_NO_THROW(GrantAll(*policy, 200)) << policy->Name();
  }
}

TEST(MakeRefreshPlanTest, ConvertsPeriodsToCycles) {
  const auto binning = MakeBinning({0.07, 0.26});
  const auto plan = MakeRefreshPlan(binning, 2.5e-9);
  EXPECT_EQ(plan.period_cycles[0], SecondsToCyclesCeil(0.064, 2.5e-9));
  EXPECT_EQ(plan.period_cycles[1], SecondsToCyclesCeil(0.256, 2.5e-9));
  EXPECT_TRUE(plan.mprsf.empty());
}

TEST(MakeRefreshPlanTest, RejectsMismatchedMprsf) {
  const auto binning = MakeBinning({0.07, 0.26});
  EXPECT_THROW(MakeRefreshPlan(binning, 2.5e-9, {1}), ConfigError);
  EXPECT_THROW(MakeRefreshPlan(binning, 0.0), ConfigError);
}

// ---------------------------------------------------------------------------
// DueQueue
// ---------------------------------------------------------------------------

/// The binary heap the due queue replaced: the reference pop order.
using ReferenceHeap =
    std::priority_queue<DueQueue::Entry, std::vector<DueQueue::Entry>,
                        std::greater<>>;

/// `rows` periods drawn from `distinct` values.
std::vector<Cycles> DrawPeriods(std::size_t rows, std::size_t distinct,
                                Rng& rng) {
  std::vector<Cycles> values(distinct);
  for (Cycles& value : values) {
    value = 1000 + rng.UniformInt(4000);
  }
  std::vector<Cycles> periods(rows);
  for (Cycles& period : periods) {
    period = values[rng.UniformInt(distinct)];
  }
  return periods;
}

struct PopSequences {
  std::vector<DueQueue::Entry> queue;
  std::vector<DueQueue::Entry> reference;
};

/// Drives a DueQueue and the reference heap with the same seeded schedule,
/// the way ProposingPolicy drives its queue: staggered first deadlines,
/// then per tick every due row popped (at most `cap` when non-zero; the
/// rest stay due for the next tick).  A popped row is mostly re-armed at
/// due + period, but one in ten is granted late (re-armed some ticks later,
/// behind rows of its period re-armed meanwhile) and one in ten skips to a
/// random later cycle (VRL-Skip): both are out-of-order pushes.
PopSequences DriveBoth(std::size_t rows, std::size_t distinct,
                       std::size_t cap, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Cycles> periods = DrawPeriods(rows, distinct, rng);
  DueQueue queue(periods);
  ReferenceHeap heap;
  const auto push = [&](Cycles due, std::size_t row) {
    queue.push(due, row);
    heap.emplace(due, row);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    push(periods[r] * r / rows, r);
  }
  PopSequences pops;
  const auto pop_both = [&] {
    pops.queue.push_back(queue.top());
    pops.reference.push_back(heap.top());
    queue.pop();
    heap.pop();
  };
  std::vector<DueQueue::Entry> late;  // granted, re-arm still pending
  for (Cycles now = 0; now < 60'000; now += 100) {
    for (std::size_t i = 0; i < late.size();) {
      if (rng.UniformInt(2) == 0) {
        push(late[i].first + periods[late[i].second], late[i].second);
        late.erase(late.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    std::size_t popped = 0;
    while (!heap.empty() && heap.top().first <= now &&
           (cap == 0 || popped < cap)) {
      if (queue.empty()) {
        ADD_FAILURE() << "queue ran dry before the reference heap";
        return pops;
      }
      pop_both();
      ++popped;
      const auto [due, row] = pops.reference.back();
      switch (rng.UniformInt(10)) {
        case 0:
          late.emplace_back(due, row);
          break;
        case 1:
          push(now + 1 + rng.UniformInt(periods[row]), row);
          break;
        default:
          push(due + periods[row], row);
      }
    }
    EXPECT_EQ(queue.size(), heap.size());
  }
  while (!heap.empty() && !queue.empty()) {
    pop_both();
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(heap.empty());
  return pops;
}

TEST(DueQueue, PopsExactlyWhatTheHeapPops) {
  // 1 period (JEDEC/DARP/SARP), 4 (RAIDR/VRL bins), 8 (every FIFO in
  // use) and more than 8 (rows of the extra periods live in the heap).
  for (const std::size_t distinct : {1u, 4u, 8u, 13u, 64u}) {
    for (const std::size_t cap : {0u, 1u, 3u}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("distinct=" + std::to_string(distinct) +
                     " cap=" + std::to_string(cap) +
                     " seed=" + std::to_string(seed));
        const PopSequences pops = DriveBoth(64, distinct, cap, seed);
        EXPECT_GT(pops.reference.size(), 500u);
        EXPECT_EQ(pops.queue, pops.reference);
      }
    }
  }
}

TEST(DueQueue, FillPopsWhatPushesPop) {
  // The staggered first deadlines ProposingPolicy fills in, and random
  // first deadlines that break every FIFO's order, over periods sorted
  // into runs and interleaved, with up to and past kMaxLanes periods.
  for (const std::size_t distinct : {1u, 4u, 8u, 13u, 64u}) {
    for (const bool runs : {false, true}) {
      for (const bool staggered : {true, false}) {
        SCOPED_TRACE("distinct=" + std::to_string(distinct) +
                     " runs=" + std::to_string(runs) +
                     " staggered=" + std::to_string(staggered));
        Rng rng(distinct * 4 + (runs ? 2 : 0) + (staggered ? 1 : 0));
        const std::size_t rows = 200;
        std::vector<Cycles> periods = DrawPeriods(rows, distinct, rng);
        if (runs) {
          std::sort(periods.begin(), periods.end());
        }
        std::vector<Cycles> first(rows);
        for (std::size_t r = 0; r < rows; ++r) {
          first[r] = staggered ? periods[r] * r / rows : rng.UniformInt(5000);
        }
        DueQueue filled(periods);
        filled.Fill([&](std::size_t r) { return first[r]; });
        DueQueue pushed(periods);
        for (std::size_t r = 0; r < rows; ++r) {
          pushed.push(first[r], r);
        }
        ASSERT_EQ(filled.size(), rows);
        // Pop and re-arm one period later (one in eight at a random later
        // cycle) for a few rounds of every row.
        std::vector<DueQueue::Entry> got;
        std::vector<DueQueue::Entry> want;
        for (std::size_t step = 0; step < 5 * rows; ++step) {
          got.push_back(filled.top());
          want.push_back(pushed.top());
          filled.pop();
          pushed.pop();
          const auto [due, row] = want.back();
          const Cycles next = rng.UniformInt(8) == 0
                                  ? due + 1 + rng.UniformInt(periods[row])
                                  : due + periods[row];
          filled.push(next, row);
          pushed.push(next, row);
        }
        EXPECT_EQ(got, want);
        EXPECT_TRUE(std::is_sorted(want.begin(), want.end()));
      }
    }
  }
}

TEST(DueQueue, FillAfterDrainingAndOnlyWhenEmpty) {
  // A drained queue's FIFOs sit mid-ring; Fill starts them over.
  const std::vector<Cycles> periods(16, 1000);
  const auto stagger = [&](std::size_t r) { return periods[r] * r / 16; };
  DueQueue drained(periods);
  for (std::size_t r = 0; r < 11; ++r) {
    drained.push(r, r);
  }
  EXPECT_THROW(drained.Fill(stagger), ConfigError);
  while (!drained.empty()) {
    drained.pop();
  }
  drained.Fill(stagger);
  DueQueue fresh(periods);
  fresh.Fill(stagger);
  for (int step = 0; step < 64; ++step) {
    ASSERT_EQ(drained.top(), fresh.top());
    const auto [due, row] = fresh.top();
    drained.pop();
    fresh.pop();
    drained.push(due + periods[row], row);
    fresh.push(due + periods[row], row);
  }
}

TEST(DueQueue, ArbitraryPushesAndPops) {
  // Unstructured traffic: pushes at random cycles (duplicates included)
  // interleaved with random pops.
  Rng rng(11);
  const std::vector<Cycles> periods = DrawPeriods(32, 12, rng);
  DueQueue queue(periods);
  ReferenceHeap heap;
  std::vector<DueQueue::Entry> got;
  std::vector<DueQueue::Entry> want;
  for (int step = 0; step < 20'000; ++step) {
    if (heap.empty() || rng.UniformInt(5) < 3) {
      const Cycles due = rng.UniformInt(500);
      const auto row = static_cast<std::size_t>(rng.UniformInt(32));
      queue.push(due, row);
      heap.emplace(due, row);
    } else {
      ASSERT_FALSE(queue.empty());
      got.push_back(queue.top());
      want.push_back(heap.top());
      queue.pop();
      heap.pop();
    }
  }
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// MemoryController
// ---------------------------------------------------------------------------

PolicyFactory JedecFactory(std::size_t rows, Cycles window, Cycles trfc) {
  return [=]() {
    return std::make_unique<FullLatencyPolicy>(Jedec(rows, window, trfc));
  };
}

TEST(Controller, RefreshOverheadMatchesHandCount) {
  const TimingParams t = FastTiming();
  const std::size_t rows = 8;
  MemoryController controller(1, rows, t, JedecFactory(rows, t.t_refw, 26));
  const Cycles horizon = 4 * t.t_refw;
  const auto stats = controller.Run({}, horizon);
  // Every row refreshed once per window; deadlines staggered from t=0, so
  // windows [0,4) of deadlines fire within the horizon, plus the boundary
  // tick at exactly `horizon`.
  const std::size_t expected = rows * 4;
  EXPECT_NEAR(static_cast<double>(stats.TotalFullRefreshes()),
              static_cast<double>(expected), 8.0);
  EXPECT_EQ(stats.TotalRefreshBusyCycles(), stats.TotalFullRefreshes() * 26);
}

TEST(Controller, ServicesAllRequests) {
  const TimingParams t = FastTiming();
  MemoryController controller(2, 16, t, JedecFactory(16, t.t_refw, 26));
  std::vector<Request> requests;
  for (int i = 0; i < 100; ++i) {
    Request r;
    r.arrival = static_cast<Cycles>(i * 50);
    r.bank = static_cast<std::size_t>(i % 2);
    r.row = static_cast<std::size_t>(i % 16);
    requests.push_back(r);
  }
  const auto stats = controller.Run(requests, 2 * t.t_refw);
  EXPECT_EQ(stats.TotalReads() + stats.TotalWrites(), 100u);
  EXPECT_GT(stats.AverageRequestLatency(), 0.0);
}

TEST(Controller, RejectsUnsortedRequests) {
  const TimingParams t = FastTiming();
  MemoryController controller(1, 16, t, JedecFactory(16, t.t_refw, 26));
  std::vector<Request> requests(2);
  requests[0].arrival = 100;
  requests[1].arrival = 50;
  EXPECT_THROW(controller.Run(requests, 1000), ConfigError);
}

TEST(Controller, RejectsOutOfRangeBank) {
  const TimingParams t = FastTiming();
  MemoryController controller(1, 16, t, JedecFactory(16, t.t_refw, 26));
  std::vector<Request> requests(1);
  requests[0].bank = 5;
  EXPECT_THROW(controller.Run(requests, 1000), ConfigError);
}

/// The ConfigError message of a rejected Run ("" when it ran).
std::string RunError(MemoryController& controller,
                     const std::vector<Request>& requests) {
  try {
    controller.Run(requests, 10'000);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(Controller, RejectsMalformedStreamsBeforeServingAny) {
  const TimingParams t = FastTiming();
  // Ten well-formed requests, then one malformed one.
  const auto stream = [](const Request& bad) {
    std::vector<Request> requests(10);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].arrival = 100 * i;
      requests[i].bank = i % 2;
      requests[i].row = i;
    }
    requests.push_back(bad);
    return requests;
  };
  Request unsorted;
  unsorted.arrival = 50;
  Request bad_bank;
  bad_bank.arrival = 2000;
  bad_bank.bank = 2;
  Request bad_row;
  bad_row.arrival = 2000;
  bad_row.row = 16;
  const std::pair<Request, std::string> cases[] = {
      {unsorted, "MemoryController::Run: requests must be arrival-sorted"},
      {bad_bank, "MemoryController::Run: request bank out of range"},
      {bad_row, "Bank: request row out of range"},
  };
  for (const auto& [bad, message] : cases) {
    MemoryController controller(2, 16, t, JedecFactory(16, t.t_refw, 26));
    EXPECT_EQ(RunError(controller, stream(bad)), message);
    // Nothing was served: the streams are checked before the run starts.
    const SimulationStats after = controller.Run({}, 0);
    EXPECT_EQ(after.TotalReads() + after.TotalWrites(), 0u) << message;
  }
}

/// The ConfigError message of splitting `requests` for 2 banks of 16 rows
/// ("" when it split).
std::string SplitError(const std::vector<Request>& requests) {
  try {
    const RequestStreams streams(requests, 2, 16);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(RequestStreams, RejectsUnsortedBadBankAndBadRowInThatPrecedence) {
  const auto request = [](Cycles arrival, std::size_t bank, std::size_t row) {
    Request r;
    r.arrival = arrival;
    r.bank = bank;
    r.row = row;
    return r;
  };
  const std::string unsorted =
      "MemoryController::Run: requests must be arrival-sorted";
  const std::string bad_bank =
      "MemoryController::Run: request bank out of range";
  const std::string bad_row = "Bank: request row out of range";
  EXPECT_EQ(SplitError({request(5, 0, 0), request(4, 1, 1)}), unsorted);
  EXPECT_EQ(SplitError({request(5, 2, 0), request(6, 0, 1)}), bad_bank);
  EXPECT_EQ(SplitError({request(5, 0, 16), request(6, 1, 1)}), bad_row);
  // An unsorted pair anywhere outranks an earlier bad bank or row, and a
  // bad bank anywhere outranks an earlier bad row.
  EXPECT_EQ(SplitError({request(1, 2, 16), request(5, 0, 0),
                        request(4, 0, 0)}),
            unsorted);
  EXPECT_EQ(SplitError({request(1, 0, 16), request(2, 7, 0)}), bad_bank);
  EXPECT_EQ(SplitError({request(1, 0, 15), request(1, 1, 0)}), "");
}

TEST(RequestStreams, SplitsPerBankInArrivalOrder) {
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 9; ++i) {
    Request r;
    r.arrival = 10 * i;
    r.bank = (i * 2) % 3;
    r.row = i;
    r.type = i % 2 == 0 ? RequestType::kRead : RequestType::kWrite;
    requests.push_back(r);
  }
  const RequestStreams streams(requests, 4, 16);
  ASSERT_EQ(streams.banks(), 4u);
  EXPECT_EQ(streams.rows(), 16u);
  EXPECT_EQ(streams.size(), requests.size());
  std::size_t total = 0;
  for (std::size_t b = 0; b < streams.banks(); ++b) {
    std::vector<Request> want;
    for (const Request& r : requests) {
      if (r.bank == b) {
        want.push_back(r);
      }
    }
    const auto stream = streams.stream(b);
    EXPECT_EQ(streams.offset(b), total);
    ASSERT_EQ(stream.size(), want.size()) << "bank " << b;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(stream.arrival(i), want[i].arrival);
      EXPECT_EQ(stream[i].row(), want[i].row);
      EXPECT_EQ(stream[i].write(), want[i].type == RequestType::kWrite);
    }
    total += stream.size();
  }
  EXPECT_EQ(streams.offset(streams.banks()), streams.size());
  EXPECT_TRUE(streams.stream(3).empty());
}

/// A request as a test appends it to one bank's stream.
struct Appended {
  Cycles arrival = 0;
  std::size_t row = 0;
  bool write = false;
};

/// The streams a builder over `rows` rows gets from appending `streams`,
/// one bank after another.
RequestStreams Build(const std::vector<std::vector<Appended>>& streams,
                     std::size_t rows = 16) {
  RequestStreamBuilder builder(streams.size(), rows);
  for (std::size_t b = 0; b < streams.size(); ++b) {
    for (const Appended& a : streams[b]) {
      builder.Append(b, a.arrival, a.row, a.write);
    }
  }
  return RequestStreams(std::move(builder));
}

/// The ConfigError message of building `streams` over 16 rows ("" when it
/// built them).
std::string TakeError(const std::vector<std::vector<Appended>>& streams) {
  try {
    Build(streams);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(RequestStreams, TakesPerBankStreamsCheckedWithTheSameMessages) {
  const std::string unsorted =
      "MemoryController::Run: requests must be arrival-sorted";
  const std::string bad_bank =
      "MemoryController::Run: request bank out of range";
  const std::string bad_row = "Bank: request row out of range";
  EXPECT_EQ(TakeError({{{5, 0, false}, {4, 1, false}}, {}}), unsorted);
  EXPECT_EQ(TakeError({{{5, 16, false}}, {{6, 1, false}}}), bad_row);
  // An unsorted stream anywhere outranks an earlier bad row; each stream
  // is sorted on its own, not against the others.
  EXPECT_EQ(TakeError({{{1, 16, false}}, {{5, 0, false}, {4, 0, false}}}),
            unsorted);
  EXPECT_EQ(TakeError({{{9, 15, false}}, {{1, 0, true}}}), "");
  // A bad bank outranks an earlier bad row, and an unsorted stream a
  // bad bank.
  const auto append_error = [](bool unsorted_after) {
    RequestStreamBuilder builder(2, 16);
    try {
      builder.Append(0, 5, 16, false);
      builder.Append(2, 6, 0, false);
      if (unsorted_after) {
        builder.Append(1, 7, 0, false);
        builder.Append(1, 3, 0, false);
      }
      const RequestStreams streams(std::move(builder));
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(append_error(false), bad_bank);
  EXPECT_EQ(append_error(true), unsorted);

  const RequestStreams streams =
      Build({{{1, 3, false}, {4, 5, true}}, {}, {{2, 7, true}}});
  ASSERT_EQ(streams.banks(), 3u);
  EXPECT_EQ(streams.rows(), 16u);
  EXPECT_EQ(streams.size(), 3u);
  EXPECT_EQ(streams.offset(1), 2u);
  EXPECT_EQ(streams.offset(2), 2u);
  EXPECT_EQ(streams.offset(3), 3u);
  EXPECT_TRUE(streams.stream(1).empty());
  ASSERT_EQ(streams.stream(2).size(), 1u);
  EXPECT_EQ(streams.stream(2).arrival(0), 2u);
  EXPECT_EQ(streams.stream(2)[0].row(), 7u);
  EXPECT_TRUE(streams.stream(2)[0].write());
}

TEST(RequestSlot, IsEightBytesAndRoundTripsItsFieldLimits) {
  static_assert(sizeof(RequestSlot) == 8);
  constexpr std::uint32_t kTopRow = (std::uint32_t{1} << 31) - 1;
  EXPECT_EQ(RequestSlot::kMaxRows, kTopRow);
  for (const std::uint32_t row : {std::uint32_t{0}, std::uint32_t{1},
                                  kTopRow - 1, kTopRow}) {
    for (const bool write : {false, true}) {
      for (const std::uint32_t low :
           {std::uint32_t{0}, std::numeric_limits<std::uint32_t>::max()}) {
        const RequestSlot slot(low, row, write);
        EXPECT_EQ(slot.arrival_low(), low);
        EXPECT_EQ(slot.row(), row);
        EXPECT_EQ(slot.write(), write);
      }
    }
  }
}

TEST(RequestStreams, ArrivalsStraddling2To32And2To33DecodeExactly) {
  constexpr Cycles k32 = Cycles{1} << 32;
  constexpr Cycles k33 = Cycles{1} << 33;
  // Bank 0 crosses both boundaries, bank 1 starts above 2^32, bank 2
  // jumps from below 2^32 to above 2^33 in one step, bank 3 stays low.
  const std::vector<std::vector<Cycles>> arrivals = {
      {0, k32 - 1, k32, k32, k32 + 1, k33 - 1, k33, k33 + 5, 3 * k32},
      {k32 + 7, k32 + 7, k33 - 2},
      {k32 - 2, k33 + 1, k33 + 1, ~Cycles{0}},
      {0, 1, k32 - 1}};
  std::vector<std::vector<Appended>> appended(arrivals.size());
  std::vector<Request> requests;
  for (std::size_t b = 0; b < arrivals.size(); ++b) {
    for (std::size_t i = 0; i < arrivals[b].size(); ++i) {
      appended[b].push_back({arrivals[b][i], i % 16, i % 2 == 1});
      Request r;
      r.arrival = arrivals[b][i];
      r.bank = b;
      r.row = i % 16;
      r.type = i % 2 == 1 ? RequestType::kWrite : RequestType::kRead;
      requests.push_back(r);
    }
  }
  std::stable_sort(requests.begin(), requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival < b.arrival;
                   });
  const RequestStreams built = Build(appended);
  const RequestStreams split(requests, arrivals.size(), 16);
  for (const RequestStreams* streams : {&built, &split}) {
    ASSERT_EQ(streams->banks(), arrivals.size());
    for (std::size_t b = 0; b < arrivals.size(); ++b) {
      const BankStream stream = streams->stream(b);
      ASSERT_EQ(stream.size(), arrivals[b].size()) << "bank " << b;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(stream.arrival(i), arrivals[b][i])
            << "bank " << b << " slot " << i;
        EXPECT_EQ(stream[i].row(), i % 16);
        EXPECT_EQ(stream[i].write(), i % 2 == 1);
      }
    }
  }
}

TEST(RequestStreams, RowsUpToTheSlotRowFieldRoundTrip) {
  constexpr std::size_t kMaxRows = RequestSlot::kMaxRows;
  const RequestStreams streams =
      Build({{{0, 0, false}, {1, kMaxRows - 1, true}}}, kMaxRows);
  EXPECT_EQ(streams.rows(), kMaxRows);
  EXPECT_EQ(streams.stream(0)[0].row(), 0u);
  EXPECT_FALSE(streams.stream(0)[0].write());
  EXPECT_EQ(streams.stream(0)[1].row(), kMaxRows - 1);
  EXPECT_TRUE(streams.stream(0)[1].write());
  try {
    const RequestStreams rejected(std::vector<Request>{}, 1, kMaxRows + 1);
    ADD_FAILURE() << "accepted " << kMaxRows + 1 << " rows";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "RequestStreams: 2147483648 rows per bank exceed a request "
              "slot's 31-bit row field");
  }
  EXPECT_THROW(RequestStreamBuilder(1, kMaxRows + 1), ConfigError);
}

TEST(Controller, RunStreamsRejectsStreamsSplitForAnotherGeometry) {
  const TimingParams t = FastTiming();
  MemoryController controller(2, 16, t, JedecFactory(16, t.t_refw, 26));
  const std::vector<Request> none;
  EXPECT_THROW(controller.RunStreams(RequestStreams(none, 3, 16), 1000),
               ConfigError);
  EXPECT_THROW(controller.RunStreams(RequestStreams(none, 2, 17), 1000),
               ConfigError);
  // Streams checked against fewer rows are in range for this bank too.
  EXPECT_NO_THROW(controller.RunStreams(RequestStreams(none, 2, 8), 1000));
}

TEST(Controller, RunStreamsSharesOneSplitAcrossRunsAndSchedulers) {
  const TimingParams t = FastTiming();
  std::vector<Request> requests;
  Rng rng(11);
  Cycles at = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    at += 1 + rng.UniformInt(40);
    Request r;
    r.arrival = at;
    r.bank = rng.UniformInt(2);
    r.row = rng.UniformInt(4);  // few rows: FR-FCFS finds row hits
    r.type = rng.Bernoulli(0.3) ? RequestType::kWrite : RequestType::kRead;
    requests.push_back(r);
  }
  const RequestStreams streams(requests, 2, 16);
  for (const SchedulerKind kind :
       {SchedulerKind::kFcfs, SchedulerKind::kFrFcfs}) {
    MemoryController split(2, 16, t, JedecFactory(16, t.t_refw, 26), kind);
    MemoryController whole(2, 16, t, JedecFactory(16, t.t_refw, 26), kind);
    const SimulationStats a = split.RunStreams(streams, 20'000);
    const SimulationStats b = whole.Run(requests, 20'000);
    EXPECT_EQ(a.TotalReads() + a.TotalWrites(), requests.size());
    EXPECT_EQ(a.TotalRowHits(), b.TotalRowHits());
    EXPECT_EQ(a.TotalActivations(), b.TotalActivations());
    EXPECT_EQ(a.AverageRequestLatency(), b.AverageRequestLatency());
    EXPECT_EQ(a.TotalRefreshBusyCycles(), b.TotalRefreshBusyCycles());
    EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
  }
}

TEST(Controller, RejectsRowsBeyondTheSlotRowField) {
  const TimingParams t = FastTiming();
  const PolicyFactory unused = []() -> std::unique_ptr<RefreshPolicy> {
    ADD_FAILURE() << "factory called for a rejected row count";
    return nullptr;
  };
  for (const std::size_t rows :
       {RequestSlot::kMaxRows + 1,
        std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1}) {
    try {
      MemoryController controller(1, rows, t, unused);
      ADD_FAILURE() << "accepted " << rows << " rows";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()),
                "MemoryController: " + std::to_string(rows) +
                    " rows per bank exceed a request slot's 31-bit row "
                    "field");
    }
  }
}

TEST(Controller, ArrivalsAbove2To32RunAlikeFromRequestsAndABuilder) {
  // Few ticks over a horizon past 2^33: a refresh every 2^20 cycles.
  TimingParams t;
  t.t_refi = Cycles{1} << 20;
  t.t_refw = Cycles{1} << 26;
  constexpr Cycles k32 = Cycles{1} << 32;
  constexpr Cycles k33 = Cycles{1} << 33;
  std::vector<Request> requests;
  std::vector<std::vector<Appended>> appended(2);
  Rng rng(13);
  Cycles at = k32 + 123;
  for (std::size_t i = 0; i < 400; ++i) {
    // The middle of the run jumps to just below 2^33, so the streams cross
    // it too.
    at = i == 200 ? k33 - 3000 : at + 1 + rng.UniformInt(40);
    Request r;
    r.arrival = at;
    r.bank = rng.UniformInt(2);
    r.row = rng.UniformInt(4);
    r.type = rng.Bernoulli(0.3) ? RequestType::kWrite : RequestType::kRead;
    requests.push_back(r);
    appended[r.bank].push_back(
        {r.arrival, r.row, r.type == RequestType::kWrite});
  }
  const Cycles horizon = k33 + t.t_refw;
  const RequestStreams built = Build(appended);
  for (const SchedulerKind kind :
       {SchedulerKind::kFcfs, SchedulerKind::kFrFcfs}) {
    MemoryController from_requests(2, 16, t, JedecFactory(16, t.t_refw, 26),
                                   kind);
    MemoryController from_builder(2, 16, t, JedecFactory(16, t.t_refw, 26),
                                  kind);
    const SimulationStats a = from_requests.Run(requests, horizon);
    const SimulationStats b = from_builder.RunStreams(built, horizon);
    EXPECT_EQ(a.TotalReads() + a.TotalWrites(), requests.size());
    EXPECT_EQ(a.TotalRowHits(), b.TotalRowHits());
    EXPECT_EQ(a.TotalActivations(), b.TotalActivations());
    EXPECT_EQ(a.AverageRequestLatency(), b.AverageRequestLatency());
    EXPECT_EQ(a.TotalRefreshBusyCycles(), b.TotalRefreshBusyCycles());
    EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
    // A request served against a misdecoded arrival would wait, or have
    // waited, about 2^32 cycles.
    EXPECT_GT(a.AverageRequestLatency(), 0.0);
    EXPECT_LT(a.AverageRequestLatency(), 1e6);
    EXPECT_EQ(a.simulated_cycles, horizon);
  }
}

TEST(Controller, RejectsBadFactory) {
  const TimingParams t = FastTiming();
  EXPECT_THROW(MemoryController(1, 16, t, []() {
                 return std::unique_ptr<RefreshPolicy>{};
               }),
               ConfigError);
  // Policy row count must match the bank.
  EXPECT_THROW(MemoryController(1, 16, t, JedecFactory(8, t.t_refw, 26)),
               ConfigError);
}

TEST(ControllerStats, AggregatesAcrossBanks) {
  SimulationStats stats;
  stats.per_bank.resize(2);
  stats.per_bank[0].full_refreshes = 3;
  stats.per_bank[0].refresh_busy_cycles = 78;
  stats.per_bank[1].partial_refreshes = 2;
  stats.per_bank[1].refresh_busy_cycles = 30;
  EXPECT_EQ(stats.TotalFullRefreshes(), 3u);
  EXPECT_EQ(stats.TotalPartialRefreshes(), 2u);
  EXPECT_EQ(stats.TotalRefreshBusyCycles(), 108u);
  EXPECT_DOUBLE_EQ(stats.RefreshOverheadPerBank(), 54.0);
}

}  // namespace
}  // namespace vrl::dram
