// Reproducibility harness for the deterministic parallel executor
// (common/parallel.hpp) and the fan-outs built on it.
//
// Three layers:
//  1. Property tests of the executor itself: coverage, completion-order
//     independence, exception propagation without deadlock, nested use,
//     thread-count resolution, TaskSeed purity.
//  2. Determinism regressions: RunSweep and the fault-campaign legs must be
//     bit-identical at 1, 2 and 8 threads (the docs/PARALLEL.md contract —
//     exact ==, no tolerances).
//  3. Pinned shared-state fixes: the resilience legs each own their options
//     and schedule (they used to mutate one shared options struct between
//     legs, an ordering dependency that would race once legs overlap).

#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/experiments.hpp"
#include "core/sweep.hpp"
#include "runtime/resilient.hpp"

namespace vrl {
namespace {

// ---------------------------------------------------------------------------
// 1. Executor properties
// ---------------------------------------------------------------------------

TEST(ParallelFor, ZeroItemsCompletesWithoutCallingBody) {
  std::atomic<int> calls{0};
  ParallelFor(0, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, OneItemRunsInline) {
  std::atomic<int> calls{0};
  ParallelFor(
      1,
      [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        // A single item never leaves the calling thread.
        EXPECT_FALSE(InParallelRegion());
        ++calls;
      },
      4);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnceWithItemsFarExceedingThreads) {
  constexpr std::size_t kItems = 5000;
  std::vector<int> hits(kItems, 0);  // Disjoint slots: no synchronization.
  std::atomic<std::size_t> calls{0};
  ParallelFor(
      kItems,
      [&](std::size_t i) {
        ++hits[i];
        calls.fetch_add(1, std::memory_order_relaxed);
      },
      4);
  EXPECT_EQ(calls.load(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelFor, ResultsIndependentOfCompletionOrder) {
  // Early indices sleep longest, so with one thread per item the completion
  // order is roughly the reverse of the index order; index-slot collection
  // must not care.
  constexpr std::size_t kItems = 8;
  std::vector<std::size_t> slots(kItems, 0);
  ParallelFor(
      kItems,
      [&](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2 * (kItems - i)));
        slots[i] = i * i + 1;
      },
      kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(slots[i], i * i + 1);
  }
}

TEST(ParallelFor, ExceptionPropagatesAndDoesNotDeadlock) {
  std::atomic<std::size_t> calls{0};
  EXPECT_THROW(
      ParallelFor(
          100,
          [&](std::size_t i) {
            calls.fetch_add(1, std::memory_order_relaxed);
            if (i == 7) {
              throw std::runtime_error("item 7 failed");
            }
          },
          4),
      std::runtime_error);
  // The failing fan-out aborts early: not every item needs to have run,
  // but the throwing one did.
  EXPECT_GE(calls.load(), 8u);
  EXPECT_LE(calls.load(), 100u);
}

TEST(ParallelFor, SerialFallbackPropagatesExceptionsToo) {
  EXPECT_THROW(ParallelFor(
                   3,
                   [](std::size_t i) {
                     if (i == 1) {
                       throw std::runtime_error("serial item failed");
                     }
                   },
                   1),
               std::runtime_error);
}

TEST(ParallelFor, NestedUseIsSafeAndRunsInline) {
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 8;
  std::vector<std::vector<int>> matrix(kOuter, std::vector<int>(kInner, 0));
  std::atomic<int> nested_inline{0};
  ParallelFor(
      kOuter,
      [&](std::size_t o) {
        EXPECT_TRUE(InParallelRegion());
        ParallelFor(
            kInner,
            [&](std::size_t i) {
              matrix[o][i] = static_cast<int>(o * kInner + i);
              nested_inline.fetch_add(1, std::memory_order_relaxed);
            },
            kInner);
      },
      kOuter);
  EXPECT_FALSE(InParallelRegion());
  EXPECT_EQ(nested_inline.load(), static_cast<int>(kOuter * kInner));
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t i = 0; i < kInner; ++i) {
      EXPECT_EQ(matrix[o][i], static_cast<int>(o * kInner + i));
    }
  }
}

TEST(ParallelMap, CollectsIntoIndexSlots) {
  const auto squares =
      ParallelMap(10, [](std::size_t i) { return i * i; }, 3);
  ASSERT_EQ(squares.size(), 10u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ThreadPool, WaitRethrowsFirstTaskErrorAndPoolStaysUsable) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([&] { ++ran; });
  pool.Submit([] { throw std::runtime_error("task failed"); });
  pool.Submit([&] { ++ran; });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The error is consumed; the pool accepts and runs further work.
  pool.Submit([&] { ++ran; });
  EXPECT_NO_THROW(pool.Wait());
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadCount, ScopedOverrideWinsAndRestores) {
  SetThreadCountOverride(0);
  {
    const ScopedThreadCount outer(3);
    EXPECT_EQ(DefaultThreadCount(), 3u);
    {
      const ScopedThreadCount inner(5);
      EXPECT_EQ(DefaultThreadCount(), 5u);
    }
    EXPECT_EQ(DefaultThreadCount(), 3u);
  }
  EXPECT_GE(DefaultThreadCount(), 1u);
}

TEST(ThreadCount, VrlThreadsEnvironmentVariableIsParsed) {
  SetThreadCountOverride(0);
  ::unsetenv("VRL_THREADS");
  const std::size_t hardware = DefaultThreadCount();
  ::setenv("VRL_THREADS", "7", 1);
  EXPECT_EQ(DefaultThreadCount(), 7u);
  // Malformed or zero: the hardware fallback ("-1" must not wrap to
  // 2^64 - 1 threads).  Only DefaultThreadCount is read; no fan-out starts.
  for (const char* value : {"not-a-number", "0", "-1", " 7", "7x", ""}) {
    ::setenv("VRL_THREADS", value, 1);
    EXPECT_EQ(DefaultThreadCount(), hardware) << "'" << value << "'";
  }
  ::unsetenv("VRL_THREADS");
  const ScopedThreadCount override_beats_env(2);
  ::setenv("VRL_THREADS", "9", 1);
  EXPECT_EQ(DefaultThreadCount(), 2u);
  ::unsetenv("VRL_THREADS");
}

TEST(TaskSeedTest, PureDistinctAndIndependentStreams) {
  EXPECT_EQ(TaskSeed(42, 17), TaskSeed(42, 17));  // Pure function.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(TaskSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // No collisions across indices.
  EXPECT_NE(TaskSeed(1, 0), TaskSeed(2, 0));  // Base seed matters.
  // Adjacent indices give unrelated Rng streams.
  Rng a(TaskSeed(42, 0));
  Rng b(TaskSeed(42, 1));
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a() == b()) ? 1 : 0;
  }
  EXPECT_EQ(equal, 0);
}

// ---------------------------------------------------------------------------
// 2. Determinism regressions (the ctest acceptance targets)
// ---------------------------------------------------------------------------

void ExpectSweepBitIdentical(const std::vector<core::SweepResult>& a,
                             const std::vector<core::SweepResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Exact comparison on purpose: the contract is bit-identity, not
    // closeness.
    EXPECT_EQ(a[i].vrl_normalized, b[i].vrl_normalized) << i;
    EXPECT_EQ(a[i].vrl_access_normalized, b[i].vrl_access_normalized) << i;
    EXPECT_EQ(a[i].logic_area_um2, b[i].logic_area_um2) << i;
    EXPECT_EQ(a[i].area_fraction, b[i].area_fraction) << i;
    EXPECT_EQ(a[i].mean_mprsf, b[i].mean_mprsf) << i;
    EXPECT_EQ(a[i].clamped_rows, b[i].clamped_rows) << i;
  }
}

TEST(Determinism, RunSweepBitIdenticalAtOneTwoAndEightThreads) {
  core::VrlConfig base;
  base.banks = 1;
  std::vector<core::SweepPoint> points(3);
  points[1].nbits = 1;
  points[2].retention_guardband = 1.3;
  const auto workload = trace::SuiteWorkload("swaptions");

  std::vector<std::vector<core::SweepResult>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ScopedThreadCount scoped(threads);
    runs.push_back(runtime::RunSweep(base, points, workload, 1));
  }
  ExpectSweepBitIdentical(runs[0], runs[1]);
  ExpectSweepBitIdentical(runs[0], runs[2]);
}

void ExpectReportBitIdentical(const fault::CampaignReport& a,
                              const fault::CampaignReport& b) {
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.partial_refreshes, b.partial_refreshes);
  EXPECT_EQ(a.detected_failures, b.detected_failures);
  EXPECT_EQ(a.corrected_failures, b.corrected_failures);
  EXPECT_EQ(a.unrecovered_failures, b.unrecovered_failures);
  EXPECT_EQ(a.min_margin, b.min_margin);  // Exact, not approximate.
  EXPECT_EQ(a.refresh_busy_cycles, b.refresh_busy_cycles);
  EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].row, b.events[i].row);
    EXPECT_EQ(a.events[i].at_cycle, b.events[i].at_cycle);
    EXPECT_EQ(a.events[i].margin, b.events[i].margin);
    EXPECT_EQ(a.events[i].corrected, b.events[i].corrected);
  }
  EXPECT_EQ(a.adaptive.demotions, b.adaptive.demotions);
  EXPECT_EQ(a.adaptive.promotions, b.adaptive.promotions);
  EXPECT_EQ(a.adaptive.failures_signalled, b.adaptive.failures_signalled);
}

TEST(Determinism, FaultCampaignLegsBitIdenticalAtOneTwoAndEightThreads) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  const retention::VrtParams vrt;

  core::ExperimentOptions options;
  options.windows = 4;
  options.fault_seed = 0xFA11ULL;
  std::vector<core::ResilienceResult> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ScopedThreadCount scoped(threads);
    runs.push_back(
        core::RunResilienceComparison(system, "VRL", vrt, options));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ExpectReportBitIdentical(runs[0].jedec, runs[r].jedec);
    ExpectReportBitIdentical(runs[0].plain, runs[r].plain);
    ExpectReportBitIdentical(runs[0].adaptive, runs[r].adaptive);
  }
}

// ---------------------------------------------------------------------------
// 3. Pinned shared-state fixes
// ---------------------------------------------------------------------------

// The resilience legs must behave as if each were the only leg: identical
// to running the three campaigns by hand with per-leg schedules and
// options.  Before the parallel conversion the legs shared one mutable
// FaultCampaignOptions struct (adaptive toggled between runs), so leg
// results depended on execution order.
TEST(SharedState, ResilienceLegsMatchIndependentlyBuiltCampaigns) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  const retention::VrtParams vrt;
  constexpr std::size_t kWindows = 4;
  constexpr std::uint64_t kSeed = 77;

  const ScopedThreadCount scoped(8);
  core::ExperimentOptions experiment;
  experiment.windows = kWindows;
  experiment.fault_seed = kSeed;
  const auto comparison =
      core::RunResilienceComparison(system, "VRL", vrt, experiment);

  const auto run_leg = [&](const char* policy, bool adaptive) {
    fault::FaultSchedule faults(kSeed);
    faults.Add(std::make_unique<fault::VrtFlipInjector>(vrt));
    core::FaultCampaignOptions options;
    options.windows = kWindows;
    options.adaptive = adaptive;
    return system.RunFaultCampaign(policy, faults, options);
  };
  ExpectReportBitIdentical(comparison.jedec, run_leg("JEDEC", false));
  ExpectReportBitIdentical(comparison.plain, run_leg("VRL", false));
  ExpectReportBitIdentical(comparison.adaptive, run_leg("VRL", true));

  // The non-adaptive legs carry no adaptive state: the shared options
  // struct can no longer leak adaptive=true into them, whatever order the
  // legs completed in.
  EXPECT_EQ(comparison.jedec.adaptive.demotions, 0u);
  EXPECT_EQ(comparison.jedec.adaptive.failures_signalled, 0u);
  EXPECT_EQ(comparison.plain.adaptive.demotions, 0u);
  EXPECT_EQ(comparison.plain.adaptive.failures_signalled, 0u);
  EXPECT_EQ(comparison.plain.corrected_failures, 0u);
}

}  // namespace
}  // namespace vrl
