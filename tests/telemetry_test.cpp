// Tests for the telemetry subsystem (src/telemetry/, docs/TELEMETRY.md).
//
// Three layers:
//  1. Unit semantics pinned by the headers: histogram bucket edges, the
//     lineage ring's merge across wrapped rings, snapshot diff/merge
//     algebra, exporter formatting.
//  2. The determinism contract end to end: the merged telemetry of
//     RunEvaluationSuite and of the fault-campaign comparison must export
//     byte-identically at 1, 2 and 8 threads.
//  3. The API-redesign seam: PolicyFromName inverts PolicyName.

#include "telemetry/recorder.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
#include "retention/vrt.hpp"
#include "telemetry/export.hpp"
#include "telemetry/federation.hpp"
#include "telemetry/trace_export.hpp"

namespace vrl::telemetry {
namespace {

// ---------------------------------------------------------------------------
// 1a. Histogram bucket semantics
// ---------------------------------------------------------------------------

TEST(Histogram, BucketCountIsEdgesPlusOverflow) {
  const Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.counts().size(), 4u);
}

TEST(Histogram, ValueOnEdgeLandsInTheBucketTheEdgeCloses) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(1.0);  // closes bucket 0
  h.Observe(2.0);  // closes bucket 1
  h.Observe(4.0);  // closes bucket 2
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 0u);
}

TEST(Histogram, UnderflowJoinsFirstBucketOverflowGetsItsOwn) {
  Histogram h({1.0, 2.0});
  h.Observe(-100.0);
  h.Observe(0.5);
  h.Observe(1000.0);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 0u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), -100.0 + 0.5 + 1000.0);
}

TEST(Histogram, RejectsEmptyAndNonIncreasingEdges) {
  EXPECT_THROW(Histogram({}), ConfigError);
  EXPECT_THROW(Histogram({1.0, 1.0}), ConfigError);
  EXPECT_THROW(Histogram({2.0, 1.0}), ConfigError);
}

TEST(Histogram, LatencyBucketIndexAgreesWithObserve) {
  // The controller's per-request fast path computes the bucket with a bit
  // scan; it must land every value exactly where Observe would.
  const auto edges = LatencyBucketEdges();
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{15},
        std::uint64_t{16}, std::uint64_t{17}, std::uint64_t{32},
        std::uint64_t{33}, std::uint64_t{1000}, std::uint64_t{65536},
        std::uint64_t{65537}, std::uint64_t{1} << 40}) {
    Histogram reference(edges);
    reference.Observe(static_cast<double>(v));
    const std::size_t expected =
        static_cast<std::size_t>(std::find(reference.counts().begin(),
                                           reference.counts().end(), 1u) -
                                 reference.counts().begin());
    EXPECT_EQ(LatencyBucketIndex(v), expected) << "cycles=" << v;
  }
}

TEST(Histogram, LatencyBucketCountMatchesEdges) {
  // The banks' always-on accumulators are fixed-size arrays dimensioned by
  // this constant; it must track the runtime edge list.
  EXPECT_EQ(kLatencyBucketCount, LatencyBucketEdges().size() + 1);
}

TEST(Histogram, SlackBucketIndexAgreesWithObserve) {
  // The policies' batched op recording computes the slack bucket with a bit
  // scan; it must land every value exactly where Observe would —
  // including the dedicated on-time bucket 0 and values exactly on edges.
  const auto edges = SlackBucketEdges();
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{511},
        std::uint64_t{1023}, std::uint64_t{1024}, std::uint64_t{1025},
        std::uint64_t{4096}, std::uint64_t{4097}, std::uint64_t{100000},
        std::uint64_t{16777216}, std::uint64_t{16777217},
        std::uint64_t{1} << 40}) {
    Histogram reference(edges);
    reference.Observe(static_cast<double>(v));
    const std::size_t expected =
        static_cast<std::size_t>(std::find(reference.counts().begin(),
                                           reference.counts().end(), 1u) -
                                 reference.counts().begin());
    EXPECT_EQ(SlackBucketIndex(v), expected) << "slack=" << v;
  }
}

TEST(MetricsRegistry, HistogramEdgeMismatchThrows) {
  MetricsRegistry registry;
  registry.GetHistogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(registry.GetHistogram("h", {1.0, 2.0}));
  EXPECT_THROW(registry.GetHistogram("h", {1.0, 3.0}), ConfigError);
  EXPECT_THROW(registry.GetCounter("h"), ConfigError);
}

// ---------------------------------------------------------------------------
// 1b. Lineage ring merge (overflow and zero capacity: tests/tracing_test.cpp)
// ---------------------------------------------------------------------------

// Regression pin: Absorb between two *wrapped* rings (both sides past
// capacity, slots rotated) must replay the source's retained window oldest
// first through the destination ring — retained order stays chronological
// and recorded == retained + dropped on the merged side.
TEST(Lineage, AbsorbBetweenWrappedRingsKeepsOrderAndAccounting) {
  Lineage a(4);
  for (std::uint64_t i = 0; i < 8; ++i) {  // wraps twice; next_ back at 0
    a.Add({EventKind::kDemotion, i, i, a.Intern("a"), 0, 0.0});
  }
  Lineage b(3);
  for (std::uint64_t i = 100; i < 107; ++i) {  // wrapped, next_ mid-ring
    b.Add({EventKind::kPromotion, i, i, b.Intern("b"), 0, 0.0});
  }
  a.Absorb(b);
  const auto records = a.Retained();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].cycle, 7u);    // newest survivor of a's own window
  EXPECT_EQ(records[1].cycle, 104u);  // b's retained window, oldest first
  EXPECT_EQ(a.label(records[1].cause), "b");
  EXPECT_EQ(records[2].cycle, 105u);
  EXPECT_EQ(records[3].cycle, 106u);
  EXPECT_EQ(a.recorded(), 15u);
  EXPECT_EQ(a.dropped(), 11u);
  EXPECT_EQ(a.recorded(), a.size() + a.dropped());
}

// ---------------------------------------------------------------------------
// 1c. Snapshot algebra + exporters
// ---------------------------------------------------------------------------

TEST(MetricsSnapshot, DiffInvertsMerge) {
  Recorder before;
  before.counter("c").Add(3);
  before.histogram("h", {1.0, 2.0}).Observe(0.5);
  const auto s0 = before.Snapshot();

  before.counter("c").Add(4);
  before.histogram("h", {1.0, 2.0}).Observe(5.0);
  const auto s1 = before.Snapshot();

  const auto delta = s1.Diff(s0);
  EXPECT_EQ(delta.metrics.at("c").count, 4u);
  EXPECT_EQ(delta.metrics.at("h").count, 1u);

  auto rebuilt = s0;
  rebuilt.MergeFrom(delta);
  EXPECT_EQ(rebuilt, s1);
}

TEST(MetricsSnapshot, GaugeTakesLatestOnMerge) {
  Recorder a;
  a.gauge("g").Set(1.0);
  Recorder b;
  b.gauge("g").Set(2.0);
  auto snapshot = a.Snapshot();
  snapshot.MergeFrom(b.Snapshot());
  EXPECT_DOUBLE_EQ(snapshot.metrics.at("g").value, 2.0);
}

TEST(Export, FormatDoubleRoundTripsAndIsStable) {
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(FormatDouble(1.0 / 3.0) == "" ? 0.0 : 1.0 / 3.0),
            FormatDouble(1.0 / 3.0));
}

// ---------------------------------------------------------------------------
// 2. Determinism across thread counts
// ---------------------------------------------------------------------------

/// Deterministic byte serialization of a recorder: metrics followed by the
/// lineage ring.
std::string ExportBytes(const Recorder& recorder) {
  std::ostringstream os;
  WriteMetricsJsonl(os, recorder.Snapshot());
  WriteLineageJsonl(os, recorder.lineage());
  return os.str();
}

TEST(Determinism, EvaluationSuiteTelemetryIsByteIdenticalAcrossThreads) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);

  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    Recorder sink;
    core::ExperimentOptions options;
    options.windows = 2;
    options.threads = threads;
    options.telemetry = &sink;
    const auto results = core::RunEvaluationSuite(system, options);
    EXPECT_FALSE(results.empty());
    const std::string bytes = ExportBytes(sink);
    EXPECT_GT(sink.Snapshot().metrics.size(), 0u);
    if (threads == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "diverged at " << threads << " threads";
    }
  }
}

TEST(Determinism, FaultCampaignTelemetryIsByteIdenticalAcrossThreads) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  retention::VrtParams vrt;
  vrt.row_fraction = 0.05;

  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    Recorder sink;
    core::ExperimentOptions options;
    options.windows = 4;
    options.threads = threads;
    options.telemetry = &sink;
    const auto result =
        core::RunResilienceComparison(system, core::PolicyKind::kVrl, vrt,
                                      options);
    EXPECT_GT(result.jedec.refresh_busy_cycles, 0u);
    const std::string bytes = ExportBytes(sink);
    const auto snapshot = sink.Snapshot();
    EXPECT_GT(snapshot.metrics.count("campaign.windows"), 0u);
    EXPECT_GT(snapshot.metrics.count("campaign.sense_margin"), 0u);
    if (threads == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "diverged at " << threads << " threads";
    }
  }
}

TEST(Determinism, ShardMergeMatchesSerialRecording) {
  // Recording the same per-task work into shards and merging in index
  // order must equal recording it serially into one recorder.
  Recorder serial;
  ShardedRecorder shards(4);
  for (std::size_t task = 0; task < 4; ++task) {
    for (auto* r : {&serial, &shards.shard(task)}) {
      r->counter("c").Add(task + 1);
      r->histogram("h", {1.0, 8.0})
          .Observe(static_cast<double>(task) * 2.0);
      Lineage& lineage = r->lineage();
      lineage.Add({EventKind::kMprsfReset, task, task,
                   lineage.Intern("task" + std::to_string(task % 2)), 0,
                   0.0});
    }
  }
  Recorder merged;
  shards.MergeInto(merged);
  EXPECT_EQ(ExportBytes(merged), ExportBytes(serial));
}

// ---------------------------------------------------------------------------
// 3. API-redesign seams
// ---------------------------------------------------------------------------

TEST(PolicyFromName, InvertsPolicyNameAndNormalizes) {
  for (const auto kind :
       {core::PolicyKind::kJedec, core::PolicyKind::kRaidr,
        core::PolicyKind::kVrl, core::PolicyKind::kVrlAccess}) {
    EXPECT_EQ(core::PolicyFromName(core::PolicyName(kind)), kind);
  }
  EXPECT_EQ(core::PolicyFromName("vrl_access"), core::PolicyKind::kVrlAccess);
  EXPECT_EQ(core::PolicyFromName("VRLACCESS"), core::PolicyKind::kVrlAccess);
  EXPECT_EQ(core::PolicyFromName("jedec"), core::PolicyKind::kJedec);
  EXPECT_THROW(core::PolicyFromName("ddr5"), ConfigError);
  EXPECT_THROW(core::PolicyFromName(""), ConfigError);
}

TEST(VrlSystemTelemetry, SimulatePopulatesPolicyAndDramMetrics) {
  core::VrlConfig config;
  config.banks = 1;
  core::VrlSystem system(config);
  auto* recorder = system.EnableTelemetry();
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(system.telemetry(), recorder);

  const auto horizon = system.HorizonForWindows(1);
  system.Simulate(core::PolicyKind::kVrl, {}, horizon);
  const auto snapshot = recorder->Snapshot();
  ASSERT_GT(snapshot.metrics.count("policy.full_refreshes"), 0u);
  EXPECT_GT(snapshot.metrics.at("policy.full_refreshes").count, 0u);
  ASSERT_GT(snapshot.metrics.count("policy.partial_refreshes"), 0u);
  EXPECT_GT(snapshot.metrics.at("policy.partial_refreshes").count, 0u);
}

// ---------------------------------------------------------------------------
// Fleet federation (federation.hpp, docs/OBSERVABILITY.md)
// ---------------------------------------------------------------------------

WorkerFrame MakeFrame(std::size_t leg, std::uint64_t seq,
                      std::uint64_t counter_delta,
                      std::uint64_t frames_dropped = 0,
                      std::size_t attempt = 1) {
  WorkerFrame frame;
  frame.leg = leg;
  frame.attempt = attempt;
  frame.seq = seq;
  frame.frames_dropped = frames_dropped;
  frame.events_recorded = seq;
  frame.events = 1;
  Recorder scratch;
  scratch.counter("policy.full_refreshes").Add(counter_delta);
  scratch.gauge("campaign.progress_cycles").Set(static_cast<double>(seq));
  frame.delta = scratch.Snapshot();
  return frame;
}

TEST(FederatedRegistry, MembersKeyedByWorkerAndLeg) {
  FederatedRegistry registry;
  registry.Absorb("0", MakeFrame(0, 1, 10));
  registry.Absorb("0", MakeFrame(0, 2, 5));
  registry.Absorb("1", MakeFrame(1, 1, 7));

  ASSERT_EQ(registry.members().size(), 2u);
  const auto& first = registry.members().at({"0", "leg0"});
  EXPECT_EQ(first.frames, 2u);
  EXPECT_EQ(first.snapshot.metrics.at("policy.full_refreshes").count, 15u);
  // The synthetic per-member counters keep every member's series monotone
  // even when the leg's own counters are quiet.
  EXPECT_EQ(first.snapshot.metrics.at("worker.frames_total").count, 2u);
  const auto& second = registry.members().at({"1", "leg1"});
  EXPECT_EQ(second.snapshot.metrics.at("policy.full_refreshes").count, 7u);
  EXPECT_EQ(registry.frames_received(), 3u);
  EXPECT_EQ(registry.events_received(), 3u);
}

TEST(FederatedRegistry, AggregateIsOrderInvariantAcrossMembers) {
  // Per-member streams keep their arrival order, but interleaving across
  // *different* members must not change the aggregate — ShardedRecorder's
  // sorted-fold semantics with labels as the shard index.
  FederatedRegistry a;
  a.Absorb("0", MakeFrame(0, 1, 10));
  a.Absorb("1", MakeFrame(1, 1, 3));
  a.Absorb("0", MakeFrame(0, 2, 2));

  FederatedRegistry b;
  b.Absorb("1", MakeFrame(1, 1, 3));
  b.Absorb("0", MakeFrame(0, 1, 10));
  b.Absorb("0", MakeFrame(0, 2, 2));

  const MetricsSnapshot left = a.Aggregate();
  EXPECT_EQ(left, b.Aggregate());
  EXPECT_EQ(left.metrics.at("policy.full_refreshes").count, 15u);

  std::ostringstream left_text;
  std::ostringstream right_text;
  WriteMetricsJsonl(left_text, left);
  WriteMetricsJsonl(right_text, b.Aggregate());
  EXPECT_EQ(left_text.str(), right_text.str());
}

TEST(FederatedRegistry, DropAccountingSumsLatestCumulativePerAttempt) {
  FederatedRegistry registry;
  // Attempt 1 of worker 0 reports a growing cumulative drop counter: only
  // the latest value counts, not the sum of the reports.
  registry.Absorb("0", MakeFrame(0, 1, 1, /*frames_dropped=*/0));
  registry.Absorb("0", MakeFrame(0, 2, 1, /*frames_dropped=*/2));
  registry.Absorb("0", MakeFrame(0, 3, 1, /*frames_dropped=*/5));
  EXPECT_EQ(registry.frames_dropped(), 5u);
  // A retry is a fresh attempt with its own counter; attempts accumulate.
  registry.Absorb("0", MakeFrame(0, 1, 1, /*frames_dropped=*/1,
                                 /*attempt=*/2));
  EXPECT_EQ(registry.frames_dropped(), 6u);
  // Another worker's drops add on top.
  registry.Absorb("1", MakeFrame(1, 1, 1, /*frames_dropped=*/3));
  EXPECT_EQ(registry.frames_dropped(), 9u);
  EXPECT_EQ(registry.frames_received(), 5u);
}

}  // namespace
}  // namespace vrl::telemetry
