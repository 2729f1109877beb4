// Tests for the telemetry subsystem (src/telemetry/, docs/TELEMETRY.md).
//
// Three layers:
//  1. Unit semantics pinned by the headers: histogram bucket edges, the
//     lineage ring's merge across wrapped rings, the one snapshot merge
//     (MetricsRegistry::Absorb), exporter formatting.
//  2. The determinism contract end to end: the merged telemetry of
//     RunEvaluationSuite and of the fault-campaign comparison must export
//     byte-identically at 1, 2 and 8 threads.
//  3. System instrumentation: VrlSystem::Simulate feeds the policy and
//     DRAM metrics.

#include "telemetry/recorder.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
#include "retention/vrt.hpp"
#include "telemetry/export.hpp"
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
// 1c. Snapshot merge + exporters
// ---------------------------------------------------------------------------

TEST(MetricsSnapshot, GaugeTakesLatestOnMerge) {
  Recorder a;
  a.gauge("g").Set(1.0);
  Recorder b;
  b.gauge("g").Set(2.0);
  MetricsRegistry sink;
  sink.Absorb(a.Snapshot());
  sink.Absorb(b.Snapshot());
  EXPECT_DOUBLE_EQ(sink.Snapshot().metrics.at("g").value, 2.0);

  // A shard that registered the gauge but never wrote it leaves the sink's
  // value alone.
  Recorder unwritten;
  unwritten.gauge("g");
  unwritten.counter("c").Add(2);
  sink.Absorb(unwritten.Snapshot());
  const MetricsSnapshot merged = sink.Snapshot();
  EXPECT_DOUBLE_EQ(merged.metrics.at("g").value, 2.0);
  EXPECT_EQ(merged.metrics.at("g").count, 1u);  // Still written.
  EXPECT_EQ(merged.metrics.at("c").count, 2u);
}

TEST(Export, FormatDoubleRoundTripsAndIsStable) {
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  // Shortest round trip: strtod recovers the exact bits, so an exported
  // value reads back as the value the run computed.
  for (const double value : {0.1, 1.0 / 3.0, -1.5e-300, 3.0e300}) {
    const std::string text = FormatDouble(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
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
        core::RunResilienceComparison(system, "VRL", vrt, options);
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
// 3. System instrumentation
// ---------------------------------------------------------------------------

TEST(VrlSystemTelemetry, SimulatePopulatesPolicyAndDramMetrics) {
  core::VrlConfig config;
  config.banks = 1;
  core::VrlSystem system(config);
  Recorder recorder;

  const auto horizon = system.HorizonForWindows(1);
  system.Simulate("VRL", {}, horizon, &recorder);
  const auto snapshot = recorder.Snapshot();
  ASSERT_GT(snapshot.metrics.count("policy.full_refreshes"), 0u);
  EXPECT_GT(snapshot.metrics.at("policy.full_refreshes").count, 0u);
  ASSERT_GT(snapshot.metrics.count("policy.partial_refreshes"), 0u);
  EXPECT_GT(snapshot.metrics.at("policy.partial_refreshes").count, 0u);
}

}  // namespace
}  // namespace vrl::telemetry
