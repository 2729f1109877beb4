// Tests for causal span tracing and the refresh lineage
// (src/telemetry/tracing.hpp, src/telemetry/events.hpp, docs/TRACING.md).
//
// Three layers:
//  1. Tracer and lineage semantics pinned by the headers: label interning,
//     span nesting and LIFO closing, the oldest-win span cap, the
//     newest-win lineage ring, and Absorb's id/label/group remapping.
//  2. Exporter structure: Chrome trace_event JSON (metadata, X and i
//     events, the synthetic lineage process), the JSONL form with its
//     summary accounting, and WriteTraceFile's extension dispatch.
//  3. The acceptance contracts end to end: a VRL-Access run records
//     activation-reset lineage, the adaptive campaign records demotion
//     lineage, a hierarchical run parents each refresh burst to its own
//     bank's span, and the evaluation suite's merged trace exports
//     byte-identically at 1, 2 and 8 threads.

#include "telemetry/tracing.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
#include "dram/controller.hpp"
#include "dram/timing_table.hpp"
#include "retention/vrt.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/trace_export.hpp"
#include "trace/synthetic.hpp"

#include "grant_all.hpp"

namespace vrl::telemetry {
namespace {

// ---------------------------------------------------------------------------
// 1a. Labels and track groups
// ---------------------------------------------------------------------------

TEST(Tracer, InternIsIdempotentAndOrdered) {
  Tracer tracer;
  EXPECT_EQ(tracer.Intern("alpha"), 0u);
  EXPECT_EQ(tracer.Intern("beta"), 1u);
  EXPECT_EQ(tracer.Intern("alpha"), 0u);
  EXPECT_EQ(tracer.label_count(), 2u);
  EXPECT_EQ(tracer.label(1), "beta");
}

TEST(Tracer, LabelThrowsOutOfRange) {
  const Tracer tracer;
  EXPECT_THROW(tracer.label(0), ConfigError);
}

TEST(Tracer, TrackGroupsAreOneBasedAndLabelled) {
  Tracer tracer;
  EXPECT_EQ(tracer.NewTrackGroup("run:VRL"), 1u);
  EXPECT_EQ(tracer.NewTrackGroup("run:RAIDR"), 2u);
  ASSERT_EQ(tracer.groups().size(), 2u);
  EXPECT_EQ(tracer.label(tracer.groups()[1]), "run:RAIDR");
}

// ---------------------------------------------------------------------------
// 1b. Span nesting
// ---------------------------------------------------------------------------

TEST(Tracer, SpansNestViaTheOpenStack) {
  Tracer tracer;
  const SpanId outer = tracer.BeginSpan("outer", 10);
  const SpanId inner = tracer.BeginSpan("inner", 20);
  EXPECT_EQ(tracer.open_depth(), 2u);
  tracer.EndSpan(inner, 30);
  tracer.EndSpan(outer, 40);
  EXPECT_EQ(tracer.open_depth(), 0u);

  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].parent, SpanId{0});
  EXPECT_EQ(tracer.spans()[1].parent, outer);
  EXPECT_EQ(tracer.spans()[1].start, Cycles{20});
  EXPECT_EQ(tracer.spans()[1].end, Cycles{30});
}

TEST(Tracer, EndSpanEnforcesLifoOrder) {
  Tracer tracer;
  const SpanId outer = tracer.BeginSpan("outer", 0);
  tracer.BeginSpan("inner", 1);
  EXPECT_THROW(tracer.EndSpan(outer, 2), ConfigError);
}

TEST(Tracer, EndSpanWithNothingOpenThrows) {
  Tracer tracer;
  EXPECT_THROW(tracer.EndSpan(1, 0), ConfigError);
}

TEST(Tracer, CompleteSpanParentsToInnermostOpenWithoutTouchingTheStack) {
  Tracer tracer;
  const SpanId outer = tracer.BeginSpan("outer", 0);
  tracer.CompleteSpan("burst", 5, 9, 1, 3, 4, 2);
  EXPECT_EQ(tracer.open_depth(), 1u);
  tracer.EndSpan(outer, 10);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const SpanRecord& burst = tracer.spans()[1];
  EXPECT_EQ(burst.parent, outer);
  EXPECT_EQ(burst.group, 1u);
  EXPECT_EQ(burst.track, 3u);
  EXPECT_EQ(burst.a, 4);
  EXPECT_EQ(burst.b, 2);
}

TEST(Tracer, PreInternedCompleteSpanMatchesStringForm) {
  Tracer by_string;
  by_string.CompleteSpan("burst", 1, 2);
  Tracer by_label;
  by_label.CompleteSpan(by_label.Intern("burst"), 1, 2);
  EXPECT_EQ(by_string.spans(), by_label.spans());
}

// ---------------------------------------------------------------------------
// 1c. Caps: oldest-win spans, newest-win lineage ring
// ---------------------------------------------------------------------------

TEST(Tracer, SpanCapKeepsOldestAndStillAllocatesIds) {
  TracerOptions options;
  options.max_spans = 2;
  Tracer tracer(options);
  const SpanId a = tracer.BeginSpan("a", 0);
  const SpanId b = tracer.BeginSpan("b", 1);
  const SpanId c = tracer.BeginSpan("c", 2);  // dropped, id still fresh
  const SpanId d = tracer.BeginSpan("d", 3);  // dropped child of c
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  tracer.EndSpan(d, 4);
  tracer.EndSpan(c, 5);
  tracer.EndSpan(b, 6);
  tracer.EndSpan(a, 7);

  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.dropped_spans(), 2u);
  EXPECT_EQ(tracer.recorded_spans(), 4u);
  // The retained spans are the oldest two.
  EXPECT_EQ(tracer.label(tracer.spans()[0].name), "a");
  EXPECT_EQ(tracer.label(tracer.spans()[1].name), "b");
}

TEST(Tracer, LineageRingKeepsNewest) {
  Lineage lineage(4);
  for (std::uint64_t i = 1; i <= 7; ++i) {
    lineage.Add({EventKind::kFullRefresh, i, i, 0, 0, 0.0});
  }
  EXPECT_EQ(lineage.recorded(), 7u);
  EXPECT_EQ(lineage.dropped(), 3u);
  const auto retained = lineage.Retained();
  ASSERT_EQ(retained.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(retained[i].cycle, Cycles{4 + i}) << "slot " << i;
  }
}

TEST(Tracer, ZeroLineageCapCountsEverythingAsDropped) {
  Lineage lineage(0);
  lineage.Add({EventKind::kDemotion, 1, 2, 0, 3, 0.0});
  EXPECT_TRUE(lineage.Retained().empty());
  EXPECT_EQ(lineage.recorded(), 1u);
  EXPECT_EQ(lineage.dropped(), 1u);
}

// ---------------------------------------------------------------------------
// 1d. Absorb: the shard-merge path
// ---------------------------------------------------------------------------

TEST(Tracer, AbsorbRemapsIdsLabelsAndGroups) {
  Tracer sink;
  sink.Intern("shared");
  const std::uint32_t sink_group = sink.NewTrackGroup("run:A");
  sink.CompleteSpan("shared", 0, 1, sink_group);

  Tracer shard;
  const std::uint32_t shard_group = shard.NewTrackGroup("run:B");
  const SpanId outer = shard.BeginSpan("outer", 10, shard_group);
  shard.CompleteSpan("shared", 11, 12, shard_group, 7);
  shard.EndSpan(outer, 20);

  sink.Absorb(shard);

  // Groups: B appended after A; its spans remapped onto the new id.
  ASSERT_EQ(sink.groups().size(), 2u);
  EXPECT_EQ(sink.label(sink.groups()[1]), "run:B");
  ASSERT_EQ(sink.spans().size(), 3u);
  const SpanRecord& merged_outer = sink.spans()[1];
  const SpanRecord& merged_inner = sink.spans()[2];
  EXPECT_EQ(sink.label(merged_outer.name), "outer");
  EXPECT_EQ(merged_outer.group, 2u);
  // Parent links survive the id offset; "shared" resolves to one label id
  // in the merged table.
  EXPECT_EQ(merged_inner.parent, merged_outer.id);
  EXPECT_EQ(merged_inner.name, sink.spans()[0].name);
  EXPECT_EQ(merged_inner.track, 7u);
  // Ids stay unique and dense across the merge.
  EXPECT_NE(merged_outer.id, sink.spans()[0].id);
}

TEST(Tracer, AbsorbWithOpenSpansThrows) {
  Tracer sink;
  Tracer shard;
  shard.BeginSpan("still-open", 0);
  EXPECT_THROW(sink.Absorb(shard), ConfigError);
}

TEST(Tracer, AbsorbAccumulatesDropCounts) {
  TracerOptions small;
  small.max_spans = 1;
  Tracer sink(small);
  sink.CompleteSpan("kept", 0, 1);
  Lineage sink_lineage(1);
  sink_lineage.Add(
      {EventKind::kFullRefresh, 0, 0, sink_lineage.Intern("VRL"), 0, 0.0});

  Tracer shard(small);
  shard.CompleteSpan("dropped-at-sink", 2, 3);
  shard.CompleteSpan("dropped-at-shard", 4, 5);
  Lineage shard_lineage(1);
  const std::uint32_t cause = shard_lineage.Intern("VRL");
  shard_lineage.Add({EventKind::kFullRefresh, 1, 1, cause, 0, 0.0});
  shard_lineage.Add({EventKind::kFullRefresh, 2, 2, cause, 0, 0.0});

  sink.Absorb(shard);
  sink_lineage.Absorb(shard_lineage);
  // Spans: sink keeps its oldest; the shard's retained span and the
  // shard's own drop both count as dropped here.
  EXPECT_EQ(sink.spans().size(), 1u);
  EXPECT_EQ(sink.recorded_spans(), 3u);
  // Lineage: newest-win — the shard's retained record displaced the
  // sink's.  recorded counts each record once (1 sink + 2 shard); the
  // displaced sink record and the shard-side drop land in dropped.
  const auto lineage = sink_lineage.Retained();
  ASSERT_EQ(lineage.size(), 1u);
  EXPECT_EQ(lineage[0].cycle, Cycles{2});
  EXPECT_EQ(sink_lineage.recorded(), 3u);
  EXPECT_EQ(sink_lineage.dropped(), 2u);
  EXPECT_EQ(sink_lineage.recorded(),
            sink_lineage.size() + sink_lineage.dropped());
}

// ---------------------------------------------------------------------------
// 2. Exporters
// ---------------------------------------------------------------------------

TEST(TraceExport, ChromeTraceIsStructurallySound) {
  Tracer tracer;
  const std::uint32_t group = tracer.NewTrackGroup("run:VRL-Access");
  const SpanId bank = tracer.BeginSpan("bank_run", 0, group, 0);
  tracer.CompleteSpan("refresh_burst", 10, 14, group, 0, 3, 1);
  tracer.EndSpan(bank, 100);
  Lineage lineage;
  lineage.Add({EventKind::kMprsfReset, 42, 7, lineage.Intern("VRL-Access"), 2,
               0.0});
  std::ostringstream os;
  WriteChromeTrace(os, tracer, lineage);
  const std::string out = os.str();

  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  // Process metadata: driver, the run group, and the synthetic lineage
  // process (pid = groups + 1 = 2).
  EXPECT_NE(out.find(R"("name":"driver")"), std::string::npos);
  EXPECT_NE(out.find(R"("name":"run:VRL-Access")"), std::string::npos);
  EXPECT_NE(out.find(R"("name":"lineage")"), std::string::npos);
  // The burst span with its payloads.
  EXPECT_NE(out.find(R"("name":"refresh_burst","cat":"span","ph":"X","ts":10,"dur":4)"),
            std::string::npos);
  // The activation-reset instant event on the lineage process.
  EXPECT_NE(out.find(R"("name":"mprsf_reset","cat":"lineage","ph":"i")"),
            std::string::npos);
  EXPECT_NE(out.find(R"("cause":"VRL-Access")"), std::string::npos);
}

TEST(TraceExport, JsonlSummariesBalance) {
  Tracer tracer;
  tracer.CompleteSpan("s", 0, 1);
  Lineage lineage(1);
  const std::uint32_t cause = lineage.Intern("VRL");
  lineage.Add({EventKind::kFullRefresh, 0, 0, cause, 0, 0.0});
  lineage.Add({EventKind::kFullRefresh, 1, 0, cause, 0, 0.0});

  std::ostringstream os;
  WriteTraceJsonl(os, tracer, lineage);
  const std::string out = os.str();
  EXPECT_NE(out.find(R"({"type":"span_summary","recorded":1,"retained":1,"dropped":0})"),
            std::string::npos);
  EXPECT_NE(out.find(R"({"type":"lineage_summary","recorded":2,"retained":1,"dropped":1})"),
            std::string::npos);
}

// WriteTraceFile picks the writer by extension, in any case, before it
// opens the file.

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

class TraceFileDispatch : public testing::Test {
 protected:
  TraceFileDispatch() {
    telemetry::RecorderOptions options;
    options.enable_tracing = true;
    recorder_ = std::make_unique<telemetry::Recorder>(options);
    recorder_->tracer()->CompleteSpan("work", 0, 100);
  }
  void Write(const std::string& path) const {
    telemetry::WriteTraceFile(path, *recorder_->tracer(),
                              recorder_->lineage());
  }
  std::unique_ptr<telemetry::Recorder> recorder_;
};

TEST_F(TraceFileDispatch, UppercaseJsonlSelectsJsonl) {
  const std::string path = TempPath("obs_dispatch.JSONL");
  Write(path);
  std::ifstream is(path);
  std::string first_line;
  std::getline(is, first_line);
  EXPECT_NE(first_line.find("\"type\""), std::string::npos) << first_line;
  std::remove(path.c_str());
}

TEST_F(TraceFileDispatch, MixedCaseJsonSelectsChromeTrace) {
  const std::string path = TempPath("obs_dispatch.Json");
  Write(path);
  std::ifstream is(path);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("traceEvents"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceFileDispatch, UnknownExtensionIsRejectedWithoutCreatingTheFile) {
  const std::string path = TempPath("obs_dispatch.txt");
  try {
    Write(path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("unsupported extension"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find(".txt"), std::string::npos);
  }
  // Dispatch happens before the file opens: no empty husk left behind.
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST_F(TraceFileDispatch, PathWithoutAnyExtensionIsRejected) {
  EXPECT_THROW(Write(TempPath("no_extension")), ConfigError);
}

// ---------------------------------------------------------------------------
// 3. End-to-end acceptance contracts
// ---------------------------------------------------------------------------

RecorderOptions TracingOptions() {
  RecorderOptions options;
  options.enable_tracing = true;
  options.lineage_ops = true;
  return options;
}

TEST(TracingIntegration, VrlAccessRunRecordsActivationResetLineage) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  Recorder recorder(TracingOptions());

  const Cycles horizon = system.HorizonForWindows(2);
  Rng rng(7);
  const auto records = trace::GenerateTrace(
      trace::SuiteWorkload("streamcluster"), system.Geometry(), horizon, rng);
  const auto requests =
      trace::MapToRequests(records, trace::AddressMapper(system.Geometry()));
  system.Simulate("VRL-Access", requests, horizon, &recorder);

  ASSERT_NE(recorder.tracer(), nullptr);
  std::size_t resets = 0;
  std::size_t refresh_ops = 0;
  for (const LineageRecord& record : recorder.lineage().Retained()) {
    resets += record.kind == EventKind::kMprsfReset ? 1 : 0;
    refresh_ops += record.kind == EventKind::kFullRefresh ||
                           record.kind == EventKind::kPartialRefresh
                       ? 1
                       : 0;
    if (record.kind == EventKind::kMprsfReset) {
      EXPECT_EQ(recorder.lineage().label(record.cause), "VRL-Access");
    }
  }
  EXPECT_GT(resets, 0u) << "no activation-reset lineage in a VRL-Access run";
  EXPECT_GT(refresh_ops, 0u);
  // The run's spans land on a dedicated track group.
  ASSERT_FALSE(recorder.tracer()->groups().empty());
  EXPECT_EQ(recorder.tracer()->label(recorder.tracer()->groups()[0]),
            "run:VRL-Access");
}

TEST(TracingIntegration, TransitionsOnlyModeSkipsTheOpFirehose) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  RecorderOptions options;
  options.enable_tracing = true;  // lineage_ops stays false
  Recorder recorder(options);

  system.Simulate("VRL-Access", {}, system.HorizonForWindows(1), &recorder);
  ASSERT_NE(recorder.tracer(), nullptr);
  // No per-op lineage — but the run still produced spans.
  EXPECT_EQ(recorder.lineage().recorded(), 0u);
  EXPECT_GT(recorder.tracer()->recorded_spans(), 0u);
}

TEST(TracingIntegration, AdaptiveCampaignRecordsDemotionLineage) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  Recorder recorder(TracingOptions());

  retention::VrtParams vrt;
  vrt.row_fraction = 0.05;
  core::ExperimentOptions options;
  options.windows = 4;
  options.telemetry = &recorder;
  const auto result =
      core::RunResilienceComparison(system, "VRL", vrt, options);
  EXPECT_GT(result.jedec.refresh_busy_cycles, 0u);

  std::size_t demotions = 0;
  std::size_t failures = 0;
  for (const LineageRecord& record : recorder.lineage().Retained()) {
    demotions += record.kind == EventKind::kDemotion ? 1 : 0;
    failures += record.kind == EventKind::kSensingFailure ? 1 : 0;
  }
  EXPECT_GT(demotions, 0u) << "adaptive degradation left no demotion lineage";
  EXPECT_GT(failures, 0u) << "campaign sensing failures left no lineage";
}

TEST(TracingIntegration, HierarchicalRunParentsEachBurstToItsOwnBank) {
  // DDR4_2400 interleaves its 8 banks on one timeline; each bank's
  // refresh bursts must still nest under that bank's own bank_run span,
  // and the bank_run spans are siblings under the enclosing span.
  const dram::TimingTable table =
      dram::MakeTimingTable(dram::TimingPreset::kDdr4_2400, 8);
  const std::size_t rows = 16;
  const Cycles window = rows * table.core.t_refi;  // one row per tick
  dram::MemoryController controller(table, rows, [&] {
    return std::make_unique<dram::FullLatencyPolicy>(Jedec(rows, window, 26));
  });
  ASSERT_TRUE(controller.hierarchical());
  Recorder recorder(TracingOptions());
  controller.AttachTelemetry(&recorder);
  Tracer& tracer = *recorder.tracer();

  std::vector<dram::Request> requests;
  for (std::size_t i = 0; i < 64; ++i) {
    dram::Request request;
    request.arrival = static_cast<Cycles>(i) * 97;
    request.bank = i % controller.banks();
    request.row = (i * 5) % rows;
    requests.push_back(request);
  }
  const Cycles horizon = 2 * window;
  const SpanId outer = tracer.BeginSpan("workload", 0);
  ASSERT_NO_THROW(controller.Run(requests, horizon));
  tracer.EndSpan(outer, horizon);
  EXPECT_EQ(tracer.open_depth(), 0u);

  // (group, track) of every bank_run, keyed by span id.
  std::map<SpanId, std::pair<std::uint32_t, std::uint64_t>> bank_runs;
  for (const SpanRecord& span : tracer.spans()) {
    if (tracer.label(span.name) == "bank_run") {
      EXPECT_EQ(span.parent, outer);
      EXPECT_GE(span.end, horizon);
      bank_runs[span.id] = {span.group, span.track};
    }
  }
  EXPECT_EQ(bank_runs.size(), controller.banks());
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> bursts;
  for (const SpanRecord& span : tracer.spans()) {
    if (tracer.label(span.name) != "refresh_burst") {
      continue;
    }
    const auto parent = bank_runs.find(span.parent);
    ASSERT_NE(parent, bank_runs.end())
        << "burst at cycle " << span.start << " is not under a bank_run";
    EXPECT_EQ(parent->second, std::make_pair(span.group, span.track))
        << "burst at cycle " << span.start << " is under another bank's span";
    ++bursts[parent->second];
  }
  // Every bank refreshed on every tick of the run.
  EXPECT_EQ(bursts.size(), controller.banks());
  for (const auto& [bank, count] : bursts) {
    EXPECT_EQ(count, horizon / table.core.t_refi + 1);
  }
}

std::string TraceBytes(const Recorder& recorder) {
  std::ostringstream chrome;
  WriteChromeTrace(chrome, *recorder.tracer(), recorder.lineage());
  std::ostringstream jsonl;
  WriteTraceJsonl(jsonl, *recorder.tracer(), recorder.lineage());
  return chrome.str() + jsonl.str();
}

TEST(TracingIntegration, SuiteTraceIsByteIdenticalAcrossThreads) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);

  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    Recorder sink(TracingOptions());
    core::ExperimentOptions options;
    options.windows = 2;
    options.threads = threads;
    options.telemetry = &sink;
    const auto results = core::RunEvaluationSuite(system, options);
    EXPECT_FALSE(results.empty());
    ASSERT_NE(sink.tracer(), nullptr);
    EXPECT_GT(sink.tracer()->recorded_spans(), 0u);
    const std::string bytes = TraceBytes(sink);
    if (threads == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "trace diverged at " << threads
                                  << " threads";
    }
  }
}

}  // namespace
}  // namespace vrl::telemetry
