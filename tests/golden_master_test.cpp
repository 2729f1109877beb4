// Golden-master equivalence: the paper-figure bench binaries, pinned to the
// single-bank-equivalent timing preset, must emit byte-for-byte the JSON
// committed under tests/golden/.  This is the contract the hierarchy PR
// makes checkable: introducing channels/ranks/bank groups behind the
// MemoryController API changed *no* output byte of the flat model.
//
// table1_accuracy embeds wall-clock durations ("29.84 ms"); those — and
// only those — are scrubbed from both sides before comparing.  The figure
// fixtures are fully deterministic and compare raw.
//
// The traced_flat_vrl_access.* fixtures pin what a fully observed run
// exports rather than what it reports: the Chrome trace, the lineage
// JSONL, the time-scrubbed attribution profile and the telemetry JSONL of
// a flat 8-bank VRL-Access run.  Spans and lineage are on the simulator
// clock and every count is exact, so these also compare raw.
//
// adaptive_vrl_campaign.profile.json pins the campaign's attribution tree
// the same way: phase names, order, call and unit counts.
//
// design_space.json and the two fault_campaign*.json fixtures pin the
// reports of the two leg-structured binaries: the design-space sweep and
// the three-leg fault campaign, at its defaults and under composed faults.
//
// The refresh_op_streams.* fixtures pin the refresh contract itself: the
// op stream GrantRefreshes grants for every registered policy plus the
// Adaptive(VRL) wrapper, with and without a one-op burst cap, under
// periodic row activations (and one sensing failure for the wrapper),
// together with the policy's telemetry and lineage exports.
//
// The bench and fixture directories and the fault_campaign example arrive
// as compile definitions (VRL_BENCH_DIR, VRL_GOLDEN_DIR,
// VRL_FAULT_CAMPAIGN) from tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/vrl_system.hpp"
#include "dram/policy_registry.hpp"
#include "dram/refresh_policy.hpp"
#include "fault/adaptive_policy.hpp"
#include "fault/injector.hpp"
#include "retention/vrt.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profile_export.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/trace_export.hpp"
#include "trace/address.hpp"
#include "trace/synthetic.hpp"

#include "grant_all.hpp"

namespace vrl {
namespace {

std::string BenchDir() { return VRL_BENCH_DIR; }
std::string GoldenDir() { return VRL_GOLDEN_DIR; }

/// Runs `<binary> <args> --json -` and captures stdout.  Text-mode tables
/// go to stdout too when --json targets a file, so `-` keeps the pipe pure
/// JSON.
std::string RunJson(const std::string& binary, const std::string& args = "") {
  const std::string command =
      binary + " " + args + " --json - 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for " << command;
    return {};
  }
  std::string output;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  EXPECT_EQ(status, 0) << command << " exited with status " << status;
  return output;
}

std::string ReadFixture(const std::string& file) {
  const std::string path = GoldenDir() + "/" + file;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing fixture " << path;
    return {};
  }
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

/// Replaces embedded wall-clock durations ("1.91 s", "29.84 ms", "43.2 us")
/// with a fixed token.  Applied to both sides so the comparison stays exact
/// on everything that is actually deterministic.  The unit must end a word,
/// so counts such as "2 subarrays" survive.
std::string ScrubWallClock(const std::string& text) {
  static const std::regex kDuration("[0-9]+\\.?[0-9]* (s|ms|us)\\b");
  return std::regex_replace(text, kDuration, "<time>");
}

void ExpectMatchesFixture(std::string actual, const std::string& file,
                          bool scrub = false) {
  std::string expected = ReadFixture(file);
  ASSERT_FALSE(actual.empty());
  ASSERT_FALSE(expected.empty());
  if (scrub) {
    actual = ScrubWallClock(actual);
    expected = ScrubWallClock(expected);
  }
  EXPECT_EQ(actual, expected)
      << "output drifted from tests/golden/" << file
      << " — if the change is intentional, regenerate the fixture and say "
         "so in the PR; if not, the flat model is no longer "
         "byte-equivalent.";
}

void ExpectMatchesGolden(const std::string& name, bool scrub = false) {
  ExpectMatchesFixture(RunJson(BenchDir() + "/" + name), name + ".json",
                       scrub);
}

TEST(GoldenMaster, Fig1aRestoreCurve) {
  ExpectMatchesGolden("fig1a_restore_curve");
}

TEST(GoldenMaster, Fig1bPartialRefresh) {
  ExpectMatchesGolden("fig1b_partial_refresh");
}

TEST(GoldenMaster, Fig3RetentionBinning) {
  ExpectMatchesGolden("fig3_retention_binning");
}

TEST(GoldenMaster, Fig4RefreshOverhead) {
  ExpectMatchesGolden("fig4_refresh_overhead");
}

TEST(GoldenMaster, Fig5Equalization) {
  ExpectMatchesGolden("fig5_equalization");
}

TEST(GoldenMaster, Table1Accuracy) {
  ExpectMatchesGolden("table1_accuracy", /*scrub=*/true);
}

TEST(GoldenMaster, DesignSpace) { ExpectMatchesGolden("design_space"); }

TEST(GoldenMaster, FaultCampaign) {
  ExpectMatchesFixture(RunJson(VRL_FAULT_CAMPAIGN), "fault_campaign.json");
}

TEST(GoldenMaster, FaultCampaignComposedFaults) {
  ExpectMatchesFixture(
      RunJson(VRL_FAULT_CAMPAIGN,
              "--windows 2 --temp-excursion 85 --drift 0.05 "
              "--corruption 0.01"),
      "fault_campaign_composed.json");
}

/// The four exports of one flat 8-bank VRL-Access run with every observer
/// on: spans, per-op lineage, metrics and the phase profiler.
struct TracedRunExports {
  std::string chrome_trace;
  std::string lineage;
  std::string profile;
  std::string telemetry;
};

TracedRunExports TracedFlatVrlAccessRun() {
  core::VrlConfig config;
  config.banks = 8;
  const core::VrlSystem system(config);

  telemetry::RecorderOptions options;
  options.enable_tracing = true;
  options.lineage_ops = true;
  options.profile_phases = true;
  telemetry::Recorder recorder(options);

  // A few dozen refresh ticks keep the fixtures small while every bank
  // still services requests and issues both full and partial refreshes.
  const Cycles horizon = 24 * config.timing.t_refi;
  Rng rng(42);
  const auto records = trace::GenerateTrace(
      trace::SuiteWorkload("streamcluster"), system.Geometry(), horizon, rng);
  const auto requests =
      trace::MapToRequests(records, trace::AddressMapper(system.Geometry()));
  system.Simulate("VRL-Access", requests, horizon, &recorder);

  TracedRunExports exports;
  std::ostringstream chrome;
  telemetry::WriteChromeTrace(chrome, *recorder.tracer(),
                              recorder.lineage());
  exports.chrome_trace = chrome.str();
  std::ostringstream lineage;
  telemetry::WriteLineageJsonl(lineage, recorder.lineage());
  exports.lineage = lineage.str();
  std::ostringstream profile;
  telemetry::WriteProfileJson(
      profile, recorder.profiler()->Snapshot(/*scrub_times=*/true));
  exports.profile = profile.str();
  std::ostringstream metrics;
  telemetry::WriteMetricsJsonl(metrics, recorder.Snapshot());
  exports.telemetry = metrics.str();
  return exports;
}

TEST(GoldenMaster, TracedFlatRunExports) {
  const TracedRunExports exports = TracedFlatVrlAccessRun();
  ExpectMatchesFixture(exports.chrome_trace,
                       "traced_flat_vrl_access.trace.json");
  ExpectMatchesFixture(exports.lineage, "traced_flat_vrl_access.lineage.jsonl");
  ExpectMatchesFixture(exports.profile, "traced_flat_vrl_access.profile.json");
  ExpectMatchesFixture(exports.telemetry,
                       "traced_flat_vrl_access.telemetry.jsonl");
}

/// The time-scrubbed attribution tree of one adaptive VRL fault campaign
/// (the fault_campaign example's adaptive leg) under heavy VRT noise: 15%
/// of rows flip to 0.4x retention, so sensing failures demote rows and
/// "policy.mprsf_recompute" joins the sampled "faults.advance" and
/// "refresh_ops" phases under "campaign.run".
std::string AdaptiveCampaignProfile() {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  retention::VrtParams vrt;
  vrt.row_fraction = 0.15;
  vrt.low_ratio = 0.4;
  fault::FaultSchedule schedule(0xFA11);
  schedule.Add(std::make_unique<fault::VrtFlipInjector>(vrt));

  telemetry::RecorderOptions options;
  options.profile_phases = true;
  telemetry::Recorder recorder(options);
  system.RunFaultCampaign({"VRL", /*adaptive=*/true},
                          system.RecordFaults(std::move(schedule), 2),
                          &recorder);

  std::ostringstream profile;
  telemetry::WriteProfileJson(
      profile, recorder.profiler()->Snapshot(/*scrub_times=*/true));
  return profile.str();
}

TEST(GoldenMaster, AdaptiveCampaignProfile) {
  ExpectMatchesFixture(AdaptiveCampaignProfile(),
                       "adaptive_vrl_campaign.profile.json");
}

/// The three exports of the refresh op-stream runs, one section per run.
struct RefreshStreamExports {
  std::string ops;
  std::string telemetry;
  std::string lineage;
};

/// An 8-row bank whose RAIDR/VRL periods span 1x, 2x and 4x a base window
/// of two refresh ticks: several rows come due on most ticks, so a burst
/// cap of one op postpones work, and the MPRSF ladder (0..3) mixes full
/// and partial refreshes.
dram::PolicyBuildContext StreamContext() {
  dram::PolicyBuildContext ctx;
  ctx.rows = 8;
  ctx.t_refi = 100;
  ctx.base_window = 2 * ctx.t_refi;
  ctx.trfc_full = 35;
  ctx.trfc_partial = 20;
  ctx.defer_window = 2 * ctx.t_refi;
  for (std::size_t r = 0; r < ctx.rows; ++r) {
    const Cycles period = ctx.base_window << (r % 3);
    ctx.binned_plan.period_cycles.push_back(period);
    ctx.vrl_plan.period_cycles.push_back(period);
    ctx.vrl_plan.mprsf.push_back(static_cast<std::uint8_t>(r % 4));
  }
  return ctx;
}

/// One op as "<row><F|P><tRFC>/<granularity>".
std::string FormatOp(const dram::RefreshOp& op) {
  return std::to_string(op.row) + (op.is_full ? "F" : "P") +
         std::to_string(op.trfc) + "/" +
         dram::RefreshGranularityName(op.granularity);
}

RefreshStreamExports RefreshOpStreams() {
  const dram::PolicyBuildContext ctx = StreamContext();
  const auto& registry = dram::PolicyRegistry::Global();
  std::vector<std::string> names;
  for (const dram::PolicyInfo& info : registry.entries()) {
    names.push_back(info.name);
  }
  names.emplace_back("Adaptive(VRL)");

  RefreshStreamExports exports;
  for (const std::string& name : names) {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{1}}) {
      std::unique_ptr<dram::RefreshPolicy> policy;
      fault::AdaptiveVrlPolicy* adaptive = nullptr;
      if (name == "Adaptive(VRL)") {
        auto inner = registry.Build("VRL", ctx);
        inner->set_max_ops_per_tick(cap);
        auto wrapper = std::make_unique<fault::AdaptiveVrlPolicy>(
            std::move(inner), ctx.vrl_plan, ctx.trfc_full, ctx.trfc_partial,
            ctx.base_window, ctx.t_refi);
        adaptive = wrapper.get();
        policy = std::move(wrapper);
      } else {
        policy = registry.Build(name, ctx);
      }
      policy->set_max_ops_per_tick(cap);

      telemetry::RecorderOptions options;
      options.lineage_ops = true;
      telemetry::Recorder recorder(options);
      policy->set_telemetry(&recorder);

      const std::string header = "{\"run\":\"" + name +
                                 "\",\"max_ops_per_tick\":" +
                                 std::to_string(cap) + "}\n";
      exports.ops += header;
      // Eight base windows: two periods of the slowest rows.
      for (std::size_t tick = 0; tick <= 16; ++tick) {
        const Cycles now = static_cast<Cycles>(tick) * ctx.t_refi;
        const auto ops = GrantAll(*policy, now);
        if (!ops.empty()) {
          exports.ops += "t=" + std::to_string(now);
          for (const dram::RefreshOp& op : ops) {
            exports.ops += " " + FormatOp(op);
          }
          exports.ops += "\n";
        }
        if (tick % 3 == 1) {
          policy->OnRowAccess(tick * 5 % ctx.rows);
        }
        if (adaptive != nullptr && tick == 5) {
          adaptive->OnSensingFailure(3, now);
        }
      }
      policy->FlushTelemetry();

      std::ostringstream metrics;
      telemetry::WriteMetricsJsonl(metrics, recorder.Snapshot());
      exports.telemetry += header + metrics.str();
      std::ostringstream lineage;
      telemetry::WriteLineageJsonl(lineage, recorder.lineage());
      exports.lineage += header + lineage.str();
    }
  }
  return exports;
}

TEST(GoldenMaster, RefreshOpStreams) {
  const RefreshStreamExports exports = RefreshOpStreams();
  ExpectMatchesFixture(exports.ops, "refresh_op_streams.ops.txt");
  ExpectMatchesFixture(exports.telemetry,
                       "refresh_op_streams.telemetry.jsonl");
  ExpectMatchesFixture(exports.lineage, "refresh_op_streams.lineage.jsonl");
}

TEST(GoldenMaster, ScrubberOnlyTouchesDurations) {
  EXPECT_EQ(ScrubWallClock("\"t(circuit)\":\"29.84 ms\",\"x\":\"43.2 us\""),
            "\"t(circuit)\":\"<time>\",\"x\":\"<time>\"");
  // Column headers like "t(circuit) ms-vs-us" carry no digit before the
  // unit and survive; plain numbers survive.
  EXPECT_EQ(ScrubWallClock("\"cycles\":\"29.84\",\"unit\":\"ms\""),
            "\"cycles\":\"29.84\",\"unit\":\"ms\"");
  // A solve of a second or more prints whole seconds.
  EXPECT_EQ(ScrubWallClock("\"t(circuit)\":\"1.91 s\",\"y\":\"12 s\""),
            "\"t(circuit)\":\"<time>\",\"y\":\"<time>\"");
  // A count followed by a word starting with a unit letter survives.
  EXPECT_EQ(ScrubWallClock("\"note\":\"2 subarrays, 4 usable, 3 msb\""),
            "\"note\":\"2 subarrays, 4 usable, 3 msb\"");
}

}  // namespace
}  // namespace vrl
