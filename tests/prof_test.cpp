// Tests for the continuous-profiling plane (src/prof/, docs/PROFILING.md):
// attribution-tree construction, RAII unwinding through exceptions, drop
// accounting at the node/depth caps, shard Absorb determinism (the
// evaluation suite's tree is byte-identical at any thread count once
// times are scrubbed), the sampled PhaseAccumulator, the exporters, the
// /profile endpoint over a real loopback socket mid-campaign, and a
// scripts/diff_profile.py round-trip on a golden export pair.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/error.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
#include "fault/injector.hpp"
#include "obs/monitor_server.hpp"
#include "obs/plane.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"
#include "retention/vrt.hpp"
#include "telemetry/recorder.hpp"

namespace vrl::prof {
namespace {

// -- Helpers ------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::string JsonOf(const Profiler& profiler, bool scrub = true) {
  std::ostringstream os;
  WriteProfileJson(os, profiler.Snapshot(scrub));
  return os.str();
}

std::uint64_t TotalCalls(const ProfileSnapshot& snapshot) {
  std::uint64_t total = 0;
  for (const ProfileNode& node : snapshot.nodes) {
    total += node.calls;
  }
  return total;
}

const ProfileNode* FindNode(const ProfileSnapshot& snapshot,
                            const std::string& path) {
  for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
    if (snapshot.PathOf(i) == path) {
      return &snapshot.nodes[i];
    }
  }
  return nullptr;
}

std::string BodyOf(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

int StatusOf(const std::string& response) {
  return std::stoi(response.substr(response.find(' ') + 1));
}

/// A real GET over loopback — the same path curl takes in CI.
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect to 127.0.0.1:" << port << " failed";
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t wrote =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (wrote <= 0) {
      break;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      break;
    }
    response.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

/// Exit status of a shell command (-1 when it could not run).
int RunCommand(const std::string& command) {
  const int status = std::system(command.c_str());
  if (status == -1 || !WIFEXITED(status)) {
    return -1;
  }
  return WEXITSTATUS(status);
}

// -- Tree construction --------------------------------------------------------

TEST(Profiler, BuildsTreeKeyedByParentAndName) {
  Profiler profiler;
  {
    ScopedPhase outer(&profiler, "run");
    { ScopedPhase inner(&profiler, "step"); }
    { ScopedPhase inner(&profiler, "step"); }
  }
  {
    ScopedPhase other(&profiler, "other");
    ScopedPhase inner(&profiler, "step");
  }
  const auto snapshot = profiler.Snapshot();
  ASSERT_EQ(snapshot.nodes.size(), 4u);
  // "step" under "run" and "step" under "other" are distinct nodes.
  const ProfileNode* run_step = FindNode(snapshot, "run;step");
  const ProfileNode* other_step = FindNode(snapshot, "other;step");
  ASSERT_NE(run_step, nullptr);
  ASSERT_NE(other_step, nullptr);
  EXPECT_EQ(run_step->calls, 2u);
  EXPECT_EQ(other_step->calls, 1u);
  EXPECT_EQ(FindNode(snapshot, "run")->calls, 1u);
  // Every parent precedes its children, and depths chain.
  for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
    const ProfileNode& node = snapshot.nodes[i];
    if (node.parent >= 0) {
      EXPECT_LT(static_cast<std::size_t>(node.parent), i);
      EXPECT_EQ(node.depth,
                snapshot.nodes[static_cast<std::size_t>(node.parent)].depth +
                    1);
    } else {
      EXPECT_EQ(node.depth, 0u);
    }
    EXPECT_LE(node.exclusive_s, node.inclusive_s + 1e-12);
  }
  EXPECT_EQ(snapshot.frames, TotalCalls(snapshot));
  EXPECT_EQ(snapshot.frames, 5u);
  EXPECT_EQ(snapshot.drops, 0u);
  EXPECT_EQ(profiler.open_depth(), 0u);
}

TEST(Profiler, ScopedPhaseUnwindsThroughExceptions) {
  Profiler profiler;
  try {
    ScopedPhase outer(&profiler, "run");
    ScopedPhase inner(&profiler, "step");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(profiler.open_depth(), 0u);
  EXPECT_EQ(profiler.frames(), 2u);
  // Null profiler: ScopedPhase is a no-op, usable unconditionally.
  { ScopedPhase nothing(nullptr, "ignored"); }
}

TEST(Profiler, UnitsAttributeToTheClosingFrame) {
  Profiler profiler;
  {
    ScopedPhase frame(&profiler, "refresh");
    frame.AddUnits(32);
    frame.AddUnits(10);
  }
  const auto snapshot = profiler.Snapshot();
  EXPECT_EQ(FindNode(snapshot, "refresh")->units, 42u);
}

TEST(Profiler, CompletePhaseAttachesUnderTheOpenFrame) {
  Profiler profiler;
  profiler.BeginPhase("run");
  profiler.CompletePhase("ticks", 0.25, 1000, 5000);
  profiler.EndPhase();
  const auto snapshot = profiler.Snapshot();
  const ProfileNode* ticks = FindNode(snapshot, "run;ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_EQ(ticks->calls, 1000u);
  EXPECT_EQ(ticks->units, 5000u);
  EXPECT_DOUBLE_EQ(ticks->inclusive_s, 0.25);
  EXPECT_DOUBLE_EQ(ticks->exclusive_s, 0.25);
  // The folded time counts as child time of the enclosing frame.
  const ProfileNode* run = FindNode(snapshot, "run");
  EXPECT_LE(run->exclusive_s, run->inclusive_s + 1e-12);
  EXPECT_EQ(snapshot.frames, 1001u);
  // Without an open frame it lands as a root.
  profiler.CompletePhase("standalone", 0.1, 2);
  EXPECT_NE(FindNode(profiler.Snapshot(), "standalone"), nullptr);
}

// -- Drop accounting ----------------------------------------------------------

TEST(Profiler, DepthCapDropsStayBalanced) {
  ProfilerOptions options;
  options.max_depth = 2;
  Profiler profiler(options);
  {
    ScopedPhase a(&profiler, "a");
    ScopedPhase b(&profiler, "b");
    ScopedPhase c(&profiler, "c");  // over the cap: dropped
    ScopedPhase d(&profiler, "d");  // child of a dropped frame: dropped
  }
  EXPECT_EQ(profiler.open_depth(), 0u);  // sentinels unwound cleanly
  EXPECT_EQ(profiler.frames(), 2u);
  EXPECT_EQ(profiler.drops(), 2u);
  const auto snapshot = profiler.Snapshot();
  EXPECT_EQ(snapshot.nodes.size(), 2u);
  EXPECT_EQ(snapshot.frames, TotalCalls(snapshot));
}

TEST(Profiler, NodeCapDropsNewPhasesButKeepsExisting) {
  ProfilerOptions options;
  options.max_nodes = 2;
  Profiler profiler(options);
  { ScopedPhase a(&profiler, "a"); }
  { ScopedPhase b(&profiler, "b"); }
  { ScopedPhase c(&profiler, "c"); }  // over the node cap
  { ScopedPhase a(&profiler, "a"); }  // existing node still records
  profiler.CompletePhase("d", 0.1, 7);  // folded calls drop too
  EXPECT_EQ(profiler.frames(), 3u);
  EXPECT_EQ(profiler.drops(), 8u);
  const auto snapshot = profiler.Snapshot();
  EXPECT_EQ(snapshot.nodes.size(), 2u);
  EXPECT_EQ(FindNode(snapshot, "a")->calls, 2u);
  EXPECT_EQ(snapshot.frames, TotalCalls(snapshot));
}

// -- Absorb -------------------------------------------------------------------

TEST(Profiler, AbsorbMergesByPathAndKeepsInvariants) {
  Profiler a;
  {
    ScopedPhase run(&a, "run");
    ScopedPhase step(&a, "step");
  }
  Profiler b;
  {
    ScopedPhase run(&b, "run");
    { ScopedPhase step(&b, "step"); }
    { ScopedPhase extra(&b, "extra"); }
  }
  a.Absorb(b);
  const auto snapshot = a.Snapshot();
  EXPECT_EQ(FindNode(snapshot, "run")->calls, 2u);
  EXPECT_EQ(FindNode(snapshot, "run;step")->calls, 2u);
  EXPECT_EQ(FindNode(snapshot, "run;extra")->calls, 1u);
  EXPECT_EQ(snapshot.frames, TotalCalls(snapshot));
  EXPECT_EQ(snapshot.frames, 5u);
}

TEST(Profiler, AbsorbRejectsOpenFrames) {
  Profiler open;
  open.BeginPhase("run");
  Profiler closed;
  EXPECT_THROW(closed.Absorb(open), ConfigError);
  EXPECT_THROW(open.Absorb(closed), ConfigError);
  open.EndPhase();
  closed.Absorb(open);  // balanced now: fine
  EXPECT_EQ(closed.frames(), 1u);
}

TEST(Profiler, AbsorbIsDeterministicRegardlessOfShardSplit) {
  // The same work recorded serially or split across two shards (merged in
  // index order) exports byte-identical scrubbed trees.
  const auto record = [](Profiler& p, int task) {
    ScopedPhase run(&p, "run");
    ScopedPhase step(&p, "step");
    step.AddUnits(static_cast<std::uint64_t>(task) + 1);
  };
  Profiler serial;
  for (int task = 0; task < 4; ++task) {
    record(serial, task);
  }
  Profiler shard0, shard1, merged;
  for (int task = 0; task < 4; ++task) {
    record(task % 2 == 0 ? shard0 : shard1, task);
  }
  merged.Absorb(shard0);
  merged.Absorb(shard1);
  EXPECT_EQ(JsonOf(merged), JsonOf(serial));
}

// -- PhaseAccumulator ---------------------------------------------------------

TEST(PhaseAccumulator, CountsEveryCallTimesOneInN) {
  PhaseAccumulator acc(4);
  int timed = 0;
  for (int i = 0; i < 16; ++i) {
    if (acc.Sample()) {
      ++timed;
      acc.Add(0.5);
    }
  }
  EXPECT_EQ(acc.calls(), 16u);
  EXPECT_EQ(timed, 4);  // calls 0, 4, 8, 12
  // 4 samples x 0.5 s scaled back up to 16 calls.
  EXPECT_DOUBLE_EQ(acc.EstimatedSeconds(), 8.0);
  acc.AddUnits(100);
  EXPECT_EQ(acc.units(), 100u);
  EXPECT_DOUBLE_EQ(PhaseAccumulator().EstimatedSeconds(), 0.0);
}

// -- Exporters ----------------------------------------------------------------

TEST(ProfileReport, JsonAndCollapsedAreDeterministicWhenScrubbed) {
  Profiler profiler;
  {
    ScopedPhase run(&profiler, "run");
    ScopedPhase step(&profiler, "step");
    step.AddUnits(3);
  }
  const std::string json = JsonOf(profiler);
  EXPECT_NE(json.find("\"schema\":\"vrl.profile.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"run;step\""), std::string::npos);
  EXPECT_NE(json.find("\"frames\":2"), std::string::npos);
  // Scrubbed exports are byte-stable across runs of the same workload.
  Profiler again;
  {
    ScopedPhase run(&again, "run");
    ScopedPhase step(&again, "step");
    step.AddUnits(3);
  }
  EXPECT_EQ(JsonOf(again), json);
  // Scrubbed collapsed stacks weight by calls so flamegraphs still render.
  std::ostringstream collapsed;
  WriteCollapsedStacks(collapsed, profiler.Snapshot(/*scrub_times=*/true));
  EXPECT_NE(collapsed.str().find("run;step 1\n"), std::string::npos);

  std::ostringstream text;
  WriteProfileText(text, profiler.Snapshot());
  EXPECT_NE(text.str().find("phase profile"), std::string::npos);
  EXPECT_NE(text.str().find("step"), std::string::npos);
}

TEST(ProfileReport, ScrubZeroesTimesButKeepsCounts) {
  Profiler profiler;
  { ScopedPhase run(&profiler, "run"); }
  const auto scrubbed = profiler.Snapshot(/*scrub_times=*/true);
  EXPECT_EQ(scrubbed.nodes[0].calls, 1u);
  EXPECT_EQ(scrubbed.nodes[0].inclusive_s, 0.0);
  EXPECT_EQ(scrubbed.nodes[0].exclusive_s, 0.0);
  const auto raw = profiler.Snapshot();
  EXPECT_GT(raw.nodes[0].inclusive_s, 0.0);
}

// -- Determinism across thread counts (acceptance criterion) ------------------

TEST(ProfDeterminism, EvaluationSuiteTreeIsByteIdenticalAcrossThreads) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);

  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    telemetry::RecorderOptions recorder_options;
    recorder_options.profile_phases = true;
    telemetry::Recorder sink(recorder_options);
    core::ExperimentOptions options;
    options.windows = 2;
    options.threads = threads;
    options.telemetry = &sink;
    const auto results = core::RunEvaluationSuite(system, options);
    EXPECT_FALSE(results.empty());
    ASSERT_NE(sink.profiler(), nullptr);
    std::ostringstream os;
    WriteProfileJson(os, sink.profiler()->Snapshot(/*scrub_times=*/true));
    const std::string bytes = os.str();
    EXPECT_GT(sink.profiler()->frames(), 0u);
    if (threads == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "diverged at " << threads << " threads";
    }
  }
}

// -- /profile endpoint over a real socket -------------------------------------

TEST(ProfileEndpoint, Returns404UntilAProfilingRecorderPublishes) {
  obs::MonitorServer server;
  ASSERT_GT(server.port(), 0);
  telemetry::Recorder plain;  // no profiler attached
  plain.counter("ops").Add(1);
  server.Publish(plain);
  EXPECT_EQ(StatusOf(HttpGet(server.port(), "/profile")), 404);

  telemetry::RecorderOptions recorder_options;
  recorder_options.profile_phases = true;
  telemetry::Recorder profiled(recorder_options);
  { ScopedPhase run(profiled.profiler(), "run"); }
  server.Publish(profiled);
  const std::string response = HttpGet(server.port(), "/profile");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(BodyOf(response).find("\"schema\":\"vrl.profile.v1\""),
            std::string::npos);
}

TEST(ProfileEndpoint, ServesLiveTreeMidCampaignWithSelfObservability) {
  obs::PlaneOptions plane_options;
  plane_options.serve = true;
  obs::MonitorPlane plane(plane_options);
  ASSERT_NE(plane.server(), nullptr);
  const int port = plane.server()->port();

  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  telemetry::RecorderOptions recorder_options;
  recorder_options.profile_phases = true;
  telemetry::Recorder recorder(recorder_options);
  fault::FaultSchedule faults(0xFA11ULL);
  retention::VrtParams vrt;
  faults.Add(std::make_unique<fault::VrtFlipInjector>(vrt));

  std::string mid_run_profile;
  std::string mid_run_collapsed;
  core::FaultCampaignOptions options;
  options.windows = 4;
  options.adaptive = true;
  options.telemetry = &recorder;
  options.on_window = [&](std::size_t windows_done, Cycles) {
    plane.Sample(recorder);
    if (windows_done == 2) {
      // The "curl /profile during a running campaign" moment.
      mid_run_profile = HttpGet(port, "/profile");
      mid_run_collapsed = HttpGet(port, "/profile?format=collapsed");
    }
  };
  system.RunFaultCampaign("VRL", faults, options);
  plane.Sample(recorder);

  ASSERT_FALSE(mid_run_profile.empty());
  EXPECT_EQ(StatusOf(mid_run_profile), 200);
  const std::string body = BodyOf(mid_run_profile);
  EXPECT_NE(body.find("\"schema\":\"vrl.profile.v1\""), std::string::npos);
  // The campaign frame is open mid-run; its node is already in the tree.
  EXPECT_NE(body.find("\"name\":\"campaign.run\""), std::string::npos);
  EXPECT_EQ(StatusOf(mid_run_collapsed), 200);
  EXPECT_NE(mid_run_collapsed.find("text/plain"), std::string::npos);

  // The final publish renders profiler gauges and the server's own scrape
  // counters (satellite: self-observability) in /metrics.
  const std::string metrics = BodyOf(HttpGet(port, "/metrics"));
  EXPECT_NE(metrics.find("vrl_prof_frames"), std::string::npos);
  EXPECT_NE(metrics.find("vrl_prof_drops"), std::string::npos);
  EXPECT_NE(metrics.find(
                "vrl_obs_scrape_requests_total{endpoint=\"profile\"} 2"),
            std::string::npos);
  EXPECT_NE(metrics.find("vrl_obs_scrape_seconds_total"), std::string::npos);
}

// -- diff_profile.py round-trip (golden pair) ---------------------------------

TEST(DiffProfileScript, PassesOnIdenticalPairFailsOnCountDrift) {
  if (RunCommand("python3 -c pass >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const std::string script = std::string(VRL_SCRIPTS_DIR) + "/diff_profile.py";
  const std::string base_path = TempPath("prof_diff_base.json");
  const std::string same_path = TempPath("prof_diff_same.json");
  const std::string drift_path = TempPath("prof_diff_drift.json");

  const auto record = [](Profiler& p, int extra_calls) {
    {
      ScopedPhase run(&p, "run");
      ScopedPhase step(&p, "step");
      step.AddUnits(8);
    }
    for (int i = 0; i < extra_calls; ++i) {
      ScopedPhase run(&p, "run");
    }
  };
  Profiler base, same, drift;
  record(base, 0);
  record(same, 0);
  record(drift, 2);  // count drift: deterministic counts changed
  for (const auto& [path, profiler] :
       {std::pair<const std::string&, Profiler&>{base_path, base},
        {same_path, same},
        {drift_path, drift}}) {
    std::ofstream os(path);
    WriteProfileJson(os, profiler.Snapshot(/*scrub_times=*/true));
  }

  EXPECT_EQ(RunCommand("python3 " + script + " " + base_path + " " +
                       same_path + " >/dev/null 2>&1"),
            0);
  EXPECT_EQ(RunCommand("python3 " + script + " " + base_path + " " +
                       drift_path + " >/dev/null 2>&1"),
            1);
  // --allow-count-drift downgrades the count change to a note.
  EXPECT_EQ(RunCommand("python3 " + script + " --allow-count-drift " +
                       base_path + " " + drift_path + " >/dev/null 2>&1"),
            0);
  // The validator accepts what the exporter writes.
  EXPECT_EQ(RunCommand("python3 " + std::string(VRL_SCRIPTS_DIR) +
                       "/check_profile_report.py " + base_path +
                       " --expect-phase step >/dev/null 2>&1"),
            0);
}

}  // namespace
}  // namespace vrl::prof
