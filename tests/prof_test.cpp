// Tests for the cost-attribution profiler (src/telemetry/profiler.hpp,
// docs/PROFILING.md): attribution-tree construction, RAII unwinding
// through exceptions, drop accounting at the node/depth caps, shard
// Absorb determinism (the
// evaluation suite's tree is byte-identical at any thread count once
// times are scrubbed), the sampled PhaseAccumulator, the exporters, and a
// scripts/diff_profile.py round-trip on a golden export pair.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
#include "telemetry/profile_export.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/recorder.hpp"

namespace vrl::telemetry {
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
  profiler.BeginPhase("refresh");
  profiler.EndPhase(32);
  profiler.BeginPhase("refresh");
  profiler.EndPhase(10);
  const auto snapshot = profiler.Snapshot();
  EXPECT_EQ(FindNode(snapshot, "refresh")->calls, 2u);
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
    p.BeginPhase("step");
    p.EndPhase(static_cast<std::uint64_t>(task) + 1);
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
  Profiler profiler;
  profiler.BeginPhase("run");
  PhaseAccumulator acc(&profiler, "tick", 4);
  for (int i = 0; i < 16; ++i) {
    acc.Start();
    if (i % 4 == 0) {  // Calls 0, 4, 8 and 12 are the timed ones.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    acc.Stop();
  }
  acc.Fold(100);
  // Never started: folds a node with no calls and no time.
  PhaseAccumulator idle(&profiler, "idle", 4);
  idle.Fold();
  profiler.EndPhase();
  const ProfileSnapshot snapshot = profiler.Snapshot();
  const ProfileNode* run = FindNode(snapshot, "run");
  const ProfileNode* tick = FindNode(snapshot, "run;tick");
  ASSERT_NE(run, nullptr);
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->calls, 16u);
  EXPECT_EQ(tick->units, 100u);
  // 4 timed calls of >= 1 ms each, scaled back up to 16 calls.
  EXPECT_GE(tick->inclusive_s, 0.016);
  // Every timed interval lies inside the open "run" frame, so the 4-fold
  // scale-up cannot exceed 4x the frame: catches a missing division by
  // the sample count (a 16-fold scale-up).
  EXPECT_LE(tick->inclusive_s, 4.0 * run->inclusive_s);
  EXPECT_EQ(tick->inclusive_s, tick->exclusive_s);
  const ProfileNode* untimed = FindNode(snapshot, "run;idle");
  ASSERT_NE(untimed, nullptr);
  EXPECT_EQ(untimed->calls, 0u);
  EXPECT_EQ(untimed->inclusive_s, 0.0);
  EXPECT_EQ(snapshot.frames, 17u);  // "run" plus the 16 folded calls.

  // A null profiler records nothing and needs no branch at the site.
  PhaseAccumulator off(nullptr, "tick");
  EXPECT_NO_THROW({
    off.Start();
    off.Stop();
    off.Fold(1);
  });
}

// -- Exporters ----------------------------------------------------------------

TEST(ProfileReport, JsonAndCollapsedAreDeterministicWhenScrubbed) {
  Profiler profiler;
  {
    ScopedPhase run(&profiler, "run");
    profiler.BeginPhase("step");
    profiler.EndPhase(3);
  }
  const std::string json = JsonOf(profiler);
  EXPECT_NE(json.find("\"schema\":\"vrl.profile.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"run;step\""), std::string::npos);
  EXPECT_NE(json.find("\"frames\":2"), std::string::npos);
  // Scrubbed exports are byte-stable across runs of the same workload.
  Profiler again;
  {
    ScopedPhase run(&again, "run");
    again.BeginPhase("step");
    again.EndPhase(3);
  }
  EXPECT_EQ(JsonOf(again), json);
  // Scrubbed collapsed stacks weight by calls so flamegraphs still render.
  std::ostringstream collapsed;
  WriteCollapsedStacks(collapsed, profiler.Snapshot(/*scrub_times=*/true));
  EXPECT_NE(collapsed.str().find("run;step 1\n"), std::string::npos);
}

TEST(ProfileReport, FileFormatFollowsTheExtensionInAnyCase) {
  Profiler profiler;
  { ScopedPhase run(&profiler, "run"); }
  const auto written = [&](const std::string& name) {
    const std::string path = TempPath(name);
    WriteProfileFile(path, profiler.Snapshot(/*scrub_times=*/true));
    std::ifstream is(path);
    std::string first_line;
    std::getline(is, first_line);
    std::remove(path.c_str());
    return first_line;
  };
  EXPECT_EQ(written("prof_p.JSON").rfind("{\"schema\":\"vrl.profile.v1\"", 0),
            0u);
  EXPECT_EQ(written("prof_p.Collapsed"), "run 1");
  // Any other extension is rejected before the file is created;
  // ".trace.json" too, though it ends in ".json".
  for (const char* name :
       {"prof_p.jsn", "prof_p.txt", "prof_p.Trace.Json", "prof_p.folded"}) {
    const std::string rejected = TempPath(name);
    EXPECT_THROW(WriteProfileFile(rejected, profiler.Snapshot()), ConfigError)
        << name;
    EXPECT_FALSE(std::ifstream(rejected).good()) << name;
  }
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
    RecorderOptions recorder_options;
    recorder_options.profile_phases = true;
    Recorder sink(recorder_options);
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
      p.BeginPhase("step");
      p.EndPhase(8);
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
}  // namespace vrl::telemetry
