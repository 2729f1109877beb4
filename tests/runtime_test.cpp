// Tests for the crash-tolerant execution runtime (src/runtime/): the leg
// journal's durability and corruption handling, the payload codec's exact
// round trips, the supervised worker pool's retry/degradation ladder, and
// the headline guarantee — a crashed-and-resumed campaign produces results
// byte-identical to an uninterrupted one.

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/experiments.hpp"
#include "core/sweep.hpp"
#include "runtime/codec.hpp"
#include "runtime/journal.hpp"
#include "runtime/resilient.hpp"
#include "runtime/runner.hpp"
#include "runtime/supervisor.hpp"
#include "telemetry/recorder.hpp"

namespace {

using namespace vrl;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// A simple deterministic leg function whose payload identifies the leg.
std::string DemoLeg(std::size_t leg) {
  return "leg " + std::to_string(leg) + "\nsquare " +
         std::to_string(leg * leg) + "\n";
}

/// Environment-variable guard: sets on construction, unsets on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

// -- FNV-1a 64 ---------------------------------------------------------------

TEST(Fnv1a64, MatchesPublishedVectors) {
  // Offset basis and the classic reference vectors — scripts/check_journal.py
  // re-implements this hash and must agree forever.
  EXPECT_EQ(runtime::Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(runtime::Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(runtime::Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64, ToHex16IsFixedWidthLowercase) {
  EXPECT_EQ(runtime::ToHex16(0), "0000000000000000");
  EXPECT_EQ(runtime::ToHex16(0xcbf29ce484222325ULL), "cbf29ce484222325");
}

// -- Codec -------------------------------------------------------------------

TEST(Codec, DoubleRoundTripsExactly) {
  const double values[] = {0.0,     -0.0,   1.0,    0.1,
                           -1.5e-300, 3.0e300, 1.0 / 3.0};
  for (const double v : values) {
    EXPECT_EQ(runtime::DecodeDouble(runtime::EncodeDouble(v)), v);
  }
  EXPECT_TRUE(std::isnan(runtime::DecodeDouble(runtime::EncodeDouble(
      std::nan("")))));
  EXPECT_EQ(runtime::DecodeDouble("inf"), HUGE_VAL);
  EXPECT_EQ(runtime::DecodeDouble("-inf"), -HUGE_VAL);
}

TEST(Codec, TokenEscapingRoundTrips) {
  const std::string cases[] = {"", "plain", "two words", "100%",
                               "tab\tnewline\ncr\r", "%%% %"};
  for (const std::string& text : cases) {
    const std::string token = runtime::EscapeToken(text);
    EXPECT_EQ(token.find(' '), std::string::npos) << token;
    EXPECT_EQ(token.find('\n'), std::string::npos) << token;
    EXPECT_EQ(runtime::UnescapeToken(token), text);
  }
  // The empty string needs a non-empty token to survive tokenization.
  EXPECT_FALSE(runtime::EscapeToken("").empty());
}

TEST(Codec, SnapshotRoundTripDropsTimersOnly) {
  telemetry::Recorder recorder;
  recorder.metrics().GetCounter("campaign.windows").Add(7);
  recorder.metrics().GetGauge("adaptive.margin").Set(0.125);
  auto& hist = recorder.metrics().GetHistogram("policy.bin", {1.0, 2.0});
  hist.Observe(0.5);
  hist.Observe(5.0);

  std::ostringstream os;
  runtime::EncodeSnapshot(os, recorder.Snapshot());
  runtime::LineCursor cursor(os.str());
  const telemetry::MetricsSnapshot decoded = runtime::DecodeSnapshot(cursor);
  EXPECT_TRUE(cursor.AtEnd());

  ASSERT_EQ(decoded.metrics.count("campaign.windows"), 1u);
  EXPECT_EQ(decoded.metrics.at("campaign.windows").count, 7u);
  EXPECT_EQ(decoded.metrics.at("adaptive.margin").value, 0.125);
  ASSERT_EQ(decoded.metrics.count("policy.bin"), 1u);
  EXPECT_EQ(decoded.metrics.at("policy.bin").counts.size(), 3u);

  // Re-encoding the decoded snapshot is byte-identical — the codec is a
  // fixed point, which is what resume byte-identity leans on.
  std::ostringstream os2;
  runtime::EncodeSnapshot(os2, decoded);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(Codec, CampaignReportRoundTrips) {
  fault::CampaignReport report;
  report.refreshes = 123;
  report.partial_refreshes = 45;
  report.refresh_busy_cycles = 678900;
  report.detected_failures = 3;
  report.corrected_failures = 2;
  report.unrecovered_failures = 1;
  report.min_margin = -0.25;
  report.adaptive.demotions = 4;
  report.adaptive.in_fallback = true;
  fault::SensingFailureEvent event;
  event.at_s = 0.0625;
  event.row = 42;
  event.margin = -0.5;
  event.was_full = true;
  event.corrected = false;
  report.events.push_back(event);

  std::ostringstream os;
  runtime::EncodeCampaignReport(os, report);
  runtime::LineCursor cursor(os.str());
  EXPECT_EQ(runtime::DecodeCampaignReport(cursor), report);
  EXPECT_TRUE(cursor.AtEnd());
}

TEST(Codec, SweepResultRoundTrips) {
  core::SweepResult result;
  result.point.nbits = 3;
  result.point.partial_target = 0.9;
  result.point.subarrays = 4;
  result.vrl_normalized = 0.625;
  result.mean_mprsf = 2.5;
  result.clamped_rows = 17;

  std::ostringstream os;
  runtime::EncodeSweepResult(os, result);
  runtime::LineCursor cursor(os.str());
  EXPECT_EQ(runtime::DecodeSweepResult(cursor), result);
}

// -- LegJournal --------------------------------------------------------------

TEST(LegJournal, CreatesValidatesAndReloads) {
  const std::string path = TempPath("journal_basic.jsonl");
  std::remove(path.c_str());
  {
    runtime::LegJournal journal(path, "demo", 0x1234, 3);
    EXPECT_TRUE(journal.committed().empty());
    journal.Append(0, DemoLeg(0));
    journal.Append(1, DemoLeg(1));
  }
  runtime::LegJournal reopened(path, "demo", 0x1234, 3);
  ASSERT_EQ(reopened.committed().size(), 2u);
  EXPECT_EQ(reopened.committed()[0], DemoLeg(0));
  EXPECT_EQ(reopened.committed()[1], DemoLeg(1));
  EXPECT_FALSE(reopened.dropped_tail());
}

TEST(LegJournal, OutOfOrderAppendThrows) {
  const std::string path = TempPath("journal_order.jsonl");
  std::remove(path.c_str());
  runtime::LegJournal journal(path, "demo", 1, 3);
  EXPECT_THROW(journal.Append(1, "skipping leg 0"), ConfigError);
}

TEST(LegJournal, TornFinalLineIsDroppedAndRerun) {
  const std::string path = TempPath("journal_torn.jsonl");
  std::remove(path.c_str());
  {
    runtime::LegJournal journal(path, "demo", 2, 3);
    journal.Append(0, DemoLeg(0));
    journal.Append(1, DemoLeg(1));
  }
  // Simulate a crash mid-append: chop bytes off the final line.
  std::string contents = ReadFile(path);
  contents.resize(contents.size() - 10);
  std::ofstream(path, std::ios::trunc) << contents;

  runtime::LegJournal reopened(path, "demo", 2, 3);
  EXPECT_TRUE(reopened.dropped_tail());
  ASSERT_EQ(reopened.committed().size(), 1u);
  EXPECT_EQ(reopened.committed()[0], DemoLeg(0));
}

TEST(LegJournal, EarlierCorruptionIsAHardError) {
  const std::string path = TempPath("journal_corrupt.jsonl");
  std::remove(path.c_str());
  {
    runtime::LegJournal journal(path, "demo", 2, 3);
    journal.Append(0, DemoLeg(0));
    journal.Append(1, DemoLeg(1));
  }
  // Flip a payload byte in the *first* leg record (not the final line).
  std::string contents = ReadFile(path);
  const std::size_t at = contents.find("square 0");
  ASSERT_NE(at, std::string::npos);
  contents[at] = 'X';
  std::ofstream(path, std::ios::trunc) << contents;
  EXPECT_THROW(runtime::LegJournal(path, "demo", 2, 3), ParseError);
}

TEST(LegJournal, HeaderMismatchRefusesResume) {
  const std::string path = TempPath("journal_header.jsonl");
  std::remove(path.c_str());
  { runtime::LegJournal journal(path, "demo", 7, 3); }
  EXPECT_THROW(runtime::LegJournal(path, "demo", 8, 3), ConfigError);
  EXPECT_THROW(runtime::LegJournal(path, "other", 7, 3), ConfigError);
  EXPECT_THROW(runtime::LegJournal(path, "demo", 7, 4), ConfigError);
}

TEST(LegJournal, PayloadsSurviveEscapingHostileBytes) {
  const std::string path = TempPath("journal_escape.jsonl");
  std::remove(path.c_str());
  const std::string hostile = "quote \" slash \\ newline \n tab \t done";
  {
    runtime::LegJournal journal(path, "demo", 3, 1);
    journal.Append(0, hostile);
  }
  runtime::LegJournal reopened(path, "demo", 3, 1);
  ASSERT_EQ(reopened.committed().size(), 1u);
  EXPECT_EQ(reopened.committed()[0], hostile);
}

// -- ParallelForCommit -------------------------------------------------------

TEST(ParallelForCommit, CommitsInOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> slots(64);
  std::vector<std::size_t> order;
  ParallelForCommit(
      "test_commit", slots.size(),
      [&](std::size_t i) { slots[i] = std::to_string(i); },
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(slots[i], std::to_string(i));
        order.push_back(i);
      },
      4);
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForCommit, BodyExceptionPropagates) {
  EXPECT_THROW(ParallelForCommit(
                   "test_commit_throw", 8,
                   [](std::size_t i) {
                     if (i == 5) {
                       throw ConfigError("leg 5 is cursed");
                     }
                   },
                   [](std::size_t) {}, 2),
               ConfigError);
}

// -- RunJournaledLegs --------------------------------------------------------

TEST(RunJournaledLegs, NoJournalRunsEverythingInProcess) {
  runtime::RuntimeOptions options;
  runtime::RunnerStats stats;
  const auto payloads =
      runtime::RunJournaledLegs("demo", 1, 4, DemoLeg, options, &stats);
  ASSERT_EQ(payloads.size(), 4u);
  EXPECT_EQ(payloads[2], DemoLeg(2));
  EXPECT_EQ(stats.executed, 4u);
  EXPECT_EQ(stats.resumed, 0u);
  EXPECT_EQ(stats.journal_commits, 0u);
}

TEST(RunJournaledLegs, ResumeSkipsCommittedLegs) {
  const std::string path = TempPath("runner_resume.jsonl");
  std::remove(path.c_str());
  runtime::RuntimeOptions options;
  options.journal_path = path;

  // Pre-commit the first two legs, as a crashed run would have.
  {
    runtime::LegJournal journal(path, "demo", 99, 5);
    journal.Append(0, DemoLeg(0));
    journal.Append(1, DemoLeg(1));
  }

  // Leg bodies run on pool threads, in any order.
  std::mutex executed_mutex;
  std::vector<std::size_t> executed;
  runtime::RunnerStats stats;
  const auto payloads = runtime::RunJournaledLegs(
      "demo", 99, 5,
      [&](std::size_t leg) {
        const std::lock_guard<std::mutex> lock(executed_mutex);
        executed.push_back(leg);
        return DemoLeg(leg);
      },
      options, &stats);

  std::sort(executed.begin(), executed.end());
  EXPECT_EQ(executed, (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(stats.resumed, 2u);
  EXPECT_EQ(stats.executed, 3u);
  ASSERT_EQ(payloads.size(), 5u);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(payloads[i], DemoLeg(i));
  }

  // A fully committed journal resumes everything: leg_fn must not run.
  const auto replay = runtime::RunJournaledLegs(
      "demo", 99, 5,
      [](std::size_t) -> std::string {
        ADD_FAILURE() << "leg_fn ran despite a complete journal";
        return "";
      },
      options);
  EXPECT_EQ(replay, payloads);
}

TEST(RunJournaledLegs, RuntimeTelemetryCountsResumes) {
  const std::string path = TempPath("runner_counters.jsonl");
  std::remove(path.c_str());
  {
    runtime::LegJournal journal(path, "demo", 5, 3);
    journal.Append(0, DemoLeg(0));
  }
  telemetry::Recorder runtime_rec;
  runtime::RuntimeOptions options;
  options.journal_path = path;
  options.runtime_telemetry = &runtime_rec;
  runtime::RunJournaledLegs("demo", 5, 3, DemoLeg, options);
  const auto snapshot = runtime_rec.Snapshot();
  EXPECT_EQ(snapshot.metrics.at("runtime.legs_resumed").count, 1u);
  EXPECT_EQ(snapshot.metrics.at("runtime.legs_executed").count, 2u);
  EXPECT_EQ(snapshot.metrics.at("runtime.journal_commits").count, 2u);
}

TEST(RunJournaledLegs, PayloadsAreThreadCountInvariant) {
  core::VrlConfig base;
  std::vector<core::SweepPoint> points(6);
  points[1].nbits = 3;
  points[2].partial_target = 0.9;
  points[3].retention_guardband = 1.2;
  points[4].subarrays = 4;
  points[5].nbits = 1;

  const auto run = [&](std::size_t threads) {
    ScopedThreadCount scoped(threads);
    runtime::RuntimeOptions options;
    return runtime::RunSweep(base, points, trace::SuiteWorkload("facesim"), 2,
                             options);
  };
  const auto at1 = run(1);
  const auto at2 = run(2);
  const auto at8 = run(8);
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
}

// -- Crash injection + resume (the headline guarantee) -----------------------

TEST(CrashResume, SigkilledRunResumesByteIdentical) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = TempPath("crash_resume.jsonl");
  std::remove(path.c_str());

  runtime::RuntimeOptions options;
  options.journal_path = path;

  // The injector SIGKILLs the process right after the 2nd durable commit —
  // no destructors, no flushes, exactly like a power cut.
  EXPECT_EXIT(
      {
        ::setenv("VRL_CRASH_AFTER_LEG", "2", 1);
        runtime::RunJournaledLegs("crash_demo", 11, 4, DemoLeg, options);
        ::_exit(0);  // Unreachable when the injector fires.
      },
      testing::KilledBySignal(SIGKILL), "");

  // The journal must hold exactly the committed prefix.
  {
    runtime::LegJournal journal(path, "crash_demo", 11, 4);
    ASSERT_EQ(journal.committed().size(), 2u);
  }

  // Resume and compare with an uninterrupted run: byte-identical.
  runtime::RunnerStats stats;
  const auto resumed =
      runtime::RunJournaledLegs("crash_demo", 11, 4, DemoLeg, options, &stats);
  EXPECT_EQ(stats.resumed, 2u);
  const auto clean = runtime::RunJournaledLegs("crash_demo", 11, 4, DemoLeg,
                                               runtime::RuntimeOptions{});
  EXPECT_EQ(resumed, clean);
}

TEST(CrashResume, ExternalSigkillMidCampaignResumes) {
  const std::string path = TempPath("sigkill_resume.jsonl");
  std::remove(path.c_str());

  // Run the campaign in a fork and SIGKILL it from outside once the journal
  // shows progress — the "operator pulls the plug" scenario, no cooperation
  // from the victim.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    runtime::RuntimeOptions options;
    options.journal_path = path;
    runtime::RunJournaledLegs(
        "ext_kill", 21, 6,
        [](std::size_t leg) {
          if (leg >= 2) {
            // Hold the door open so the parent's SIGKILL lands mid-run.
            std::this_thread::sleep_for(std::chrono::seconds(30));
          }
          return DemoLeg(leg);
        },
        options);
    ::_exit(0);
  }
  // Wait until at least one leg committed, then kill without warning.
  for (int i = 0; i < 500; ++i) {
    std::ifstream is(path);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    if (text.find("\"index\":1") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  runtime::RuntimeOptions options;
  options.journal_path = path;
  runtime::RunnerStats stats;
  const auto resumed =
      runtime::RunJournaledLegs("ext_kill", 21, 6, DemoLeg, options, &stats);
  EXPECT_GE(stats.resumed, 2u);
  const auto clean = runtime::RunJournaledLegs("ext_kill", 21, 6, DemoLeg,
                                               runtime::RuntimeOptions{});
  EXPECT_EQ(resumed, clean);
}

// -- Supervised workers ------------------------------------------------------

TEST(Workers, HealthyPoolMatchesInProcessExecution) {
  runtime::RuntimeOptions inproc;
  const auto expected =
      runtime::RunJournaledLegs("pool_demo", 31, 5, DemoLeg, inproc);

  runtime::RuntimeOptions workers;
  workers.workers = 2;
  runtime::RunnerStats stats;
  const auto actual =
      runtime::RunJournaledLegs("pool_demo", 31, 5, DemoLeg, workers, &stats);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(stats.worker_crashes, 0u);
  EXPECT_EQ(stats.leg_degradations, 0u);
  EXPECT_FALSE(stats.pool_degraded);
}

TEST(Workers, CrashingWorkerRetriesThenDegradesPerLeg) {
  ScopedEnv crash("VRL_WORKER_CRASH", "kill");
  telemetry::Recorder runtime_rec;
  runtime::RuntimeOptions options;
  options.workers = 1;
  options.max_retries = 2;
  options.degrade_after = 100;  // Keep the pool alive; degrade per leg.
  options.backoff_base_s = 0.01;
  options.backoff_cap_s = 0.05;
  options.runtime_telemetry = &runtime_rec;

  runtime::RunnerStats stats;
  const auto payloads =
      runtime::RunJournaledLegs("crashy", 41, 2, DemoLeg, options, &stats);

  // Every worker attempt died, yet the campaign finished with correct
  // results: each leg burned its 2 attempts, retried once with backoff,
  // then fell back to in-process execution (which ignores the chaos env).
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], DemoLeg(0));
  EXPECT_EQ(payloads[1], DemoLeg(1));
  EXPECT_EQ(stats.worker_crashes, 4u);  // 2 legs x 2 attempts.
  EXPECT_EQ(stats.worker_retries, 2u);  // 1 retry per leg.
  EXPECT_EQ(stats.leg_degradations, 2u);
  EXPECT_FALSE(stats.pool_degraded);

  const auto snapshot = runtime_rec.Snapshot();
  EXPECT_EQ(snapshot.metrics.at("runtime.worker_crashes").count, 4u);
  EXPECT_EQ(snapshot.metrics.at("runtime.worker_retries").count, 2u);
  EXPECT_EQ(snapshot.metrics.at("runtime.leg_degradations").count, 2u);
}

TEST(Workers, ConsecutiveFailuresDegradeTheWholePool) {
  ScopedEnv crash("VRL_WORKER_CRASH", "kill");
  runtime::RuntimeOptions options;
  options.workers = 2;
  options.max_retries = 3;
  options.degrade_after = 2;  // Give up on workers quickly.
  options.backoff_base_s = 0.01;

  runtime::RunnerStats stats;
  const auto payloads =
      runtime::RunJournaledLegs("doomed", 43, 4, DemoLeg, options, &stats);
  ASSERT_EQ(payloads.size(), 4u);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(payloads[i], DemoLeg(i));
  }
  EXPECT_TRUE(stats.pool_degraded);
  EXPECT_GE(stats.worker_crashes, 2u);
}

TEST(Workers, HangingWorkerTimesOutAndRecovers) {
  ScopedEnv hang("VRL_WORKER_CRASH", "hang");
  runtime::RuntimeOptions options;
  options.workers = 1;
  options.leg_timeout_s = 0.2;  // A silent child is dead after 200 ms.
  options.max_retries = 1;
  options.degrade_after = 1;

  runtime::RunnerStats stats;
  const auto payloads =
      runtime::RunJournaledLegs("hung", 47, 2, DemoLeg, options, &stats);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], DemoLeg(0));
  EXPECT_GE(stats.worker_timeouts, 1u);
  EXPECT_TRUE(stats.pool_degraded);
}

TEST(Workers, WorkerErrorFrameSurfacesTheMessage) {
  // A leg that *throws* in the worker reports an 'E' frame; after retries
  // it degrades in-process, where the same throw must finally propagate.
  runtime::RuntimeOptions options;
  options.workers = 1;
  options.max_retries = 1;
  options.degrade_after = 100;
  runtime::RunnerStats stats;
  try {
    runtime::RunJournaledLegs(
        "throwy", 53, 1,
        [](std::size_t) -> std::string {
          throw ConfigError("synthetic leg failure");
        },
        options, &stats);
    FAIL() << "expected the leg exception to propagate";
  } catch (const std::exception& error) {
    EXPECT_NE(std::string(error.what()).find("synthetic leg failure"),
              std::string::npos);
  }
  EXPECT_GE(stats.worker_errors, 1u);
}

TEST(Workers, InvalidOptionsThrow) {
  runtime::WorkerPoolOptions bad;
  bad.workers = 0;
  EXPECT_THROW(runtime::RunSupervised(
                   0, 1, DemoLeg, [](std::size_t, const std::string&) {}, bad,
                   nullptr),
               ConfigError);
  bad.workers = 1;
  bad.leg_timeout_s = -1.0;
  EXPECT_THROW(runtime::RunSupervised(
                   0, 1, DemoLeg, [](std::size_t, const std::string&) {}, bad,
                   nullptr),
               ConfigError);
}

// -- Fleet telemetry federation (docs/OBSERVABILITY.md) ----------------------

/// Decodes the supervisor 'S' frame at the start of `data`, returning the
/// frame and advancing `data` past it.
telemetry::WorkerFrame DecodeSFrame(std::string_view& data) {
  EXPECT_GE(data.size(), 9u);
  EXPECT_EQ(data[0], 'S');
  std::uint64_t length = 0;
  for (int i = 0; i < 8; ++i) {
    length |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(data[1 + static_cast<std::size_t>(
                                                          i)]))
              << (8 * i);
  }
  EXPECT_GE(data.size(), 9 + length);
  const std::string payload(data.substr(9, length));
  data.remove_prefix(9 + static_cast<std::size_t>(length));
  runtime::LineCursor cursor(payload);
  return runtime::DecodeWorkerFrame(cursor);
}

/// Drains everything currently readable from `fd` without blocking.
std::string DrainPipe(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  std::string data;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n <= 0) {
      break;
    }
    data.append(buffer, static_cast<std::size_t>(n));
  }
  ::fcntl(fd, F_SETFL, flags);
  return data;
}

TEST(Codec, WorkerFrameRoundTrips) {
  telemetry::WorkerFrame frame;
  frame.leg = 2;
  frame.attempt = 3;
  frame.seq = 7;
  frame.frames_dropped = 4;
  frame.events_recorded = 99;
  frame.events_dropped = 5;
  telemetry::Recorder scratch;
  scratch.counter("policy.full_refreshes").Add(12);
  scratch.gauge("campaign.progress_cycles").Set(1.5);
  scratch.histogram("policy.slack", {1.0, 2.0, 4.0}).Observe(3.0);
  frame.delta = scratch.Snapshot();
  frame.events = 2;

  std::ostringstream os;
  runtime::EncodeWorkerFrame(os, frame);
  runtime::LineCursor cursor(os.str());
  EXPECT_EQ(runtime::DecodeWorkerFrame(cursor), frame);
}

TEST(Workers, TelemetryFramesFederateAcrossThePool) {
  // Worker children publish their leg's counters as 'S' frames; the driver
  // must see every delta exactly once and fold a correct aggregate, while
  // the result payloads stay byte-identical to in-process execution.
  const auto leg_fn = [](std::size_t leg) {
    if (runtime::InWorkerChild()) {
      telemetry::Recorder rec;
      rec.counter("demo.widgets").Add(leg + 1);
      rec.lineage().Add(
          {telemetry::EventKind::kFullRefresh, 0, leg, 0, 0, 0.0});
      runtime::WorkerPublishTelemetry(rec, /*force=*/true);
    }
    return DemoLeg(leg);
  };

  telemetry::FederatedRegistry registry;
  std::vector<telemetry::FleetStatus> fleets;
  runtime::RuntimeOptions options;
  options.workers = 2;
  options.fleet_interval_s = 0.01;
  options.on_worker_frame = [&](std::size_t worker,
                                const telemetry::WorkerFrame& frame) {
    registry.Absorb(std::to_string(worker), frame);
  };
  options.on_fleet = [&](const telemetry::FleetStatus& fleet) {
    fleets.push_back(fleet);
  };

  const auto payloads =
      runtime::RunJournaledLegs("federated", 59, 4, leg_fn, options);
  ASSERT_EQ(payloads.size(), 4u);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(payloads[i], DemoLeg(i));  // Frames never touch results.
  }

  // 1+2+3+4 widgets across four legs, no frame lost on a healthy pipe.
  EXPECT_EQ(registry.Aggregate().metrics.at("demo.widgets").count, 10u);
  EXPECT_EQ(registry.members().size(), 4u);  // One member per (worker, leg).
  EXPECT_GE(registry.frames_received(), 4u);
  EXPECT_EQ(registry.frames_dropped(), 0u);
  EXPECT_EQ(registry.events_received(), 4u);

  ASSERT_FALSE(fleets.empty());
  const telemetry::FleetStatus& last = fleets.back();
  EXPECT_EQ(last.workers_configured, 2u);
  EXPECT_EQ(last.legs_total, 4u);
  EXPECT_EQ(last.legs_committed, 4u);
  EXPECT_EQ(last.legs_running, 0u);
  EXPECT_EQ(last.legs_pending, 0u);
  EXPECT_EQ(last.frames_received, registry.frames_received());
  EXPECT_FALSE(last.pool_degraded);
}

TEST(Workers, SlowPipeDropsWholeFramesAndCountsThemExactly) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
#ifdef F_SETPIPE_SZ
  ::fcntl(fds[1], F_SETPIPE_SZ, 4096);  // Artificially tiny pipe.
#endif
  const int previous = runtime::SetWorkerPipeForTesting(fds[1]);
  telemetry::Recorder rec;

  rec.counter("demo.ticks").Add(3);
  runtime::WorkerPublishTelemetry(rec, /*force=*/true);  // Delivered.

  // Fill the pipe to the last byte so the next frame cannot even start.
  const int flags = ::fcntl(fds[1], F_GETFL);
  ::fcntl(fds[1], F_SETFL, flags | O_NONBLOCK);
  const char filler = '#';
  while (::write(fds[1], &filler, 1) == 1) {
  }
  ::fcntl(fds[1], F_SETFL, flags);

  rec.counter("demo.ticks").Add(4);
  runtime::WorkerPublishTelemetry(rec, /*force=*/true);  // Dropped whole.

  std::string first = DrainPipe(fds[0]);
  std::string_view first_view = first;
  const telemetry::WorkerFrame delivered = DecodeSFrame(first_view);
  EXPECT_EQ(delivered.seq, 1u);
  EXPECT_EQ(delivered.frames_dropped, 0u);
  EXPECT_EQ(delivered.delta.metrics.at("demo.ticks").count, 3u);
  // Whatever remains is filler, never a torn frame.
  EXPECT_EQ(first_view.find('S'), std::string_view::npos);

  rec.counter("demo.ticks").Add(5);
  runtime::WorkerPublishTelemetry(rec, /*force=*/true);  // Delivered again.
  std::string second = DrainPipe(fds[0]);
  std::string_view second_view = second;
  const telemetry::WorkerFrame recovered = DecodeSFrame(second_view);

  // The delivered frame after a drop carries the accumulated delta (4+5)
  // and the cumulative drop counter — nothing was lost, only freshness.
  EXPECT_EQ(recovered.seq, 2u);
  EXPECT_EQ(recovered.frames_dropped, 1u);
  EXPECT_EQ(recovered.delta.metrics.at("demo.ticks").count, 9u);

  telemetry::FederatedRegistry registry;
  registry.Absorb("0", delivered);
  registry.Absorb("0", recovered);
  EXPECT_EQ(registry.Aggregate().metrics.at("demo.ticks").count, 12u);
  EXPECT_EQ(registry.frames_dropped(), 1u);

  runtime::SetWorkerPipeForTesting(previous);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Workers, TryWriteFrameFinishesAStartedFrame) {
  // A frame larger than the pipe begins with a partial non-blocking write;
  // the rest must be written blocking so the stream stays framed.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
#ifdef F_SETPIPE_SZ
  ::fcntl(fds[1], F_SETPIPE_SZ, 4096);
#endif
  const std::string frame =
      runtime::FrameMessage('S', std::string(32768, 'x'));
  std::string received;
  std::thread reader([&] {
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::read(fds[0], buffer, sizeof buffer);
      if (n <= 0) {
        break;
      }
      received.append(buffer, static_cast<std::size_t>(n));
    }
  });
  EXPECT_TRUE(runtime::TryWriteFrame(fds[1], frame));
  ::close(fds[1]);
  reader.join();
  ::close(fds[0]);
  EXPECT_EQ(received, frame);
}

// -- Resilient drivers == core drivers ---------------------------------------

TEST(Resilient, RunSweepMatchesCore) {
  core::VrlConfig base;
  std::vector<core::SweepPoint> points(3);
  points[1].nbits = 3;
  points[2].partial_target = 0.9;
  const auto workload = trace::SuiteWorkload("facesim");

  const auto expected = core::RunSweep(base, points, workload, 2);
  const auto inproc = runtime::RunSweep(base, points, workload, 2,
                                        runtime::RuntimeOptions{});
  EXPECT_EQ(inproc, expected);

  runtime::RuntimeOptions workers;
  workers.workers = 2;
  const auto supervised =
      runtime::RunSweep(base, points, workload, 2, workers);
  EXPECT_EQ(supervised, expected);
}

TEST(Resilient, RunSweepResumesFromJournal) {
  core::VrlConfig base;
  std::vector<core::SweepPoint> points(3);
  points[1].subarrays = 4;
  const auto workload = trace::SuiteWorkload("facesim");
  const std::string path = TempPath("sweep_resume.jsonl");
  std::remove(path.c_str());

  runtime::RuntimeOptions options;
  options.journal_path = path;
  const auto first = runtime::RunSweep(base, points, workload, 2, options);

  runtime::RunnerStats stats;
  const auto second =
      runtime::RunSweep(base, points, workload, 2, options, &stats);
  EXPECT_EQ(stats.resumed, 3u);
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(second, first);

  // A different grid must refuse the same journal (config digest differs).
  points[2].nbits = 4;
  EXPECT_THROW(runtime::RunSweep(base, points, workload, 2, options),
               ConfigError);
}

TEST(Resilient, EvaluationSuiteMatchesCoreIncludingTelemetry) {
  core::VrlConfig config;
  const core::VrlSystem system(config);
  core::ExperimentOptions options;
  options.windows = 2;

  telemetry::Recorder core_sink;
  core::ExperimentOptions core_options = options;
  core_options.telemetry = &core_sink;
  const auto expected = core::RunEvaluationSuite(system, core_options);

  telemetry::Recorder runtime_sink;
  core::ExperimentOptions runtime_options = options;
  runtime_options.telemetry = &runtime_sink;
  const auto actual = runtime::RunEvaluationSuite(system, runtime_options,
                                                  runtime::RuntimeOptions{});
  EXPECT_EQ(actual, expected);

  // The absorbed leg snapshots must reproduce the core drivers' merged
  // metrics exactly.
  std::ostringstream core_metrics;
  runtime::EncodeSnapshot(core_metrics, core_sink.Snapshot());
  std::ostringstream runtime_metrics;
  runtime::EncodeSnapshot(runtime_metrics, runtime_sink.Snapshot());
  EXPECT_EQ(runtime_metrics.str(), core_metrics.str());
}

TEST(Resilient, ResilienceComparisonMatchesCore) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  const retention::VrtParams vrt;
  core::ExperimentOptions options;
  options.windows = 4;

  const auto expected =
      core::RunResilienceComparison(system, "VRL", vrt, options);
  const auto actual = runtime::RunResilienceComparison(
      system, "VRL", vrt, options, runtime::RuntimeOptions{});
  EXPECT_EQ(actual.jedec, expected.jedec);
  EXPECT_EQ(actual.plain, expected.plain);
  EXPECT_EQ(actual.adaptive, expected.adaptive);
}

}  // namespace
