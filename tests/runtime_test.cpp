// Tests for the crash-tolerant execution runtime (src/runtime/): the leg
// journal's durability and corruption handling, the payload codec's exact
// round trips and strict decoding, and the headline guarantee — a
// crashed-and-resumed campaign produces results byte-identical to an
// uninterrupted one.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/sweep.hpp"
#include "runtime/codec.hpp"
#include "runtime/journal.hpp"
#include "runtime/resilient.hpp"
#include "runtime/runner.hpp"
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

TEST(Codec, MalformedEscapesAndCountsAreParseErrors) {
  // Two hex digits and nothing else: no sign, no whitespace, no prefix.
  for (const char* token : {"a%-1", "a% 1", "a%+1", "a%0x", "a%G1", "a%4"}) {
    EXPECT_THROW(runtime::UnescapeToken(token), ParseError) << token;
  }
  EXPECT_EQ(runtime::UnescapeToken("a%41"), "aA");
  for (const char* line :
       {"metric c counter -1\nend_metrics\n",
        "metric c counter +1\nend_metrics\n",
        "metric c counter 1x\nend_metrics\n"}) {
    runtime::LineCursor cursor(line);
    EXPECT_THROW(runtime::DecodeSnapshot(cursor), ParseError) << line;
  }
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

/// A journal line sealed with a valid checksum, so only its fields can be
/// at fault.
std::string SealedLine(const std::string& prefix) {
  const std::string body = prefix + ",\"crc\":\"";
  return body + runtime::ToHex16(runtime::Fnv1a64(body)) + "\"}";
}

TEST(LegJournal, MalformedEscapesAndIndicesAreParseErrors) {
  for (const char* text : {"\\u 041", "\\u+041", "\\u-041", "\\u0x41"}) {
    EXPECT_THROW(runtime::JsonUnescape(text), ParseError) << text;
  }
  EXPECT_EQ(runtime::JsonUnescape("\\u0041"), "A");

  // A checksummed leg record whose index digits strtoull would accept.
  const std::string path = TempPath("journal_index.jsonl");
  std::remove(path.c_str());
  { runtime::LegJournal journal(path, "demo", 4, 2); }
  const std::string header = ReadFile(path);
  const std::string digest = runtime::ToHex16(runtime::Fnv1a64(DemoLeg(0)));
  const auto write_leg = [&](const std::string& index) {
    std::ofstream(path, std::ios::trunc)
        << header
        << SealedLine("{\"type\":\"leg\",\"index\":" + index +
                      ",\"digest\":\"" + digest +
                      "\",\"payload\":\"leg 0\\nsquare 0\\n\"")
        << '\n';
  };
  for (const char* index : {" 0", "+0", "-0", "0x"}) {
    write_leg(index);
    EXPECT_THROW(runtime::LegJournal(path, "demo", 4, 2), ParseError)
        << index;
  }
  // The well-formed record loads, so the cases above fail on the index.
  write_leg("0");
  EXPECT_EQ(runtime::LegJournal(path, "demo", 4, 2).committed().size(), 1u);
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

/// A leg function that records which legs it ran (bodies run on pool
/// threads, in any order) and returns DemoLeg's payload.
class RecordingLegs {
 public:
  std::string operator()(std::size_t leg) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ran_.push_back(leg);
    return DemoLeg(leg);
  }

  /// The legs run so far, sorted.
  std::vector<std::size_t> Ran() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::size_t> ran = ran_;
    std::sort(ran.begin(), ran.end());
    return ran;
  }

 private:
  std::mutex mutex_;
  std::vector<std::size_t> ran_;
};

TEST(RunJournaledLegs, NoJournalRunsEverythingInProcess) {
  RecordingLegs legs;
  const auto payloads =
      runtime::RunJournaledLegs("demo", 1, 4, std::ref(legs), "");
  ASSERT_EQ(payloads.size(), 4u);
  EXPECT_EQ(payloads[2], DemoLeg(2));
  EXPECT_EQ(legs.Ran(), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(RunJournaledLegs, ResumeSkipsCommittedLegs) {
  const std::string path = TempPath("runner_resume.jsonl");
  std::remove(path.c_str());

  // Pre-commit the first two legs, as a crashed run would have.
  {
    runtime::LegJournal journal(path, "demo", 99, 5);
    journal.Append(0, DemoLeg(0));
    journal.Append(1, DemoLeg(1));
  }

  RecordingLegs legs;
  const auto payloads =
      runtime::RunJournaledLegs("demo", 99, 5, std::ref(legs), path);
  EXPECT_EQ(legs.Ran(), (std::vector<std::size_t>{2, 3, 4}));
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
      path);
  EXPECT_EQ(replay, payloads);
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
    return runtime::RunSweep(base, points, trace::SuiteWorkload("facesim"),
                             2);
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

  // The injector SIGKILLs the process right after the 2nd durable commit —
  // no destructors, no flushes, exactly like a power cut.
  EXPECT_EXIT(
      {
        ::setenv("VRL_CRASH_AFTER_LEG", "2", 1);
        runtime::RunJournaledLegs("crash_demo", 11, 4, DemoLeg, path);
        ::_exit(0);  // Unreachable when the injector fires.
      },
      testing::KilledBySignal(SIGKILL), "");

  // The journal must hold exactly the committed prefix.
  {
    runtime::LegJournal journal(path, "crash_demo", 11, 4);
    ASSERT_EQ(journal.committed().size(), 2u);
  }

  // Resume runs only the uncommitted legs and matches an uninterrupted
  // run byte for byte.
  RecordingLegs legs;
  const auto resumed =
      runtime::RunJournaledLegs("crash_demo", 11, 4, std::ref(legs), path);
  EXPECT_EQ(legs.Ran(), (std::vector<std::size_t>{2, 3}));
  const auto clean =
      runtime::RunJournaledLegs("crash_demo", 11, 4, DemoLeg, "");
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
    runtime::RunJournaledLegs(
        "ext_kill", 21, 6,
        [](std::size_t leg) {
          if (leg >= 2) {
            // Hold the door open so the parent's SIGKILL lands mid-run.
            std::this_thread::sleep_for(std::chrono::seconds(30));
          }
          return DemoLeg(leg);
        },
        path);
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

  // Legs 0 and 1 were committed before the kill: the resume runs none of
  // them, and every leg past the journal's prefix exactly once.
  std::size_t committed = 0;
  {
    runtime::LegJournal journal(path, "ext_kill", 21, 6);
    committed = journal.committed().size();
  }
  ASSERT_GE(committed, 2u);
  RecordingLegs legs;
  const auto resumed =
      runtime::RunJournaledLegs("ext_kill", 21, 6, std::ref(legs), path);
  std::vector<std::size_t> expected;
  for (std::size_t leg = committed; leg < 6; ++leg) {
    expected.push_back(leg);
  }
  EXPECT_EQ(legs.Ran(), expected);
  const auto clean = runtime::RunJournaledLegs("ext_kill", 21, 6, DemoLeg, "");
  EXPECT_EQ(resumed, clean);
}

// -- The journaled sweep -----------------------------------------------------

TEST(Resilient, RunSweepResumesFromJournal) {
  core::VrlConfig base;
  std::vector<core::SweepPoint> points(3);
  points[1].subarrays = 4;
  const auto workload = trace::SuiteWorkload("facesim");
  const std::string path = TempPath("sweep_resume.jsonl");
  std::remove(path.c_str());

  const auto clean = runtime::RunSweep(base, points, workload, 2);

  // Commit legs 0 and 1 with marked results no sweep computes: a resumed
  // sweep returns them as journaled and evaluates only point 2.
  {
    runtime::LegJournal journal(
        path, "sweep", runtime::SweepConfigDigest(base, points, workload, 2),
        points.size());
    for (std::size_t i = 0; i < 2; ++i) {
      core::SweepResult marked = clean[i];
      marked.clamped_rows = 1000 + i;
      std::ostringstream os;
      runtime::EncodeSweepResult(os, marked);
      journal.Append(i, os.str());
    }
  }
  const auto resumed = runtime::RunSweep(base, points, workload, 2, path);
  ASSERT_EQ(resumed.size(), 3u);
  EXPECT_EQ(resumed[0].clamped_rows, 1000u);
  EXPECT_EQ(resumed[1].clamped_rows, 1001u);
  EXPECT_EQ(resumed[2], clean[2]);

  // A complete journal resumes every point and evaluates none.
  EXPECT_EQ(runtime::RunSweep(base, points, workload, 2, path), resumed);

  // A different grid must refuse the same journal (config digest differs).
  points[2].nbits = 4;
  EXPECT_THROW(runtime::RunSweep(base, points, workload, 2, path),
               ConfigError);
}

}  // namespace
