// Tests for the observability plane (src/obs/, docs/OBSERVABILITY.md):
// Prometheus exposition rendering, histogram quantiles, the SLO watchdog
// rules engine and its hysteresis state machine, the embedded monitor
// server (deterministic publish/scrape interleaves through HandleGet plus
// a real loopback HTTP scrape during a running fault campaign), the
// ProgressReporter behind /runs, and the WriteTraceFile extension
// dispatch.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/reporting.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/vrl_system.hpp"
#include "fault/injector.hpp"
#include "obs/monitor_server.hpp"
#include "obs/plane.hpp"
#include "obs/progress.hpp"
#include "obs/prometheus.hpp"
#include "obs/watchdog.hpp"
#include "retention/vrt.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/trace_export.hpp"

namespace vrl::obs {
namespace {

using telemetry::EventKind;
using telemetry::MetricKind;
using telemetry::MetricsSnapshot;
using telemetry::MetricValue;

// -- Helpers ------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

/// Body of an HTTP response (everything past the blank line).
std::string BodyOf(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

/// Status code of an HTTP response ("HTTP/1.1 200 OK" -> 200).
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

/// Snapshot with the three watchdog-watched counters set to lifetime totals.
MetricsSnapshot CounterSnapshot(std::uint64_t detected, std::uint64_t fulls,
                                std::uint64_t partials) {
  MetricsSnapshot snapshot;
  MetricValue counter;
  counter.kind = MetricKind::kCounter;
  counter.count = detected;
  snapshot.metrics["campaign.detected_failures"] = counter;
  counter.count = fulls;
  snapshot.metrics["policy.full_refreshes"] = counter;
  counter.count = partials;
  snapshot.metrics["policy.partial_refreshes"] = counter;
  return snapshot;
}

// -- Histogram quantiles (satellite) ------------------------------------------

TEST(HistogramQuantile, InterpolatesWithinTheRankBucket) {
  const std::vector<double> edges{10.0, 20.0};
  const std::vector<std::uint64_t> counts{4, 4, 0};  // total 8
  // rank 2 of 8 sits halfway through bucket 0, which spans (0, 10].
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(edges, counts, 0.25), 5.0);
  // rank 4 closes bucket 0 exactly.
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(edges, counts, 0.5), 10.0);
  // rank 6 sits halfway through bucket 1, spanning (10, 20].
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(edges, counts, 0.75), 15.0);
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(edges, counts, 1.0), 20.0);
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(edges, counts, 0.0), 0.0);
}

TEST(HistogramQuantile, OverflowBucketReturnsTheLastEdge) {
  const std::vector<double> edges{10.0, 20.0};
  const std::vector<std::uint64_t> counts{0, 0, 5};
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(edges, counts, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(edges, counts, 1.0), 20.0);
}

TEST(HistogramQuantile, NonPositiveFirstEdgeDoesNotInterpolateFromZero) {
  // With edges starting at or below zero there is no natural lower bound;
  // the first bucket reports its closing edge.
  const std::vector<double> edges{-5.0, 5.0};
  const std::vector<std::uint64_t> counts{2, 0, 0};
  EXPECT_DOUBLE_EQ(telemetry::HistogramQuantile(edges, counts, 0.5), -5.0);
}

TEST(HistogramQuantile, EmptyHistogramIsNaN) {
  EXPECT_TRUE(std::isnan(telemetry::HistogramQuantile({10.0}, {0, 0}, 0.5)));
}

TEST(HistogramQuantile, RejectsBadArguments) {
  EXPECT_THROW(telemetry::HistogramQuantile({10.0}, {1, 1}, 1.5), ConfigError);
  EXPECT_THROW(telemetry::HistogramQuantile({10.0}, {1, 1}, -0.1), ConfigError);
  EXPECT_THROW(telemetry::HistogramQuantile({10.0}, {1}, 0.5), ConfigError);
  EXPECT_THROW(telemetry::HistogramQuantile({}, {1}, 0.5), ConfigError);
}

TEST(HistogramQuantile, LiveHistogramCellDelegates) {
  telemetry::Histogram histogram({10.0, 20.0});
  histogram.Observe(5.0);
  histogram.Observe(15.0);
  histogram.Observe(15.0);
  histogram.Observe(25.0);  // overflow
  // rank 2 of 4 closes bucket 0's half... bucket 0 holds 1 of 4, so rank 2
  // lands in bucket 1 (10, 20] at fraction (2-1)/2.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 20.0);
  EXPECT_THROW(histogram.Quantile(2.0), ConfigError);
}

// -- WriteTraceFile extension dispatch (satellite) ----------------------------

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

// -- Prometheus rendering -----------------------------------------------------

TEST(Prometheus, SanitizeMetricName) {
  EXPECT_EQ(SanitizeMetricName("policy.full_refreshes"),
            "policy_full_refreshes");
  EXPECT_EQ(SanitizeMetricName("a-b c:d9"), "a_b_c:d9");
}

TEST(Prometheus, DoubleFormatting) {
  EXPECT_EQ(PrometheusDouble(1.5), "1.5");
  EXPECT_EQ(PrometheusDouble(std::nan("")), "NaN");
  EXPECT_EQ(PrometheusDouble(HUGE_VAL), "+Inf");
  EXPECT_EQ(PrometheusDouble(-HUGE_VAL), "-Inf");
}

TEST(Prometheus, RendersEveryKindInExpositionGrammar) {
  telemetry::Recorder recorder;
  recorder.counter("ops").Add(7);
  recorder.gauge("margin").Set(-0.5);
  telemetry::Histogram& histogram =
      recorder.histogram("lat.hist", {10.0, 20.0});
  histogram.Observe(5.0);
  histogram.Observe(15.0);
  histogram.Observe(25.0);

  std::ostringstream os;
  RenderPrometheus(os, recorder.Snapshot());
  EXPECT_EQ(os.str(),
            "# TYPE vrl_lat_hist histogram\n"
            "vrl_lat_hist_bucket{le=\"10\"} 1\n"
            "vrl_lat_hist_bucket{le=\"20\"} 2\n"
            "vrl_lat_hist_bucket{le=\"+Inf\"} 3\n"
            "vrl_lat_hist_sum 45\n"
            "vrl_lat_hist_count 3\n"
            "# TYPE vrl_lat_hist_p50 gauge\n"
            "vrl_lat_hist_p50 15\n"
            "# TYPE vrl_lat_hist_p99 gauge\n"
            "vrl_lat_hist_p99 20\n"
            "# TYPE vrl_margin gauge\n"
            "vrl_margin -0.5\n"
            "# TYPE vrl_ops_total counter\n"
            "vrl_ops_total 7\n");
}

TEST(Prometheus, QuantileGaugesSkippedForEmptyHistograms) {
  telemetry::Recorder recorder;
  recorder.histogram("empty", {1.0});
  std::ostringstream os;
  RenderPrometheus(os, recorder.Snapshot());
  EXPECT_EQ(os.str().find("_p50"), std::string::npos);
  EXPECT_NE(os.str().find("vrl_empty_count 0"), std::string::npos);
}

// -- Watchdog rules parsing ---------------------------------------------------

TEST(WatchdogRulesParse, EmptyObjectKeepsEveryRuleDisabled) {
  const WatchdogRules rules = ParseWatchdogRules("{}");
  EXPECT_LT(rules.max_sensing_failure_rate, 0.0);
  EXPECT_LT(rules.max_refresh_overhead, 0.0);
  EXPECT_LT(rules.min_partial_full_ratio, 0.0);
  EXPECT_LT(rules.max_staleness_s, 0.0);
}

TEST(WatchdogRulesParse, ParsesEveryField) {
  const WatchdogRules rules = ParseWatchdogRules(R"({
    "max_sensing_failure_rate": 0.01,
    "max_refresh_overhead": 0.12,
    "min_partial_full_ratio": 1.5,
    "max_staleness_s": 5,
    "breach_samples": 3,
    "fail_samples": 6,
    "clear_samples": 4
  })");
  EXPECT_DOUBLE_EQ(rules.max_sensing_failure_rate, 0.01);
  EXPECT_DOUBLE_EQ(rules.max_refresh_overhead, 0.12);
  EXPECT_DOUBLE_EQ(rules.min_partial_full_ratio, 1.5);
  EXPECT_DOUBLE_EQ(rules.max_staleness_s, 5.0);
  EXPECT_EQ(rules.breach_samples, 3u);
  EXPECT_EQ(rules.fail_samples, 6u);
  EXPECT_EQ(rules.clear_samples, 4u);
}

TEST(WatchdogRulesParse, UnknownKeyIsAnError) {
  // A typo'd threshold must not silently disable the rule.
  EXPECT_THROW(ParseWatchdogRules(R"({"max_sensing_failure_rte": 0.1})"),
               ConfigError);
  EXPECT_THROW(ParseWatchdogRules(R"({"max_worker_stale_s": 2})"),
               ConfigError);
}

TEST(WatchdogRulesParse, UnknownKeyErrorListsTheValidFields) {
  try {
    ParseWatchdogRules(R"({"max_sensing_failure_rte": 0.1})");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown rule 'max_sensing_failure_rte'"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("expected one of:"), std::string::npos) << what;
    // The listing is the full field table.
    EXPECT_NE(what.find("max_sensing_failure_rate"), std::string::npos);
    EXPECT_NE(what.find("max_staleness_s"), std::string::npos);
    EXPECT_NE(what.find("clear_samples"), std::string::npos);
  }
}

TEST(WatchdogRulesParse, KeysAreCaseAndSeparatorInsensitive) {
  // Mirrors dram::PolicyRegistry's spelling tolerance: case and -/_
  // separators never matter.
  const WatchdogRules rules = ParseWatchdogRules(R"({
    "Max-Refresh-Overhead": 1.5,
    "MAXSTALENESSS": 7,
    "breachSamples": 2,
    "fail_samples": 2
  })");
  EXPECT_DOUBLE_EQ(rules.max_refresh_overhead, 1.5);
  EXPECT_DOUBLE_EQ(rules.max_staleness_s, 7.0);
  EXPECT_EQ(rules.breach_samples, 2u);
}

TEST(WatchdogRulesParse, MalformedInputIsAnError) {
  EXPECT_THROW(ParseWatchdogRules(""), ConfigError);
  EXPECT_THROW(ParseWatchdogRules("[]"), ConfigError);
  EXPECT_THROW(ParseWatchdogRules(R"({"breach_samples": })"), ConfigError);
  EXPECT_THROW(ParseWatchdogRules(R"({"breach_samples": 2} trailing)"),
               ConfigError);
  EXPECT_THROW(ParseWatchdogRules(R"({"max_staleness_s": "soon"})"),
               ConfigError);
  // Thresholds are finite decimal numbers: a nan threshold would fail
  // every `>= 0` test and silently disable its rule.
  for (const char* value : {"nan", "inf", "-inf", "0x1p-2", "1e999", "1.5x"}) {
    EXPECT_THROW(ParseWatchdogRules(std::string(R"({"max_staleness_s": )") +
                                    value + "}"),
                 ConfigError)
        << value;
  }
  // Sample counts are whole numbers >= 1: no truncation, no wrap.
  for (const char* value : {"2.5", "-1", "1e0", "0", "18446744073709551616"}) {
    EXPECT_THROW(ParseWatchdogRules(std::string(R"({"breach_samples": )") +
                                    value + "}"),
                 ConfigError)
        << value;
  }
}

TEST(WatchdogRulesParse, ValidatesHysteresisCounts) {
  EXPECT_THROW(ParseWatchdogRules(R"({"breach_samples": 0})"), ConfigError);
  EXPECT_THROW(ParseWatchdogRules(R"({"clear_samples": 0})"), ConfigError);
  EXPECT_THROW(ParseWatchdogRules(R"({"breach_samples": 4, "fail_samples": 2})"),
               ConfigError);
}

TEST(WatchdogRulesParse, LoadFileRoundTripsAndMissingFileThrows) {
  const std::string path = TempPath("obs_rules.json");
  {
    std::ofstream os(path);
    os << R"({"max_refresh_overhead": 0.2})";
  }
  EXPECT_DOUBLE_EQ(LoadWatchdogRulesFile(path).max_refresh_overhead, 0.2);
  std::remove(path.c_str());
  EXPECT_THROW(LoadWatchdogRulesFile(path), ConfigError);
}

// -- Watchdog hysteresis (satellite) ------------------------------------------

TEST(SloWatchdog, HysteresisEscalatesAndRecoversOneLevelAtATime) {
  WatchdogRules rules;
  rules.max_sensing_failure_rate = 0.1;
  rules.breach_samples = 2;
  rules.fail_samples = 3;
  rules.clear_samples = 2;
  SloWatchdog watchdog(rules);
  telemetry::Lineage alerts(16);

  // Sample 0 only establishes the baseline, whatever the totals say.
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(100, 100, 0), 0.0, &alerts),
            HealthState::kOk);
  // Breach #1 (rate 5/10 = 0.5): hysteresis holds the state at ok.
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(105, 110, 0), 1.0, &alerts),
            HealthState::kOk);
  // Breach #2 reaches breach_samples: degraded.
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(110, 120, 0), 2.0, &alerts),
            HealthState::kDegraded);
  EXPECT_NE(watchdog.last_breach().find("sensing_failure_rate"),
            std::string::npos);
  // Breach #3 reaches fail_samples: failing.
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(115, 130, 0), 3.0, &alerts),
            HealthState::kFailing);
  // Clean #1: recovery hysteresis holds failing.
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(115, 140, 0), 4.0, &alerts),
            HealthState::kFailing);
  // Clean #2 reaches clear_samples: one step down, not straight to ok.
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(115, 150, 0), 5.0, &alerts),
            HealthState::kDegraded);
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(115, 160, 0), 6.0, &alerts),
            HealthState::kDegraded);
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(115, 170, 0), 7.0, &alerts),
            HealthState::kOk);

  // Every transition (and only transitions) landed in the alert trace:
  // ok->degraded, degraded->failing, failing->degraded, degraded->ok.
  const auto events = alerts.Retained();
  ASSERT_EQ(events.size(), 4u);
  for (const auto& event : events) {
    EXPECT_EQ(event.kind, EventKind::kWatchdogTransition);
    EXPECT_EQ(alerts.label(event.cause), "watchdog");
  }
  EXPECT_EQ(events[0].detail,
            static_cast<std::int64_t>(HealthState::kDegraded));
  EXPECT_DOUBLE_EQ(events[0].value, 0.5);  // the breaching rate
  EXPECT_EQ(events[1].detail,
            static_cast<std::int64_t>(HealthState::kFailing));
  EXPECT_EQ(events[2].detail,
            static_cast<std::int64_t>(HealthState::kDegraded));
  EXPECT_DOUBLE_EQ(events[2].value, 0.0);  // recovery: nothing breaching
  EXPECT_EQ(events[3].detail, static_cast<std::int64_t>(HealthState::kOk));
}

TEST(SloWatchdog, BreachRunInterruptedByACleanSampleStartsOver) {
  WatchdogRules rules;
  rules.max_sensing_failure_rate = 0.1;
  rules.breach_samples = 2;
  rules.fail_samples = 4;
  rules.clear_samples = 1;
  SloWatchdog watchdog(rules);
  watchdog.Sample(CounterSnapshot(0, 10, 0), 0.0);
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(5, 20, 0), 1.0), HealthState::kOk);
  // A clean sample resets the consecutive-breach count...
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(5, 30, 0), 2.0), HealthState::kOk);
  // ...so one more breach is again below breach_samples.
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(10, 40, 0), 3.0),
            HealthState::kOk);
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(15, 50, 0), 4.0),
            HealthState::kDegraded);
}

TEST(SloWatchdog, StalenessRuleFiresOnAWedgedRun) {
  WatchdogRules rules;
  rules.max_staleness_s = 1.0;
  rules.breach_samples = 1;
  rules.fail_samples = 2;
  rules.clear_samples = 1;
  SloWatchdog watchdog(rules);
  const MetricsSnapshot quiet = CounterSnapshot(0, 10, 0);
  watchdog.Sample(quiet, 0.0);  // baseline: activity stamped at 0.
  // Within budget: ok.
  EXPECT_EQ(watchdog.Sample(quiet, 0.5), HealthState::kOk);
  // Nothing moved for 2s > 1s: degraded immediately (breach_samples 1).
  EXPECT_EQ(watchdog.Sample(quiet, 2.0), HealthState::kDegraded);
  EXPECT_NE(watchdog.last_breach().find("staleness_s"), std::string::npos);
  // Counters moving again resets the activity clock and recovers.
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(0, 20, 0), 2.5), HealthState::kOk);
}

TEST(SloWatchdog, PartialFullRatioRuleSkipsIntervalsWithoutFullRefreshes) {
  WatchdogRules rules;
  rules.min_partial_full_ratio = 2.0;
  rules.breach_samples = 1;
  rules.fail_samples = 2;
  rules.clear_samples = 1;
  SloWatchdog watchdog(rules);
  watchdog.Sample(CounterSnapshot(0, 10, 100), 0.0);
  // Interval with no full refreshes: the ratio is undefined, not a breach.
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(0, 10, 150), 1.0),
            HealthState::kOk);
  // 10 fulls vs 10 partials: ratio 1 < 2 breaches.
  EXPECT_EQ(watchdog.Sample(CounterSnapshot(0, 20, 160), 2.0),
            HealthState::kDegraded);
}

// -- ProgressReporter ---------------------------------------------------------

TEST(ProgressReporter, TracksFanoutLifecycleWithInjectedClock) {
  double now = 10.0;
  ProgressReporter reporter([&now] { return now; }, 2);
  const std::uint64_t token = reporter.OnFanoutBegin("sweep", 3);
  now = 11.0;
  reporter.OnItemComplete(token);
  reporter.OnItemComplete(token);

  auto runs = reporter.Runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].label, "sweep");
  EXPECT_EQ(runs[0].items, 3u);
  EXPECT_EQ(runs[0].completed, 2u);
  EXPECT_TRUE(runs[0].active);
  EXPECT_DOUBLE_EQ(runs[0].started_s, 10.0);

  reporter.OnItemComplete(token);
  now = 12.0;
  reporter.OnFanoutEnd(token);
  runs = reporter.Runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].active);
  EXPECT_EQ(runs[0].completed, 3u);
  EXPECT_DOUBLE_EQ(runs[0].finished_s, 12.0);
  EXPECT_EQ(reporter.fanouts_begun(), 1u);
  EXPECT_EQ(reporter.fanouts_finished(), 1u);

  EXPECT_EQ(reporter.RenderRunsJson(),
            "{\"runs\":[{\"id\":1,\"label\":\"sweep\",\"items\":3,"
            "\"completed\":3,\"active\":false,\"started_s\":10,"
            "\"finished_s\":12}]}\n");
}

TEST(ProgressReporter, FinishedHistoryIsBoundedNewestFirst) {
  ProgressReporter reporter([] { return 0.0; }, 2);
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t token =
        reporter.OnFanoutBegin("run" + std::to_string(i), 1);
    reporter.OnItemComplete(token);
    reporter.OnFanoutEnd(token);
  }
  const auto runs = reporter.Runs();
  ASSERT_EQ(runs.size(), 2u);  // max_finished = 2
  EXPECT_EQ(runs[0].label, "run3");
  EXPECT_EQ(runs[1].label, "run2");
  EXPECT_EQ(reporter.fanouts_begun(), 4u);
  EXPECT_EQ(reporter.fanouts_finished(), 4u);
}

TEST(ProgressReporter, ObservesLabeledParallelForFanouts) {
  ProgressReporter reporter;
  ParallelObserver* previous = SetParallelObserver(&reporter);
  std::atomic<int> touched{0};
  ParallelFor("obs_test_fanout", 8,
              [&](std::size_t) { touched.fetch_add(1); }, 2);
  SetParallelObserver(previous);

  EXPECT_EQ(touched.load(), 8);
  EXPECT_EQ(reporter.fanouts_begun(), 1u);
  EXPECT_EQ(reporter.fanouts_finished(), 1u);
  const auto runs = reporter.Runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].label, "obs_test_fanout");
  EXPECT_EQ(runs[0].items, 8u);
  EXPECT_EQ(runs[0].completed, 8u);
  EXPECT_FALSE(runs[0].active);
}

TEST(ProgressReporter, ObserverSeesSerialFallbackFanoutsToo) {
  ProgressReporter reporter;
  ParallelObserver* previous = SetParallelObserver(&reporter);
  ParallelFor("obs_test_serial", 3, [](std::size_t) {}, 1);  // serial path
  SetParallelObserver(previous);
  const auto runs = reporter.Runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].completed, 3u);
}

// -- MonitorServer: deterministic publish/scrape interleaves ------------------

TEST(MonitorServer, ReadyzFlipsOnFirstPublish) {
  MonitorServer server;
  EXPECT_EQ(StatusOf(server.HandleGet("/readyz")), 503);
  telemetry::Recorder recorder;
  server.Publish(recorder);
  EXPECT_EQ(StatusOf(server.HandleGet("/readyz")), 200);
  EXPECT_EQ(BodyOf(server.HandleGet("/readyz")), "ready\n");
}

TEST(MonitorServer, UnknownPathIs404AndHealthReflectsSetHealth) {
  MonitorServer server;
  EXPECT_EQ(StatusOf(server.HandleGet("/nope")), 404);
  EXPECT_EQ(StatusOf(server.HandleGet("/fleet")), 404);
  EXPECT_EQ(BodyOf(server.HandleGet("/healthz")), "ok\n");
  server.SetHealth(HealthState::kDegraded, "sensing_failure_rate=0.5");
  const std::string degraded = server.HandleGet("/healthz");
  EXPECT_EQ(StatusOf(degraded), 200);  // degraded still serves traffic
  EXPECT_EQ(BodyOf(degraded), "degraded sensing_failure_rate=0.5\n");
  server.SetHealth(HealthState::kFailing, "staleness_s=9");
  const std::string failing = server.HandleGet("/healthz");
  EXPECT_EQ(StatusOf(failing), 503);
  EXPECT_EQ(BodyOf(failing), "failing staleness_s=9\n");
}

// The satellite interleave test: a wrapped lineage ring publishes exact
// drop accounting, and a scrape between publishes renders the *published*
// copy, never the live recorder.
TEST(MonitorServer, DropAccountingUnderWrappedRingAcrossInterleavedScrapes) {
  telemetry::RecorderOptions options;
  options.max_lineage = 4;
  telemetry::Recorder recorder(options);
  MonitorServer server;

  telemetry::Lineage& lineage = recorder.lineage();
  const std::uint32_t cause = lineage.Intern("obs_test");
  for (std::uint64_t i = 0; i < 7; ++i) {  // wraps: 7 recorded, 3 displaced
    lineage.Add({EventKind::kDemotion, i, i, cause, 0, 0.0});
  }
  ASSERT_EQ(lineage.recorded(), 7u);
  ASSERT_EQ(lineage.dropped(), 3u);
  server.Publish(recorder);

  const std::string first = BodyOf(server.HandleGet("/metrics"));
  EXPECT_NE(first.find("vrl_monitor_lineage_recorded_total 7\n"),
            std::string::npos);
  EXPECT_NE(first.find("vrl_monitor_lineage_dropped_total 3\n"),
            std::string::npos);
  EXPECT_NE(first.find("vrl_monitor_lineage_retained 4\n"),
            std::string::npos);
  EXPECT_NE(first.find("vrl_monitor_metrics_scrapes_total 1\n"),
            std::string::npos);

  // The recorder moves on; an unpublished scrape must not see it.
  for (std::uint64_t i = 0; i < 5; ++i) {
    lineage.Add({EventKind::kDemotion, i, i, cause, 0, 0.0});
  }
  const std::string second = BodyOf(server.HandleGet("/metrics"));
  EXPECT_NE(second.find("vrl_monitor_lineage_recorded_total 7\n"),
            std::string::npos);
  EXPECT_NE(second.find("vrl_monitor_metrics_scrapes_total 2\n"),
            std::string::npos);

  // After the next publish the counters jump to 12 recorded / 8 dropped —
  // recorded = retained + dropped stays exact across the wrap.
  server.Publish(recorder);
  const std::string third = BodyOf(server.HandleGet("/metrics"));
  EXPECT_NE(third.find("vrl_monitor_lineage_recorded_total 12\n"),
            std::string::npos);
  EXPECT_NE(third.find("vrl_monitor_lineage_dropped_total 8\n"),
            std::string::npos);
  EXPECT_NE(third.find("vrl_monitor_lineage_retained 4\n"),
            std::string::npos);
  EXPECT_EQ(server.metrics_scrapes(), 3u);
}

TEST(MonitorServer, MetricsBodyStartsWithThePublishedSnapshotExposition) {
  telemetry::Recorder recorder;
  recorder.counter("campaign.windows").Add(5);
  recorder.gauge("campaign.min_margin").Set(0.25);
  MonitorServer server;
  server.Publish(recorder);

  std::ostringstream expected;
  RenderPrometheus(expected, recorder.Snapshot());
  const std::string body = BodyOf(server.HandleGet("/metrics"));
  EXPECT_EQ(body.rfind(expected.str(), 0), 0u)
      << "scrape does not start with the snapshot exposition";
}

TEST(MonitorServer, TraceTailServesNewestLineageWithSummary) {
  telemetry::RecorderOptions options;
  options.max_lineage = 4;  // ring wraps: newest win; no tracing needed
  telemetry::Recorder recorder(options);
  telemetry::Lineage& lineage = recorder.lineage();
  const std::uint32_t cause = lineage.Intern("obs_test");
  for (std::uint64_t i = 0; i < 6; ++i) {
    lineage.Add({EventKind::kSensingFailure, i, /*row=*/100 + i, cause,
                 /*detail=*/0, /*value=*/-0.25});
  }
  MonitorServer server;
  server.Publish(recorder);

  const std::string all = BodyOf(server.HandleGet("/trace"));
  // 4 retained lineage lines + 1 summary.
  EXPECT_EQ(static_cast<int>(std::count(all.begin(), all.end(), '\n')), 5);
  EXPECT_NE(all.find("\"row\":105"), std::string::npos);  // newest retained
  EXPECT_EQ(all.find("\"row\":101"), std::string::npos);  // displaced
  EXPECT_NE(all.find("{\"type\":\"lineage_summary\",\"recorded\":6,"
                     "\"retained\":4,\"dropped\":2}"),
            std::string::npos);

  const std::string tail = BodyOf(server.HandleGet("/trace?last=1"));
  EXPECT_EQ(static_cast<int>(std::count(tail.begin(), tail.end(), '\n')), 2);
  EXPECT_NE(tail.find("\"row\":105"), std::string::npos);
  // An oversized ?last= clamps to what is retained; a malformed one is a
  // bad request, and so is any query but one `last` pair.
  EXPECT_EQ(BodyOf(server.HandleGet("/trace?last=999")), all);
  for (const char* target :
       {"/trace?last=abc", "/trace?last=-1", "/trace?last=5x",
        "/trace?blast=2", "/trace?last=2&last=x", "/trace?bogus=1",
        "/trace?last=1&", "/trace?last"}) {
    EXPECT_EQ(StatusOf(server.HandleGet(target)), 400) << target;
  }
}

TEST(MonitorServer, RunsEndpointRendersTheProgressReporter) {
  ProgressReporter reporter([] { return 0.0; }, 4);
  MonitorServer server(0, &reporter);
  EXPECT_EQ(BodyOf(server.HandleGet("/runs")), "{\"runs\":[]}\n");
  const std::uint64_t token = reporter.OnFanoutBegin("sweep", 2);
  reporter.OnItemComplete(token);
  const std::string body = BodyOf(server.HandleGet("/runs"));
  EXPECT_NE(body.find("\"label\":\"sweep\""), std::string::npos);
  EXPECT_NE(body.find("\"completed\":1"), std::string::npos);
  EXPECT_NE(body.find("\"active\":true"), std::string::npos);
}

// -- MonitorServer: the real socket path --------------------------------------

TEST(MonitorServer, ServesOverLoopbackAndRejectsNonGet) {
  telemetry::Recorder recorder;
  recorder.counter("ops").Add(3);
  MonitorServer server;  // port 0: ephemeral
  ASSERT_GT(server.port(), 0);
  EXPECT_EQ(server.bind_address(), "127.0.0.1");
  server.Publish(recorder);

  const std::string response = HttpGet(server.port(), "/metrics");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(BodyOf(response).find("vrl_ops_total 3\n"), std::string::npos);
  // The body over the wire equals the in-process handler's body.
  EXPECT_EQ(StatusOf(HttpGet(server.port(), "/healthz")), 200);
}

// -- MonitorPlane + fault campaign: the acceptance-criterion path -------------

// A live scrape during a running fault campaign returns valid exposition
// whose counters can only grow toward the end-of-run snapshot, and the
// injected faults flip /healthz from ok to degraded.
TEST(MonitorPlaneCampaign, LiveScrapeMatchesEndOfRunSnapshotAndHealthFlips) {
  const std::string rules_path = TempPath("obs_plane_rules.json");
  {
    std::ofstream os(rules_path);
    // Any detected sensing failure in a window breaches; huge fail/clear
    // counts keep the verdict at degraded once flipped.
    os << R"({"max_sensing_failure_rate": 0.0, "breach_samples": 1,
              "fail_samples": 1000000, "clear_samples": 1000000})";
  }
  PlaneOptions plane_options;
  plane_options.serve = true;
  plane_options.watchdog_path = rules_path;
  MonitorPlane plane(plane_options);
  ASSERT_NE(plane.server(), nullptr);
  ASSERT_NE(plane.watchdog(), nullptr);

  // Before the campaign: not ready, health ok.
  EXPECT_EQ(StatusOf(HttpGet(plane.server()->port(), "/readyz")), 503);
  EXPECT_EQ(BodyOf(HttpGet(plane.server()->port(), "/healthz")), "ok\n");

  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  telemetry::Recorder recorder;
  fault::FaultSchedule faults(0xFA11ULL);
  retention::VrtParams vrt;  // defaults produce detected failures
  faults.Add(std::make_unique<fault::VrtFlipInjector>(vrt));

  std::string mid_run_scrape;
  core::FaultCampaignOptions options;
  options.windows = 4;
  options.adaptive = true;
  options.telemetry = &recorder;
  options.on_window = [&](std::size_t windows_done, Cycles) {
    plane.Sample(recorder);
    if (windows_done == 2) {
      // The "curl during a running campaign" moment, over a real socket.
      mid_run_scrape = HttpGet(plane.server()->port(), "/metrics");
    }
  };
  const auto report = system.RunFaultCampaign("VRL", faults, options);
  ASSERT_GT(report.detected_failures, 0u);
  plane.Sample(recorder);  // final end-of-run publish

  // The mid-run scrape is valid exposition with live campaign counters.
  ASSERT_FALSE(mid_run_scrape.empty());
  EXPECT_EQ(StatusOf(mid_run_scrape), 200);
  const std::string mid_body = BodyOf(mid_run_scrape);
  EXPECT_NE(mid_body.find("# TYPE vrl_campaign_detected_failures_total "
                          "counter\n"),
            std::string::npos);
  EXPECT_NE(mid_body.find("# TYPE vrl_policy_refresh_busy_cycles_total "
                          "counter\n"),
            std::string::npos);
  EXPECT_NE(mid_body.find("vrl_monitor_ready 1\n"), std::string::npos);

  // The end-of-run scrape renders exactly the recorder's final snapshot.
  std::ostringstream expected;
  RenderPrometheus(expected, recorder.Snapshot());
  const std::string final_body =
      BodyOf(HttpGet(plane.server()->port(), "/metrics"));
  EXPECT_EQ(final_body.rfind(expected.str(), 0), 0u)
      << "final scrape does not start with the end-of-run snapshot";

  // Counters in the mid-run scrape never exceed the end-of-run totals.
  const auto counter_value = [](const std::string& body,
                                const std::string& name) {
    const std::size_t at = body.find("\n" + name + " ");
    if (at == std::string::npos) {
      return -1.0;
    }
    return std::stod(body.substr(at + name.size() + 2));
  };
  const std::string detected = "vrl_campaign_detected_failures_total";
  ASSERT_GE(counter_value(mid_body, detected), 0.0);
  EXPECT_LE(counter_value(mid_body, detected),
            counter_value(final_body, detected));

  // The injected faults flipped /healthz from ok to degraded, and the
  // transition landed in the recorder's own lineage ring.
  EXPECT_EQ(plane.watchdog()->state(), HealthState::kDegraded);
  const std::string health = HttpGet(plane.server()->port(), "/healthz");
  EXPECT_EQ(StatusOf(health), 200);
  EXPECT_EQ(BodyOf(health).rfind("degraded sensing_failure_rate=", 0), 0u)
      << BodyOf(health);
  bool transition_recorded = false;
  for (const auto& record : recorder.lineage().Retained()) {
    if (record.kind == EventKind::kWatchdogTransition &&
        record.detail == static_cast<std::int64_t>(HealthState::kDegraded)) {
      transition_recorded = true;
    }
  }
  EXPECT_TRUE(transition_recorded);
  std::remove(rules_path.c_str());
}

TEST(MonitorPlane, NoServeNoWatchdogStillSamplesQuietly) {
  MonitorPlane plane(PlaneOptions{});
  EXPECT_EQ(plane.server(), nullptr);
  EXPECT_EQ(plane.watchdog(), nullptr);
  telemetry::Recorder recorder;
  plane.Sample(recorder);  // must be a harmless no-op
  EXPECT_EQ(recorder.lineage().recorded(), 0u);
}

TEST(MonitorPlane, BadRulesFileThrowsConfigError) {
  PlaneOptions options;
  options.watchdog_path = TempPath("obs_missing_rules.json");
  EXPECT_THROW(MonitorPlane plane(options), ConfigError);
}

TEST(MonitorServer, RunsEndpointSplicesLegProgress) {
  MonitorServer server;
  LegProgress progress;
  progress.campaign = "fault_campaign";
  progress.total = 3;
  progress.committed = 2;
  progress.resumed = 1;
  server.PublishLegProgress(progress);
  const std::string body = BodyOf(server.HandleGet("/runs"));
  EXPECT_NE(body.find("\"legs\":{\"campaign\":\"fault_campaign\","
                      "\"total\":3,\"committed\":2,\"resumed\":1}"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"runs\":["), std::string::npos) << body;
}

TEST(MonitorServer, EphemeralBindAnnouncesTheChosenPort) {
  // The announce path every binary takes (CI greps this line for the port).
  char program[] = "obs_test";
  char serve[] = "--serve";
  char port[] = "0";
  char* argv[] = {program, serve, port};
  const bench::ReportOptions options =
      bench::ParseFlags(3, argv, bench::kMonitor);
  std::ostringstream announce;
  const auto plane = bench::MakeMonitorPlane(options, announce);
  ASSERT_NE(plane, nullptr);
  ASSERT_NE(plane->server(), nullptr);
  const int bound = plane->server()->port();
  EXPECT_GT(bound, 0);
  EXPECT_EQ(announce.str(), "monitor: serving on http://127.0.0.1:" +
                                std::to_string(bound) + "\n");
  // The announced endpoint really serves.
  EXPECT_EQ(StatusOf(HttpGet(bound, "/readyz")), 503);
}

}  // namespace
}  // namespace vrl::obs
