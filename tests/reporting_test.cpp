// Tests for the shared report writer (bench/reporting.hpp): CSV quoting,
// the --profile attribution table, the uniform CLI flag parser and its
// checked numeric value parsers, the flags of the examples and benches
// parsed through them, and the policy-name resolver the reporting binaries
// feed their positional arguments through.
//
// The examples' and benches' directories arrive as compile definitions
// (VRL_EXAMPLES_DIR, VRL_BENCH_DIR) from tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/reporting.hpp"
#include "common/error.hpp"
#include "core/vrl_system.hpp"
#include "telemetry/recorder.hpp"

namespace vrl::bench {
namespace {

// argv helper: ParseReportArgs takes (argc, char**) like main.
ReportOptions Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("test_binary"));
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return ParseReportArgs(static_cast<int>(argv.size()), argv.data());
}

// -- CSV escaping -------------------------------------------------------------

TEST(ReportCsv, PlainCellsPassThroughUnquoted) {
  Report report("plain");
  TextTable& table = report.AddTable("t", {"a", "b"});
  table.AddRow({"x", "1.5"});
  std::ostringstream os;
  report.WriteCsv(os);
  EXPECT_EQ(os.str(), "# plain.t\na,b\nx,1.5\n");
}

TEST(ReportCsv, CommaQuoteAndNewlineCellsAreQuoted) {
  Report report("r");
  TextTable& table = report.AddTable("t", {"kind", "cell"});
  table.AddRow({"comma", "a,b"});
  table.AddRow({"quote", "say \"hi\""});
  table.AddRow({"newline", "line1\nline2"});
  table.AddRow({"all", "a,\"b\"\nc"});
  std::ostringstream os;
  report.WriteCsv(os);
  EXPECT_EQ(os.str(),
            "# r.t\n"
            "kind,cell\n"
            "comma,\"a,b\"\n"
            "quote,\"say \"\"hi\"\"\"\n"
            "newline,\"line1\nline2\"\n"
            "all,\"a,\"\"b\"\"\nc\"\n");
}

TEST(ReportCsv, HeadersAreEscapedToo) {
  Report report("r");
  report.AddTable("t", {"plain", "needs,quoting"});
  std::ostringstream os;
  report.WriteCsv(os);
  EXPECT_EQ(os.str(), "# r.t\nplain,\"needs,quoting\"\n");
}

TEST(ReportCsv, MultipleTablesGetSectionsSeparatedByBlankLine) {
  Report report("multi");
  report.AddTable("first", {"a"}).AddRow({"1"});
  report.AddTable("second", {"b"}).AddRow({"2"});
  std::ostringstream os;
  report.WriteCsv(os);
  EXPECT_EQ(os.str(),
            "# multi.first\na\n1\n"
            "\n"
            "# multi.second\nb\n2\n");
}

// The three renderings promise to agree cell-for-cell; spot-check that a
// hostile cell survives the JSON path as well (JsonEscape, not CSV rules).
TEST(ReportCsv, JsonRenderingEscapesTheSameCells) {
  Report report("r");
  report.AddTable("t", {"cell"}).AddRow({"a,\"b\"\nc"});
  std::ostringstream os;
  report.WriteJson(os);
  EXPECT_NE(os.str().find("\"cell\":\"a,\\\"b\\\"\\nc\""), std::string::npos)
      << os.str();
}

// -- AddProfile ---------------------------------------------------------------

TEST(ReportProfile, RendersTheAttributionTreeDepthFirst) {
  telemetry::RecorderOptions options;
  options.profile_phases = true;
  telemetry::Recorder recorder(options);
  prof::Profiler& profiler = *recorder.profiler();
  // Creation order outer, solve, other, flush interleaves outer's children
  // with a second root; the table must still list outer's subtree first.
  profiler.BeginPhase("outer");
  profiler.CompletePhase("solve", 0.002, 3, 30);
  profiler.EndPhase(5);
  profiler.BeginPhase("other");
  profiler.EndPhase();
  profiler.BeginPhase("outer");
  profiler.CompletePhase("flush", 0.001, 2, 0);
  profiler.EndPhase(1);

  Report report("r");
  report.AddProfile(recorder);
  std::ostringstream csv;
  report.WriteCsv(csv);
  std::istringstream lines(csv.str());
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "# r.profile_tree");
  std::getline(lines, line);
  EXPECT_EQ(line, "phase,calls,units,incl_ms,excl_ms,excl_pct");
  std::vector<std::string> rows;
  while (std::getline(lines, line)) {
    // Keep phase, calls and units; the remaining columns are wall time.
    std::size_t end = 0;
    for (int comma = 0; comma < 3; ++comma) {
      end = line.find(',', end + 1);
    }
    rows.push_back(line.substr(0, end));
  }
  EXPECT_EQ(rows, (std::vector<std::string>{"outer,2,6", "  solve,3,30",
                                            "  flush,2,0", "other,1,0"}));

  std::ostringstream json;
  report.WriteJson(json);
  EXPECT_NE(json.str().find("\"prof.frames\":\"8\""), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"prof.drops\":\"0\""), std::string::npos);
  // The attribution tree is the only wall-clock table.
  EXPECT_EQ(json.str().find("\"profile\":"), std::string::npos);
}

// -- ParseReportArgs ----------------------------------------------------------

TEST(ParseReportArgs, DefaultsAreEmpty) {
  const ReportOptions options = Parse({});
  EXPECT_TRUE(options.json_path.empty());
  EXPECT_TRUE(options.csv_path.empty());
  EXPECT_TRUE(options.trace_path.empty());
  EXPECT_FALSE(options.profile);
  EXPECT_TRUE(options.positional.empty());
}

TEST(ParseReportArgs, ParsesAllFlagsAndKeepsPositionalOrder) {
  const ReportOptions options =
      Parse({"VRL", "--json", "out.json", "--trace-out", "trace.jsonl",
             "--profile", "--csv", "-", "extra"});
  EXPECT_EQ(options.json_path, "out.json");
  EXPECT_EQ(options.csv_path, "-");
  EXPECT_EQ(options.trace_path, "trace.jsonl");
  EXPECT_TRUE(options.profile);
  EXPECT_EQ(options.positional, (std::vector<std::string>{"VRL", "extra"}));
}

TEST(ParseReportArgs, MissingPathThrows) {
  EXPECT_THROW(Parse({"--json"}), ConfigError);
  EXPECT_THROW(Parse({"--csv"}), ConfigError);
  EXPECT_THROW(Parse({"pos", "--trace-out"}), ConfigError);
}

TEST(ParseReportArgs, FlagValueMayLookLikeAFlag) {
  // `--json --profile` consumes "--profile" as the path — documented
  // greedy behaviour, pinned so a refactor doesn't silently change it.
  const ReportOptions options = Parse({"--json", "--profile"});
  EXPECT_EQ(options.json_path, "--profile");
  EXPECT_FALSE(options.profile);
}

TEST(ParseReportArgs, ServePortArgumentIsOptional) {
  const ReportOptions bare = Parse({"--serve"});
  EXPECT_TRUE(bare.serve);
  EXPECT_EQ(bare.serve_port, 0);  // ephemeral

  const ReportOptions with_port = Parse({"--serve", "8080", "VRL"});
  EXPECT_TRUE(with_port.serve);
  EXPECT_EQ(with_port.serve_port, 8080);
  EXPECT_EQ(with_port.positional, (std::vector<std::string>{"VRL"}));

  // A non-numeric follower is a positional, not a port.
  const ReportOptions no_port = Parse({"--serve", "VRL"});
  EXPECT_TRUE(no_port.serve);
  EXPECT_EQ(no_port.serve_port, 0);
  EXPECT_EQ(no_port.positional, (std::vector<std::string>{"VRL"}));
}

TEST(ParseReportArgs, WatchdogTakesARulesPathAndRequiresIt) {
  const ReportOptions options = Parse({"--watchdog", "rules.json"});
  EXPECT_EQ(options.watchdog_path, "rules.json");
  EXPECT_FALSE(options.serve);  // --watchdog alone does not start a server
  EXPECT_THROW(Parse({"--watchdog"}), ConfigError);
}

TEST(ParseReportArgs, ResilienceFlagsParseAndValidate) {
  const ReportOptions defaults = Parse({});
  EXPECT_TRUE(defaults.resume_path.empty());
  EXPECT_EQ(defaults.workers, 0u);
  EXPECT_EQ(defaults.leg_timeout_s, 120.0);
  EXPECT_EQ(defaults.max_retries, 3u);

  const ReportOptions options =
      Parse({"--resume", "run.journal", "--workers", "4", "--leg-timeout",
             "2.5", "--max-retries", "7", "VRL"});
  EXPECT_EQ(options.resume_path, "run.journal");
  EXPECT_EQ(options.workers, 4u);
  EXPECT_EQ(options.leg_timeout_s, 2.5);
  EXPECT_EQ(options.max_retries, 7u);
  EXPECT_EQ(options.positional, (std::vector<std::string>{"VRL"}));

  EXPECT_THROW(Parse({"--resume"}), ConfigError);
  EXPECT_THROW(Parse({"--workers", "two"}), ConfigError);
  EXPECT_THROW(Parse({"--max-retries", "-1"}), ConfigError);
  EXPECT_THROW(Parse({"--leg-timeout", "0"}), ConfigError);
  EXPECT_THROW(Parse({"--leg-timeout", "fast"}), ConfigError);
}

TEST(ParseCountFlag, AcceptsWholeUnsignedIntegers) {
  EXPECT_EQ(ParseCountFlag("--windows", "0"), 0u);
  EXPECT_EQ(ParseCountFlag("--windows", "16"), 16u);
  EXPECT_EQ(ParseCountFlag("--seed", "18446744073709551615"),
            18446744073709551615ull);
}

TEST(ParseCountFlag, RejectsSignsGarbageAndOverflow) {
  for (const char* text :
       {"", "-1", "-0", "8x", "x8", "1.5", "0x10", "18446744073709551616"}) {
    EXPECT_THROW(ParseCountFlag("--windows", text), ConfigError) << text;
  }
  try {
    ParseCountFlag("--windows", "8x");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("--windows"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("'8x'"), std::string::npos);
  }
}

TEST(ParseNumberFlag, AcceptsWholeFiniteNumbers) {
  EXPECT_EQ(ParseNumberFlag("--drift", "0.5"), 0.5);
  EXPECT_EQ(ParseNumberFlag("--drift", "-2"), -2.0);
  EXPECT_EQ(ParseNumberFlag("--drift", "1e-3"), 1e-3);
}

TEST(ParseNumberFlag, RejectsGarbageAndNonFinite) {
  for (const char* text : {"", "8x", "0.5.1", "fast", "nan", "inf", "1e999"}) {
    EXPECT_THROW(ParseNumberFlag("--drift", text), ConfigError) << text;
  }
}

// -- Binary flag parsing ------------------------------------------------------

/// Exit status of the built binary at `path` run with `args`, output
/// discarded.  A run past 60 s is killed and reports timeout(1)'s 124, so
/// a flag that wraps into an endless run fails instead of hanging.
int RunBinary(const std::string& path, const std::string& args) {
  const std::string command =
      "timeout 60 " + path + " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int RunFaultCampaign(const std::string& args) {
  return RunBinary(std::string(VRL_EXAMPLES_DIR) + "/fault_campaign", args);
}

TEST(FaultCampaignFlags, ValidFlagsRun) {
  EXPECT_EQ(RunFaultCampaign("--windows 1 --seed 7 --low-ratio 0.5"), 0);
}

TEST(FaultCampaignFlags, TrailingFlagWithoutValueIsAUsageError) {
  EXPECT_EQ(RunFaultCampaign("--windows 1 --seed"), 2);
}

TEST(FaultCampaignFlags, NegativeAndTrailingGarbageValuesAreUsageErrors) {
  EXPECT_EQ(RunFaultCampaign("--windows 1 --seed -1"), 2);
  EXPECT_EQ(RunFaultCampaign("--windows 1x"), 2);
  EXPECT_EQ(RunFaultCampaign("--windows 1 --low-ratio 0.5x"), 2);
}

TEST(BenchFlags, MalformedCountsAndTrailingFlagsAreUsageErrors) {
  const std::string bench_dir = VRL_BENCH_DIR;
  for (const char* binary : {"refresh_tournament", "timing_conformance"}) {
    const std::string path = bench_dir + "/" + binary;
    for (const char* args : {"--windows abc", "--windows -1", "--windows 2x",
                             "--windows", "--bogus 1", "--preset DDR9"}) {
      EXPECT_EQ(RunBinary(path, args), 2) << binary << " " << args;
    }
  }
  const std::string tournament = bench_dir + "/refresh_tournament";
  for (const char* args : {"--workloads abc", "--workloads -1",
                           "--subarrays 4x", "--subarrays -2",
                           "--windows 1 --subarrays"}) {
    EXPECT_EQ(RunBinary(tournament, args), 2) << args;
  }
  // The mains with no flags of their own reject a malformed shared flag
  // the same way instead of aborting.
  for (const char* binary :
       {"ablation_guardband", "ablation_nbits", "ablation_profiling",
        "ablation_salp", "ablation_tau_partial", "ablation_technology",
        "fig1a_restore_curve", "fig1b_partial_refresh",
        "fig3_retention_binning", "fig4_refresh_overhead", "fig5_equalization",
        "latency_impact", "parallel_scaling", "power_refresh",
        "table1_accuracy", "table2_area", "validation_circuit"}) {
    for (const char* args : {"--json", "--leg-timeout 9x"}) {
      EXPECT_EQ(RunBinary(bench_dir + "/" + binary, args), 2)
          << binary << " " << args;
    }
  }
  // The examples that parse numbers of their own share the same rules.
  const std::string examples_dir = VRL_EXAMPLES_DIR;
  const std::pair<const char*, const char*> example_cases[] = {
      {"policy_explorer", "--windows abc"},
      {"policy_explorer", "--windows"},
      {"policy_explorer", "--seed -1"},
      {"policy_explorer", "--bogus 1"},
      {"retention_profiler", "abc"},
      {"retention_profiler", "64 8x"},
      {"retention_profiler", "64 8 -1"},
      {"retention_profiler", "0"},
      {"integrity_audit", "--max-celsius abc"},
      {"integrity_audit", "--windows"},
      {"integrity_audit", "--bogus 1"},
      {"trace_tools", "generate facesim abc /dev/null"},
      {"trace_tools", "generate facesim -5 /dev/null"},
      {"trace_tools", "generate facesim 0 /dev/null"},
      // stoul used to wrap "-1" to 2^64 - 1 windows: an endless run.
      {"integrity_audit", "--windows -1x"},
  };
  for (const auto& [binary, args] : example_cases) {
    EXPECT_EQ(RunBinary(examples_dir + "/" + binary, args), 2)
        << binary << " " << args;
  }
}

TEST(ParseReportArgs, MakeRuntimeOptionsMapsTheResilienceFlags) {
  const runtime::RuntimeOptions runtime = MakeRuntimeOptions(
      Parse({"--resume", "j.jsonl", "--workers", "3", "--leg-timeout", "9",
             "--max-retries", "1"}));
  EXPECT_EQ(runtime.journal_path, "j.jsonl");
  EXPECT_EQ(runtime.workers, 3u);
  EXPECT_EQ(runtime.leg_timeout_s, 9.0);
  EXPECT_EQ(runtime.max_retries, 1u);
}

// -- Emit ---------------------------------------------------------------------

TEST(ReportEmit, UnopenablePathThrows) {
  Report report("r");
  report.AddTable("t", {"a"}).AddRow({"1"});
  ReportOptions options;
  options.json_path = "/nonexistent-dir-for-test/out.json";
  std::ostringstream text;
  EXPECT_THROW(report.Emit(options, text), ConfigError);
}

TEST(ReportEmit, StdoutJsonReplacesTextRendering) {
  Report report("r");
  report.AddTable("t", {"a"}).AddRow({"1"});
  ReportOptions options;
  options.json_path = "-";
  std::ostringstream text;
  report.Emit(options, text);
  EXPECT_EQ(text.str().front(), '{') << text.str();
  EXPECT_EQ(text.str().find("-- t --"), std::string::npos);
}

// -- PolicyFromName -----------------------------------------------------------

TEST(PolicyFromName, CanonicalizesCaseAndSeparators) {
  EXPECT_EQ(core::PolicyFromName("JEDEC"), "JEDEC");
  EXPECT_EQ(core::PolicyFromName("jedec"), "JEDEC");
  EXPECT_EQ(core::PolicyFromName("RAIDR"), "RAIDR");
  EXPECT_EQ(core::PolicyFromName("VRL"), "VRL");
  EXPECT_EQ(core::PolicyFromName("VRL-Access"), "VRL-Access");
  EXPECT_EQ(core::PolicyFromName("vrl_access"), "VRL-Access");
  EXPECT_EQ(core::PolicyFromName("VrlAccess"), "VRL-Access");
}

TEST(PolicyFromName, UnknownAndEmptyNamesThrow) {
  EXPECT_THROW(core::PolicyFromName("DDR5"), ConfigError);
  EXPECT_THROW(core::PolicyFromName(""), ConfigError);
  // Separator-only input canonicalizes to empty, not to a policy.
  EXPECT_THROW(core::PolicyFromName("--__"), ConfigError);
}

}  // namespace
}  // namespace vrl::bench
