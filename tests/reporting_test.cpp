// Tests for the shared report writer (bench/reporting.hpp): CSV quoting,
// the --profile attribution table, the flag table and its checked numeric
// value parsers, the command-line contract of every bench and example
// binary, and the policy-name resolver the reporting binaries feed their
// arguments through.
//
// The binaries' paths arrive as one comma-separated compile definition
// (VRL_BINARIES) from tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
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

constexpr unsigned kAllGroups =
    kOutput | kProfile | kTrace | kPreset | kRuntime;

// argv helper: parses `args` like main would, against the rows of the
// shared `groups` plus the binary's own `rows`.
ReportOptions Parse(std::vector<std::string> args, std::vector<Flag> rows = {},
                    unsigned groups = kAllGroups) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("test_binary"));
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  ReportOptions options;
  std::vector<Flag> table = ReportFlags(&options, groups);
  for (Flag& row : rows) {
    table.push_back(std::move(row));
  }
  ParseFlagTable(static_cast<int>(argv.size()), argv.data(), table);
  return options;
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
  telemetry::Profiler& profiler = *recorder.profiler();
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

// -- Flag table ---------------------------------------------------------------

TEST(FlagTable, DefaultsAreEmpty) {
  const ReportOptions options = Parse({});
  EXPECT_TRUE(options.json_path.empty());
  EXPECT_TRUE(options.csv_path.empty());
  EXPECT_TRUE(options.trace_path.empty());
  EXPECT_FALSE(options.profile);
  EXPECT_FALSE(options.preset.has_value());
}

TEST(FlagTable, ParsesGroupFlagsAndFillsPositionalsInOrder) {
  std::string first;
  std::string second;
  const ReportOptions options =
      Parse({"VRL", "--json", "out.json", "--trace-out", "trace.jsonl",
             "--profile", "--csv", "-", "extra"},
            {{"first", &first}, {"second", &second}});
  EXPECT_EQ(options.json_path, "out.json");
  EXPECT_EQ(options.csv_path, "-");
  EXPECT_EQ(options.trace_path, "trace.jsonl");
  EXPECT_TRUE(options.profile);
  EXPECT_EQ(first, "VRL");
  EXPECT_EQ(second, "extra");
}

TEST(FlagTable, OutputPathsAreCheckedByExtension) {
  EXPECT_EQ(Parse({"--trace-out", "t.JSONL"}).trace_path, "t.JSONL");
  EXPECT_EQ(Parse({"--profile-out", "p.Collapsed"}).profile_path,
            "p.Collapsed");
  // ".trace.json" ends in ".json" but is refused: the profile has no
  // Chrome-trace export.
  for (const char* path : {"p.jsn", "p.txt", "p.trace.json", "p.folded"}) {
    try {
      Parse({"--profile-out", path});
      ADD_FAILURE() << "expected ConfigError for " << path;
    } catch (const ConfigError& error) {
      EXPECT_EQ(std::string(error.what()),
                "profile file " + std::string(path) +
                    ": unsupported extension (expected one of: .json, "
                    ".collapsed)");
    }
  }
  EXPECT_THROW(Parse({"--trace-out", "t.txt"}), ConfigError);
}

TEST(FlagTable, MissingValueThrows) {
  std::string first;
  EXPECT_THROW(Parse({"--json"}), ConfigError);
  EXPECT_THROW(Parse({"--csv"}), ConfigError);
  EXPECT_THROW(Parse({"pos", "--trace-out"}, {{"first", &first}}),
               ConfigError);
}

TEST(FlagTable, FlagValueMayLookLikeAFlag) {
  // `--json --profile` consumes "--profile" as the path — documented
  // greedy behaviour, pinned so a refactor doesn't silently change it.
  const ReportOptions options = Parse({"--json", "--profile"});
  EXPECT_EQ(options.json_path, "--profile");
  EXPECT_FALSE(options.profile);
}

TEST(FlagTable, ResilienceFlagsParseAndValidate) {
  const ReportOptions defaults = Parse({});
  EXPECT_TRUE(defaults.resume_path.empty());

  std::string workload;
  const ReportOptions options =
      Parse({"--resume", "run.journal", "VRL"}, {{"workload", &workload}});
  EXPECT_EQ(options.resume_path, "run.journal");
  EXPECT_EQ(workload, "VRL");

  EXPECT_THROW(Parse({"--resume"}), ConfigError);
  // Legs run in-process only: the worker-pool flags are unknown.
  EXPECT_THROW(Parse({"--workers", "2"}), ConfigError);
  EXPECT_THROW(Parse({"--leg-timeout", "9"}), ConfigError);
  EXPECT_THROW(Parse({"--max-retries", "1"}), ConfigError);
}

// There is no monitor server: every group table rejects its former flags
// as unknown, whatever follows them.
void ExpectUnknownFlag(const std::vector<std::string>& args,
                       const std::string& flag) {
  try {
    Parse(args);
    ADD_FAILURE() << "expected ConfigError for " << flag;
  } catch (const ConfigError& error) {
    EXPECT_EQ(std::string(error.what()).rfind("unknown flag '" + flag + "'", 0),
              0u)
        << error.what();
  }
}

TEST(FlagTable, ServeIsAnUnknownFlag) {
  ExpectUnknownFlag({"--serve"}, "--serve");
  ExpectUnknownFlag({"--serve", "8080"}, "--serve");
  ExpectUnknownFlag({"--serve", "0", "--json", "-"}, "--serve");
}

TEST(FlagTable, WatchdogIsAnUnknownFlag) {
  ExpectUnknownFlag({"--watchdog"}, "--watchdog");
  ExpectUnknownFlag({"--watchdog", "rules.json"}, "--watchdog");
}

TEST(FlagTable, AcceptsOnlyTheDeclaredGroupsAndRows) {
  std::size_t windows = 0;
  try {
    Parse({"--trace-out", "x"}, {{"--windows", &windows}}, kOutput);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    // The unknown-flag error lists the table's flags.
    EXPECT_STREQ(error.what(),
                 "unknown flag '--trace-out' (expected one of: --json, "
                 "--csv, --windows)");
  }
  EXPECT_THROW(Parse({"extra"}, {}, kOutput), ConfigError);
  EXPECT_THROW(Parse({"--topology", "DDR4_2400"}), ConfigError);
  EXPECT_EQ(Parse({"--preset", "ddr4-2400"}).preset,
            dram::TimingPreset::kDdr4_2400);
  EXPECT_THROW(Parse({"--preset", "DDR9"}), ConfigError);
}

TEST(FlagTable, RowsParseAndCheckTheirKinds) {
  std::size_t rows = 0;
  double ms = 0.0;
  bool vrt = false;
  std::vector<std::string> passed;
  const auto table = [&]() -> std::vector<Flag> {
    return {{"rows", &rows, kPositive},
            {"--ms", &ms, kPositive},
            {"--vrt", &vrt},
            {"--benchmark_*",
             [&](const std::string& arg) { passed.push_back(arg); }}};
  };
  Parse({"64", "--ms", "0.5", "--vrt", "--benchmark_filter=BM_X"}, table(),
        0);
  EXPECT_EQ(rows, 64u);
  EXPECT_EQ(ms, 0.5);
  EXPECT_TRUE(vrt);
  EXPECT_EQ(passed, (std::vector<std::string>{"--benchmark_filter=BM_X"}));
  EXPECT_THROW(Parse({"0"}, table(), 0), ConfigError);
  EXPECT_THROW(Parse({"--ms", "-1"}, table(), 0), ConfigError);
  EXPECT_THROW(Parse({"--benchmarks"}, table(), 0), ConfigError);
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

/// Every bench and example binary: name -> path.
const std::map<std::string, std::string>& Binaries() {
  static const std::map<std::string, std::string> binaries = [] {
    std::map<std::string, std::string> out;
    std::stringstream list(VRL_BINARIES);
    for (std::string path; std::getline(list, path, ',');) {
      out[path.substr(path.rfind('/') + 1)] = path;
    }
    return out;
  }();
  return binaries;
}

/// Exit status of the built binary `name` run with `args`, stdout
/// discarded; `stderr_text` (optional) receives its stderr.  A run past
/// 60 s is killed and reports timeout(1)'s 124, so a flag that wraps into
/// an endless run fails instead of hanging.
int RunBinary(const std::string& name, const std::string& args,
              std::string* stderr_text = nullptr) {
  const std::string command = "timeout 60 " + Binaries().at(name) + " " +
                              args + " 2>&1 >/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  std::string text;
  std::array<char, 256> buffer;
  while (pipe != nullptr && std::fgets(buffer.data(), buffer.size(), pipe)) {
    text += buffer.data();
  }
  const int status = pipe != nullptr ? pclose(pipe) : -1;
  if (stderr_text != nullptr) {
    *stderr_text = text;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(FaultCampaignFlags, ValidFlagsRun) {
  EXPECT_EQ(RunBinary("fault_campaign", "--windows 1 --seed 7 --low-ratio 0.5"),
            0);
}

TEST(FaultCampaignFlags, TrailingFlagWithoutValueIsAUsageError) {
  EXPECT_EQ(RunBinary("fault_campaign", "--windows 1 --seed"), 2);
}

TEST(FaultCampaignFlags, NegativeAndTrailingGarbageValuesAreUsageErrors) {
  EXPECT_EQ(RunBinary("fault_campaign", "--windows 1 --seed -1"), 2);
  EXPECT_EQ(RunBinary("fault_campaign", "--windows 1x"), 2);
  EXPECT_EQ(RunBinary("fault_campaign", "--windows 1 --low-ratio 0.5x"), 2);
  // 0 turns an injector off; any other value reaches the injector, which
  // rejects a negative drift rate or corruption fraction.
  for (const char* args :
       {"--windows 1 --drift -1", "--windows 1 --corruption -0.5"}) {
    std::string err;
    EXPECT_EQ(RunBinary("fault_campaign", args, &err), 2) << args;
    EXPECT_EQ(err.rfind("error: ", 0), 0u) << args << ": " << err;
    EXPECT_EQ(err.find('\n'), err.size() - 1) << args << ": " << err;
  }
}

TEST(BenchFlags, MalformedCountsAndTrailingFlagsAreUsageErrors) {
  for (const char* args : {"--windows abc", "--windows -1", "--windows 2x",
                           "--windows", "--bogus 1", "--preset DDR9"}) {
    EXPECT_EQ(RunBinary("refresh_tournament", args), 2) << args;
  }
  for (const char* args : {"--workloads abc", "--workloads -1",
                           "--subarrays 4x", "--subarrays -2",
                           "--windows 1 --subarrays"}) {
    EXPECT_EQ(RunBinary("refresh_tournament", args), 2) << args;
  }
  // Every binary rejects a trailing flag and a removed worker-pool flag.
  for (const auto& [binary, path] : Binaries()) {
    for (const char* args : {"--json", "--leg-timeout 9x"}) {
      EXPECT_EQ(RunBinary(binary, args), 2) << binary << " " << args;
    }
  }
  // The journaled campaigns run legs in-process only.
  for (const char* binary : {"fault_campaign", "design_space"}) {
    for (const char* args :
         {"--workers 2", "--leg-timeout 9", "--max-retries 1"}) {
      std::string err;
      EXPECT_EQ(RunBinary(binary, args, &err), 2) << binary << " " << args;
      EXPECT_EQ(err.rfind("error: ", 0), 0u) << binary << " " << args;
      EXPECT_EQ(err.find('\n'), err.size() - 1) << binary << " " << err;
    }
  }
  // The examples that parse numbers of their own share the same rules.
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
    EXPECT_EQ(RunBinary(binary, args), 2) << binary << " " << args;
  }
}

TEST(Cli, EveryBinaryAcceptsExactlyTheFlagsItReads) {
  ASSERT_EQ(Binaries().size(), 27u);
  // The positionals each binary declares, filled, so one more is surplus.
  const std::map<std::string, std::string> positionals = {
      {"quickstart", "facesim"},
      {"retention_profiler", "64 8 7"},
      {"trace_tools", "generate facesim 1 /dev/null"},
      {"circuit_waveform", "deck eq /dev/null"},
  };
  // A shared flag the binary does not read; default --trace-out.
  const std::map<std::string, std::string> unread = {
      {"fig3_retention_binning", "--preset DDR4_2400"},
      {"quickstart", "--resume q.journal"},
      {"fault_campaign", "--preset DDR4_2400"},
      {"design_space", "--profile"},
      {"microbench", "--json x"},
  };
  for (const auto& [binary, path] : Binaries()) {
    const auto filled = positionals.find(binary);
    const auto probe = unread.find(binary);
    // The output flags check the file extension as they parse: a binary
    // that reads them rejects these paths before it runs.
    for (const std::string& args :
         {std::string("--bogus 1"),
          (filled != positionals.end() ? filled->second + " " : "") +
              "extra",
          probe != unread.end() ? probe->second : "--trace-out x",
          std::string("--trace-out t.txt"),
          std::string("--profile-out p.jsn")}) {
      std::string err;
      EXPECT_EQ(RunBinary(binary, args, &err), 2) << binary << " " << args;
      // One `error:` line.
      EXPECT_EQ(err.rfind("error: ", 0), 0u) << binary << " " << args;
      EXPECT_EQ(err.find('\n'), err.size() - 1) << binary << " " << err;
    }
  }
  // --profile-out writes only the .json and .collapsed formats.
  for (const char* path : {"p.txt", "p.trace.json", "p.folded"}) {
    std::string err;
    EXPECT_EQ(RunBinary("quickstart", std::string("--profile-out ") + path,
                        &err),
              2)
        << path;
    EXPECT_EQ(err, "error: profile file " + std::string(path) +
                       ": unsupported extension (expected one of: .json, "
                       ".collapsed)\n");
  }
}

TEST(Cli, FormerMonitorBinariesRejectServe) {
  // There is no monitor server: --serve and --watchdog are unknown flags.
  for (const char* binary :
       {"quickstart", "fault_campaign", "design_space", "microbench"}) {
    for (const char* args : {"--serve", "--serve 0", "--watchdog r.json"}) {
      std::string err;
      EXPECT_EQ(RunBinary(binary, args, &err), 2) << binary << " " << args;
      EXPECT_EQ(err.rfind("error: unknown flag '--", 0), 0u)
          << binary << " " << err;
      EXPECT_EQ(err.find('\n'), err.size() - 1) << binary << " " << err;
    }
  }
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
