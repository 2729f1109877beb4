// Tests for the shared report writer (bench/reporting.hpp): CSV quoting,
// the --profile attribution table, the flag table and its checked numeric
// value parsers, the command-line contract of every bench and example
// binary, `--json -` writing one JSON document to stdout, and the
// policy-name resolver the reporting binaries feed their arguments
// through.
//
// The binaries' paths arrive as one comma-separated compile definition
// (VRL_BINARIES) from tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/reporting.hpp"
#include "common/error.hpp"
#include "core/vrl_system.hpp"
#include "dram/policy_registry.hpp"
#include "telemetry/recorder.hpp"

namespace vrl::bench {
namespace {

constexpr unsigned kAllGroups = kOutput | kProfile | kTrace | kPreset;

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

TEST(FlagTable, OutputPathsMustBeWritableAsTheyParse) {
  for (const char* flag : {"--json", "--csv", "--trace-out", "--profile-out"}) {
    const std::string path = "/nonexistent-dir/x.json";
    try {
      Parse({flag, path});
      ADD_FAILURE() << "expected ConfigError for " << flag;
    } catch (const ConfigError& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string(flag) + " " + path +
                    ": directory /nonexistent-dir does not exist or is not "
                    "writable");
    }
  }
  const std::string dir = testing::TempDir();
  try {
    Parse({"--json", dir});
    ADD_FAILURE() << "expected ConfigError for " << dir;
  } catch (const ConfigError& error) {
    EXPECT_EQ(std::string(error.what()), "--json " + dir + ": is a directory");
  }
  // Stdout, a new file in the working directory and one in an existing
  // directory all pass.
  const ReportOptions options =
      Parse({"--json", "-", "--csv", "new.csv", "--trace-out",
             (std::filesystem::path(dir) / "t.jsonl").string()});
  EXPECT_EQ(options.json_path, "-");
  EXPECT_EQ(options.csv_path, "new.csv");
  EXPECT_FALSE(std::filesystem::exists("new.csv"));
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

// There is no monitor server, no leg journal and no worker pool: every
// group table rejects their former flags as unknown, whatever follows
// them.
void ExpectUnknownFlag(const std::vector<std::string>& args,
                       const std::string& flag, unsigned groups = kAllGroups) {
  try {
    Parse(args, {}, groups);
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

TEST(FlagTable, NoGroupTakesResumeOrWorkerFlags) {
  // Legs run in-process, with no journal to resume.  ~0u turns on every
  // group bit, declared or not.
  for (const unsigned groups :
       {unsigned{kOutput}, unsigned{kProfile}, unsigned{kTrace},
        unsigned{kPreset}, ~0u}) {
    SCOPED_TRACE(groups);
    ExpectUnknownFlag({"--resume"}, "--resume", groups);
    ExpectUnknownFlag({"--resume", "run.journal"}, "--resume", groups);
    ExpectUnknownFlag({"--workers", "2"}, "--workers", groups);
    ExpectUnknownFlag({"--leg-timeout", "9"}, "--leg-timeout", groups);
    ExpectUnknownFlag({"--max-retries", "1"}, "--max-retries", groups);
  }
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

TEST(RetentionProfiler, WritesTheRowProfileOnlyToTheCsvPath) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(testing::TempDir()) /
      ("vrl_retention_profiler_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  // The default run writes no file: not in its working directory, and not
  // the shared path every run used to overwrite.
  const fs::path former_default = "/tmp/vrl_profile.csv";
  const bool existed = fs::exists(former_default);
  const auto stamp = existed ? fs::last_write_time(former_default)
                             : fs::file_time_type{};
  const std::string command = "cd '" + dir.string() + "' && timeout 60 " +
                              Binaries().at("retention_profiler") +
                              " 64 8 7 > /dev/null 2>&1";
  EXPECT_EQ(std::system(command.c_str()), 0);
  EXPECT_TRUE(fs::is_empty(dir));
  EXPECT_EQ(fs::exists(former_default), existed);
  if (existed) {
    EXPECT_EQ(fs::last_write_time(former_default), stamp);
  }

  // --csv PATH gets the header and one line per row.
  const fs::path csv = dir / "profile.csv";
  EXPECT_EQ(RunBinary("retention_profiler", "64 8 7 --csv " + csv.string()),
            0);
  std::ifstream in(csv);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "row,retention_ms,bin_period_ms,mprsf");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
  }
  EXPECT_EQ(rows, 64u);

  // A path that cannot be opened, or written, is one error line and exit 2,
  // and so is a --json report whose directory is missing.
  for (const std::string args :
       {"--csv " + (dir / "missing" / "profile.csv").string(),
        std::string("--csv /dev/full"),
        "--json " + (dir / "missing" / "report.json").string()}) {
    std::string err;
    EXPECT_EQ(RunBinary("retention_profiler", "64 8 7 " + args, &err), 2)
        << args;
    EXPECT_TRUE(err.starts_with("error: ")) << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
  fs::remove_all(dir);
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
  // rejects a negative drift rate or corruption fraction and an excursion
  // peak that is not above the 45 C profiling temperature.
  for (const char* args :
       {"--windows 1 --drift -1", "--windows 1 --corruption -0.5",
        "--windows 1 --temp-excursion -10", "--windows 1 --temp-excursion 30",
        "--windows 1 --temp-excursion 45"}) {
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
  // Counts the grid cannot run: zero windows or subarrays are flag errors,
  // more workloads than the suite holds or more subarrays than rows a
  // ConfigError; each is one `error:` line and exit 2, not an abort or a
  // report of nothing.
  for (const char* args : {"--windows 0", "--subarrays 0", "--workloads 15",
                           "--subarrays 9000 --windows 1 --workloads 1"}) {
    std::string err;
    EXPECT_EQ(RunBinary("refresh_tournament", args, &err), 2) << args;
    EXPECT_EQ(err.rfind("error: ", 0), 0u) << args;
    EXPECT_EQ(err.find('\n'), err.size() - 1) << args << " " << err;
  }
  // A window count whose horizon overflows the 64-bit cycle count is a
  // ConfigError, not a horizon wrapped to a few milliseconds.
  for (const char* binary : {"fault_campaign", "integrity_audit",
                             "policy_explorer", "refresh_tournament"}) {
    std::string err;
    EXPECT_EQ(RunBinary(binary, "--windows 720575940380", &err), 2) << binary;
    EXPECT_EQ(err.rfind("error: ", 0), 0u) << binary;
    EXPECT_EQ(err.find('\n'), err.size() - 1) << binary << " " << err;
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
      {"policy_explorer", "--windows 0"},
      {"retention_profiler", "abc"},
      {"retention_profiler", "64 8x"},
      {"retention_profiler", "64 8 -1"},
      {"retention_profiler", "0"},
      {"integrity_audit", "--max-celsius abc"},
      {"integrity_audit", "--windows"},
      {"integrity_audit", "--bogus 1"},
      {"integrity_audit", "--windows 0"},
      {"fault_campaign", "--windows 0"},
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

/// Stdout of the built binary `name` run with `args` at VRL_THREADS =
/// `threads` (stderr discarded); `status` receives the exit status.
std::string StdoutOf(const std::string& name, const std::string& args,
                     std::size_t threads, int* status) {
  const std::string command = "VRL_THREADS=" + std::to_string(threads) +
                              " timeout 300 " + Binaries().at(name) + " " +
                              args + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  std::string text;
  std::array<char, 4096> buffer;
  std::size_t got = 0;
  while (pipe != nullptr &&
         (got = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    text.append(buffer.data(), got);
  }
  const int raw = pipe != nullptr ? pclose(pipe) : -1;
  *status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return text;
}

TEST(RefreshTournament, JsonIsIdenticalAcrossThreadCounts) {
  // One task per workload, claimed heaviest first, folded in policy and
  // suite order: more workloads than threads exercise both orders.
  const std::string args =
      "--preset DDR4_2400 --windows 1 --workloads 5 --json -";
  int serial_status = -1;
  int fanned_status = -1;
  const std::string serial =
      StdoutOf("refresh_tournament", args, 1, &serial_status);
  const std::string fanned =
      StdoutOf("refresh_tournament", args, 3, &fanned_status);
  EXPECT_EQ(serial_status, 0);
  EXPECT_EQ(fanned_status, 0);
  EXPECT_NE(serial.find("\"lineage\""), std::string::npos);
  EXPECT_EQ(serial, fanned);
}

void SkipJsonSpace(const std::string& text, std::size_t& pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
}

/// Advances `pos` past one JSON value (leading whitespace skipped); false
/// when none parses there.  Enough grammar to tell one document from a
/// document with other text before or after it.
bool SkipJsonValue(const std::string& text, std::size_t& pos) {
  SkipJsonSpace(text, pos);
  if (pos >= text.size()) {
    return false;
  }
  const char open = text[pos];
  if (open == '"') {
    for (++pos; pos < text.size(); ++pos) {
      if (text[pos] == '\\') {
        ++pos;
      } else if (text[pos] == '"') {
        ++pos;
        return true;
      }
    }
    return false;
  }
  if (open == '{' || open == '[') {
    const char close = open == '{' ? '}' : ']';
    ++pos;
    SkipJsonSpace(text, pos);
    if (pos < text.size() && text[pos] == close) {
      ++pos;
      return true;
    }
    for (;;) {
      if (open == '{') {
        SkipJsonSpace(text, pos);
        if (pos >= text.size() || text[pos] != '"' ||
            !SkipJsonValue(text, pos)) {
          return false;
        }
        SkipJsonSpace(text, pos);
        if (pos >= text.size() || text[pos++] != ':') {
          return false;
        }
      }
      if (!SkipJsonValue(text, pos)) {
        return false;
      }
      SkipJsonSpace(text, pos);
      if (pos >= text.size()) {
        return false;
      }
      if (text[pos] == close) {
        ++pos;
        return true;
      }
      if (text[pos++] != ',') {
        return false;
      }
    }
  }
  const std::size_t start = pos;
  while (pos < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[pos])) != 0 ||
          text[pos] == '-' || text[pos] == '+' || text[pos] == '.')) {
    ++pos;
  }
  const std::string token = text.substr(start, pos - start);
  char* end = nullptr;
  std::strtod(token.c_str(), &end);
  return token == "true" || token == "false" || token == "null" ||
         (!token.empty() && end == token.c_str() + token.size());
}

/// True when `text` is one JSON object and nothing else but whitespace.
bool IsOneJsonObject(const std::string& text) {
  std::size_t pos = 0;
  SkipJsonSpace(text, pos);
  if (pos >= text.size() || text[pos] != '{' || !SkipJsonValue(text, pos)) {
    return false;
  }
  SkipJsonSpace(text, pos);
  return pos == text.size();
}

TEST(JsonStdout, IsExactlyOneJsonObject) {
  // The check itself: text before or after the report is not one document.
  EXPECT_TRUE(IsOneJsonObject("{\"a\":[\"b\\\"\",{},1.5e-3,true]}\n"));
  EXPECT_FALSE(IsOneJsonObject("{}\n\nverdict: lost\n"));
  EXPECT_FALSE(IsOneJsonObject("warning: 3 rows\n{}\n"));
  EXPECT_FALSE(IsOneJsonObject("{\"a\":}"));

  // `--json -` writes the report and nothing else to stdout: the campaign
  // verdict is a meta entry and the guardband warning (a guardband of 4
  // leaves rows unprotected) goes to stderr.
  const std::string config = testing::TempDir() + "vrl_guardband_4.cfg";
  std::ofstream(config) << "retention_guardband = 4\n";
  const std::pair<std::string, std::string> runs[] = {
      {"fault_campaign", "--json -"},
      {"integrity_audit", "--config " + config + " --json -"},
      {"retention_profiler", "--json -"},
  };
  for (const auto& [binary, args] : runs) {
    int status = -1;
    const std::string out = StdoutOf(binary, args, 1, &status);
    EXPECT_EQ(status, 0) << binary;
    EXPECT_TRUE(IsOneJsonObject(out)) << binary << " " << args << ":\n"
                                      << out;
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
  // Flags the binary does not read; default --trace-out.  --resume is
  // gone from the two binaries that took it.
  const std::map<std::string, std::vector<std::string>> unread = {
      {"fig3_retention_binning", {"--preset DDR4_2400"}},
      {"quickstart", {"--resume q.journal"}},
      {"fault_campaign", {"--preset DDR4_2400", "--resume x"}},
      {"design_space", {"--profile", "--resume x"}},
      {"microbench", {"--json x"}},
  };
  for (const auto& [binary, path] : Binaries()) {
    const auto filled = positionals.find(binary);
    const auto probe = unread.find(binary);
    // The output flags check the file extension as they parse: a binary
    // that reads them rejects these paths before it runs.
    std::vector<std::string> cases = {
        "--bogus 1",
        (filled != positionals.end() ? filled->second + " " : "") + "extra",
        "--trace-out t.txt", "--profile-out p.jsn"};
    if (probe != unread.end()) {
      cases.insert(cases.end(), probe->second.begin(), probe->second.end());
    } else {
      cases.emplace_back("--trace-out x");
    }
    // Every binary that reads --json checks its directory before it runs.
    if (binary != "microbench") {
      cases.push_back(
          (filled != positionals.end() ? filled->second + " " : "") +
          "--json /nonexistent-dir/x.json");
    }
    for (const std::string& args : cases) {
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
  // The identity on every registry name.
  for (const dram::PolicyInfo& info :
       dram::PolicyRegistry::Global().entries()) {
    EXPECT_EQ(core::PolicyFromName(info.name), info.name);
  }
  EXPECT_EQ(core::PolicyFromName("jedec"), "JEDEC");
  EXPECT_EQ(core::PolicyFromName("vrl_access"), "VRL-Access");
  EXPECT_EQ(core::PolicyFromName("VrlAccess"), "VRL-Access");
  EXPECT_EQ(core::PolicyFromName("VRLACCESS"), "VRL-Access");
}

TEST(PolicyFromName, UnknownAndEmptyNamesThrow) {
  EXPECT_THROW(core::PolicyFromName("DDR5"), ConfigError);
  EXPECT_THROW(core::PolicyFromName(""), ConfigError);
  // Separator-only input canonicalizes to empty, not to a policy.
  EXPECT_THROW(core::PolicyFromName("--__"), ConfigError);
}

}  // namespace
}  // namespace vrl::bench
