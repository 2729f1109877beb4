#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "dram/timing_table.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"

/// \file reporting.hpp
/// Shared result reporting and command-line parsing for the bench/ and
/// examples/ binaries.
///
/// Every binary parses argv against one flag table (ParseFlags): the
/// rows it declares for its own flags and positionals, plus the shared
/// ReportOptions groups whose fields it reads (FlagGroup; README.md
/// "Command-line flags" lists which binary takes which group).  A binary
/// accepts exactly the flags it reads: an unknown flag, a surplus
/// positional, a missing value or a malformed number prints one `error:`
/// line and exits 2.
///
/// A report is a name, ordered key/value metadata and ordered named tables.
/// The aligned-text rendering always goes to stdout (unless --json/--csv
/// targets stdout, which replaces it).  JSON schema (validated by the CI
/// report-schema job):
///
///   {"name": "<report>",
///    "meta": {"<key>": "<value>", ...},
///    "tables": {"<table>": {"headers": [...],
///                           "rows": [{"<col>": "<cell>", ...}, ...]}}}
///
/// All values are JSON strings, formatted exactly as the text rendering
/// formats them, so the three outputs always agree.  CSV output emits one
/// RFC-4180-ish section per table, each preceded by `# <report>.<table>`.

namespace vrl::bench {

/// The shared flags' values.  Each field belongs to one FlagGroup.
struct ReportOptions {
  // kOutput
  std::string json_path;   ///< --json: "-" = stdout; empty = none.
  std::string csv_path;    ///< --csv: "-" = stdout; empty = none.
  // kTrace
  std::string trace_path;  ///< --trace-out (docs/TRACING.md); empty = none.
  // kProfile (docs/PROFILING.md)
  bool profile = false;    ///< --profile: phase self-profiler requested.
  /// --profile-out (implies --profile): attribution-tree file; empty = none.
  std::string profile_path;
  /// --profile-scrub: zero wall times in the --profile-out file, so it is
  /// byte-identical across runs and VRL_THREADS.
  bool profile_scrub = false;
  // kPreset (docs/TOPOLOGY.md)
  /// --preset: timing-table preset (dram::PresetFromName); none = the
  /// binary's default.
  std::optional<dram::TimingPreset> preset;
  // kRuntime (docs/RESILIENCE.md)
  std::string resume_path;    ///< --resume: leg journal; empty = none.
};

/// The shared flag groups.  A binary adds a group to its table only if it
/// reads those ReportOptions fields.
enum FlagGroup : unsigned {
  kOutput = 1u << 0,   ///< --json, --csv
  kProfile = 1u << 1,  ///< --profile, --profile-out, --profile-scrub
  kTrace = 1u << 2,    ///< --trace-out
  kPreset = 1u << 3,   ///< --preset
  kRuntime = 1u << 4,  ///< --resume
};

/// A row's value check: kPositive rejects a zero count or a number <= 0.
enum FlagCheck { kAnyValue, kPositive };

/// The checked flag-value parsers: common/parse.hpp's whole-text rules
/// (ParseWholeUnsigned base 10, ParseWholeDouble) plus the row's check.
/// \throws vrl::ConfigError naming `flag` and quoting `text`.
std::uint64_t ParseCountFlag(const std::string& flag, const std::string& text,
                             FlagCheck check = kAnyValue);
double ParseNumberFlag(const std::string& flag, const std::string& text,
                       FlagCheck check = kAnyValue);

/// One row of a binary's flag table.  A name starting with "--" is a flag;
/// any other name is the next positional slot, filled in row order and
/// named in its errors.  The destination picks the kind: text (a string, or
/// an action run on the value in argv order), count (an unsigned integer),
/// number (a double) or switch (a bool; takes no value).  A name ending in
/// '*' is a pass-through: the action receives each whole argument starting
/// with the rest of the name ("--benchmark_*").
struct Flag {
  using Store =
      std::function<void(const std::string& flag, const std::string& value)>;

  Flag(std::string flag, std::string* text);
  Flag(std::string flag, std::function<void(const std::string&)> action);
  Flag(std::string flag, double* number, FlagCheck check = kAnyValue);
  Flag(std::string flag, bool* on);
  template <typename T>
    requires(std::unsigned_integral<T> && !std::same_as<T, bool>)
  Flag(std::string flag, T* count, FlagCheck check = kAnyValue)
      : name(std::move(flag)),
        store([count, check](const std::string& f, const std::string& v) {
          *count = static_cast<T>(ParseCountFlag(f, v, check));
        }) {}

  std::string name;
  Store store;
  bool takes_value = true;  ///< False for a switch or a pass-through.
};

/// The rows of the shared `groups`, storing into `options`.
std::vector<Flag> ReportFlags(ReportOptions* options, unsigned groups);

/// Parses argv (argv[0] excluded) against `table`.  A value may look like
/// a flag (`--json --profile` writes the JSON to "--profile").
/// \throws vrl::ConfigError on an unknown flag (listing the table's
/// flags), a surplus positional or a missing value; a row's store throws
/// on a malformed or failed value.
void ParseFlagTable(int argc, char** argv, const std::vector<Flag>& table);

/// The binary's flag table: its own `rows` plus the rows of the shared
/// `groups`, which fill the returned options.  Any parse error prints one
/// `error:` line to stderr and exits 2.
ReportOptions ParseFlags(int argc, char** argv, unsigned groups,
                         std::vector<Flag> rows = {});

/// Writes the recorder's attribution tree to `options.profile_path`
/// (--profile-out) through telemetry::WriteProfileFile, which picks the
/// format by extension: ".json" the vrl.profile.v1 document, ".collapsed"
/// flamegraph stacks.  --profile-scrub zeroes wall times first.  No-op
/// when the path is empty or the recorder has no profiler.
/// \throws vrl::ConfigError when the file cannot be opened.
void WriteProfileOutput(const ReportOptions& options,
                        const telemetry::Recorder& recorder);

/// A named report: ordered metadata plus ordered named tables.
class Report {
 public:
  explicit Report(std::string name);

  const std::string& name() const { return name_; }

  /// Appends a metadata key/value pair (insertion order is preserved in
  /// every rendering).
  void AddMeta(std::string key, std::string value);
  void AddMeta(std::string key, double value, int decimals);
  void AddMeta(std::string key, std::size_t value);

  /// Appends a table and returns it for row filling.  The reference stays
  /// valid until the Report is destroyed.
  TextTable& AddTable(std::string name, std::vector<std::string> headers);

  /// Flattens a telemetry snapshot into a "telemetry" table (name, kind,
  /// field, value — the exporters' long CSV format).
  void AddTelemetry(const telemetry::MetricsSnapshot& snapshot);

  /// The `--profile` report: renders the recorder's hierarchical
  /// attribution tree (docs/PROFILING.md) as a "profile_tree" table —
  /// phases depth-first, indented two spaces per level, with calls, units,
  /// inclusive/exclusive ms and exclusive share — plus `prof.frames` /
  /// `prof.drops` meta.  Wall clock — not part of the determinism
  /// contract.  Adds nothing when the recorder has no profiler.
  void AddProfile(const telemetry::Recorder& recorder);

  // -- Rendering -------------------------------------------------------------
  void PrintText(std::ostream& os) const;  ///< meta lines + aligned tables
  void WriteJson(std::ostream& os) const;
  void WriteCsv(std::ostream& os) const;

  /// One-call sink: text to `text_out` (skipped when --json/--csv already
  /// writes to stdout), JSON/CSV to the paths in `options`.
  /// \throws vrl::ConfigError when an output file cannot be opened.
  void Emit(const ReportOptions& options, std::ostream& text_out) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, TextTable>> tables_;
};

}  // namespace vrl::bench
