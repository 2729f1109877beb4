#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "obs/plane.hpp"
#include "runtime/runner.hpp"
#include "telemetry/metrics.hpp"

/// \file reporting.hpp
/// Shared result reporting for the bench/ and examples/ binaries.
///
/// Every binary used to hand-roll its own printf + TextTable output; this
/// wraps the common shape — a named report carrying key/value metadata and
/// one or more tables — behind uniform CLI flags:
///
///   --json <path>       write the report as one JSON document ("-" = stdout)
///   --csv <path>        write the report as CSV sections ("-" = stdout)
///   --trace-out <path>  export the run's Tracer (Chrome trace_event JSON,
///                       or JSONL when the path ends in ".jsonl") — binaries
///                       that support it enable tracing when the flag is set
///   --profile           enable the phase self-profiler and append its
///                       wall-time attribution tree (AddProfile,
///                       docs/PROFILING.md)
///   --profile-out <path>  also write the attribution tree to a file
///                       (implies --profile): ".json" = vrl.profile.v1,
///                       ".collapsed"/".folded" = flamegraph stacks,
///                       ".trace.json" = Chrome-trace overlay, else text
///   --profile-scrub     zero wall times in --profile-out so the file is
///                       byte-identical across runs and VRL_THREADS
///                       (counts stay exact — the CI determinism gate)
///   --serve [port]      start the embedded monitor server
///                       (docs/OBSERVABILITY.md); port defaults to 0
///                       (ephemeral, announced on stdout)
///   --watchdog <rules.json>  attach an SloWatchdog evaluating the rules
///                       file on every Sample (drives /healthz)
///   --preset <name>     timing-table preset the run's memory controller
///                       uses (--topology is an alias): SingleBankEquivalent
///                       (default — the flat model, byte-for-byte),
///                       DDR3_1600, DDR4_2400 or LPDDR4_3200
///                       (docs/TOPOLOGY.md)
///   --resume <journal>  journal campaign legs to <journal> and skip legs a
///                       previous (crashed) run already committed — the
///                       resumed report is byte-identical to an
///                       uninterrupted one (docs/RESILIENCE.md)
///   --workers <n>       run campaign legs in n supervised worker
///                       processes (heartbeats, timeout, retry/backoff,
///                       graceful in-process degradation); 0 = in-process
///   --leg-timeout <s>   worker silence (seconds) before a leg is killed
///                       and retried
///   --max-retries <n>   worker attempts per leg before it degrades to
///                       in-process execution
///
/// The aligned-text rendering always goes to stdout (unless --json/--csv
/// targets stdout, which replaces it), so default invocations look exactly
/// as before.  JSON schema (validated by the CI report-schema job):
///
///   {"name": "<report>",
///    "meta": {"<key>": "<value>", ...},
///    "tables": {"<table>": {"headers": [...],
///                           "rows": [{"<col>": "<cell>", ...}, ...]}}}
///
/// All values are JSON strings, formatted exactly as the text rendering
/// formats them, so the three outputs always agree.  CSV output emits one
/// RFC-4180-ish section per table, each preceded by `# <report>.<table>`.
///
/// The google-benchmark kernels (bench/microbench.cpp) keep benchmark's own
/// --benchmark_out flags instead.

namespace vrl::bench {

/// Uniform CLI options of the reporting binaries.
struct ReportOptions {
  std::string json_path;   ///< Empty = no JSON; "-" = stdout.
  std::string csv_path;    ///< Empty = no CSV; "-" = stdout.
  std::string trace_path;  ///< Empty = no trace export (docs/TRACING.md).
  bool profile = false;    ///< Phase self-profiler requested.
  /// Attribution-tree output file (--profile-out); empty = none.
  std::string profile_path;
  /// Zero wall times in the --profile-out file (--profile-scrub).
  bool profile_scrub = false;
  bool serve = false;      ///< Start the monitor server (--serve).
  int serve_port = 0;      ///< --serve's port; 0 = ephemeral.
  std::string watchdog_path;  ///< SLO rules file (--watchdog); empty = none.
  /// Timing-table preset name (--preset/--topology); empty = the binary's
  /// default.  Validated by the consumer via dram::PresetFromName.
  std::string preset;
  std::string resume_path;    ///< Leg journal (--resume); empty = none.
  std::size_t workers = 0;    ///< Supervised worker processes (--workers).
  double leg_timeout_s = 120.0;  ///< Worker liveness timeout (--leg-timeout).
  std::size_t max_retries = 3;   ///< Worker attempts per leg (--max-retries).
  /// Arguments left after removing the shared flags, in order (argv[0]
  /// excluded) — the binary's own positional arguments.
  std::vector<std::string> positional;
};

/// The checked numeric flag-value parsers behind ParseReportArgs, shared by
/// every binary that parses flags of its own.  ParseCountFlag takes a
/// whole base-10 unsigned integer: no sign (strtoull would silently wrap
/// "-1"), no trailing garbage ("8x"), nothing past 2^64 - 1.
/// ParseNumberFlag takes a whole finite decimal number ("0.5", "-2",
/// "1e-3"; not "8x", "nan" or "inf").
/// \throws vrl::ConfigError naming `flag` and quoting `text`.
std::uint64_t ParseCountFlag(const std::string& flag, const std::string& text);
double ParseNumberFlag(const std::string& flag, const std::string& text);

/// Parses `--json <path>` / `--csv <path>` / `--trace-out <path>` /
/// `--profile` / `--serve [port]` / `--watchdog <rules.json>` out of argv.
/// `--serve`'s port argument is optional: a following bare integer is
/// consumed as the port, anything else leaves the ephemeral default.
/// \throws vrl::ConfigError when a flag is missing its path argument.
ReportOptions ParseReportArgs(int argc, char** argv);

/// ParseReportArgs for mains with no flags of their own: a malformed flag
/// prints one `error:` line to stderr and exits 2, the usage-error code of
/// every example, instead of escaping main.
ReportOptions ParseReportArgsOrExit(int argc, char** argv);

/// Writes the recorder's attribution tree to `options.profile_path`
/// (--profile-out), dispatching on the extension: ".trace.json" renders
/// the Chrome-trace overlay, ".json" the vrl.profile.v1 document,
/// ".collapsed"/".folded" flamegraph stacks, anything else the text tree.
/// --profile-scrub zeroes wall times first.  No-op when the path is empty
/// or the recorder has no profiler.
/// \throws vrl::ConfigError when the file cannot be opened.
void WriteProfileOutput(const ReportOptions& options,
                        const telemetry::Recorder& recorder);

/// Builds the observability plane the parsed flags ask for, or null when
/// neither --serve nor --watchdog was given.  When the server starts, its
/// address is announced as "monitor: serving on http://<addr>:<port>" to
/// `announce` (flushed — CI greps it for the ephemeral port).  The caller
/// drives plane->Sample(recorder) at its own cadence.
/// \throws vrl::ConfigError on an unbindable port or bad rules file.
std::unique_ptr<obs::MonitorPlane> MakeMonitorPlane(
    const ReportOptions& options, std::ostream& announce);

/// Maps the resilience flags (--resume/--workers/--leg-timeout/
/// --max-retries) onto the execution runtime's options
/// (docs/RESILIENCE.md).  The caller wires runtime_telemetry/on_leg itself.
runtime::RuntimeOptions MakeRuntimeOptions(const ReportOptions& options);

/// Wires fleet observability (docs/OBSERVABILITY.md) into runtime options
/// headed for RunJournaledLegs.  No-op unless `plane` has a live server.
/// Installs:
///   * an on_leg wrapper (composing with any already set) publishing the
///     journaled-leg committed/resumed breakdown to /runs;
/// and, when the options ask for supervised workers:
///   * on_worker_frame — absorbs each worker 'S' frame into a
///     FederatedRegistry and publishes it (labeled /metrics section);
///   * on_fleet — publishes pool status to /fleet and drives
///     plane->Sample() with an aggregate view (federation fold + the
///     runtime's own counters + `fleet.*` liveness gauges), which is what
///     the watchdog's max_worker_stale_s rule evaluates.
/// The federation state lives inside the installed callbacks; it stays
/// alive as long as the options (or copies of them) do.
void AttachFleetObservability(obs::MonitorPlane* plane,
                              const std::string& campaign,
                              std::size_t legs_total,
                              telemetry::Recorder* runtime_telemetry,
                              runtime::RuntimeOptions* runtime_options);

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
