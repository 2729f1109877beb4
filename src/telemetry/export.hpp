#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

/// \file export.hpp
/// The JSONL exporter for metric snapshots (schema documented in
/// docs/TELEMETRY.md) and the number formatting and output-suffix lookup
/// every exporter shares; the lineage ring exports through
/// trace_export.hpp and a report's CSV comes from bench::Report.
///
/// Exports are byte-deterministic: metrics emit in name order (the
/// snapshot map is sorted) and doubles print through a fixed
/// shortest-round-trip format — so two deterministic runs produce
/// byte-identical files, which is how the determinism contract is tested
/// end to end.

namespace vrl::telemetry {

/// Shortest decimal representation that round-trips the double, with a
/// fixed "%.17g"-then-trim strategy; used by every exporter so numeric
/// formatting is identical across files.
std::string FormatDouble(double value);

/// Escapes a string for embedding in a JSON string literal (quotes not
/// included).
std::string JsonEscape(std::string_view text);

/// One output format: a lower-case file suffix and the writer it selects.
template <typename Writer>
struct OutputFormat {
  std::string_view suffix;
  Writer writer;
};

/// True when `path` ends with the lower-case `suffix`, ignoring case.
bool EndsWithIgnoringCase(std::string_view path, std::string_view suffix);

/// The writer of the first of `formats` whose suffix `path` ends with,
/// ignoring case: the one extension lookup behind `--trace-out`
/// (TraceFileWriter) and `--profile-out` (ProfileFileWriter), checked
/// before the file opens.  A format with a null writer refuses its suffix
/// (and is not listed as accepted).
/// \throws vrl::ConfigError naming the `kind` of output, the path and
/// the accepted suffixes when no format with a writer matches.
template <typename Writer, std::size_t N>
Writer SelectOutputFormat(std::string_view kind, const std::string& path,
                          const OutputFormat<Writer> (&formats)[N]) {
  std::string accepted;
  bool refused = false;
  for (const OutputFormat<Writer>& format : formats) {
    if (!refused && EndsWithIgnoringCase(path, format.suffix)) {
      if (format.writer != nullptr) {
        return format.writer;
      }
      refused = true;
    }
    if (format.writer != nullptr) {
      accepted += (accepted.empty() ? "" : ", ") + std::string(format.suffix);
    }
  }
  throw ConfigError(std::string(kind) + " file " + path +
                    ": unsupported extension (expected one of: " + accepted +
                    ")");
}

// -- JSONL -------------------------------------------------------------------
// One self-describing JSON object per line:
//   {"type":"metric","name":...,"kind":"counter","count":N}
//   {"type":"metric","name":...,"kind":"histogram","count":N,"sum":S,
//    "edges":[...],"counts":[...]}

void WriteMetricsJsonl(std::ostream& os, const MetricsSnapshot& snapshot);

}  // namespace vrl::telemetry
