#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/sweep.hpp"
#include "fault/campaign.hpp"
#include "telemetry/metrics.hpp"

/// \file codec.hpp
/// Deterministic leg-payload codec for the execution runtime.
///
/// A journaled leg's result must survive a round trip through the journal
/// *exactly*: the resumed run's merged report has to be byte-identical to
/// an uninterrupted run (docs/RESILIENCE.md).  The codec therefore encodes
/// every value losslessly:
///
///   * doubles print via telemetry::FormatDouble (shortest round-trip form)
///     except NaN/infinity, which use the explicit tokens nan/inf/-inf so
///     decoding is exact for every representable value;
///   * strings are percent-escaped (space, '%', newline, CR, tab) so the
///     token stream stays whitespace-delimited.
///
/// The format is a line-per-record token stream ("metric ...", "campaign
/// ...", "event ...") — trivially diffable and append-composable, so a leg
/// payload can concatenate a typed result with its telemetry snapshot.

namespace vrl::runtime {

/// Lossless double tokens (FormatDouble plus nan/inf/-inf).
std::string EncodeDouble(double value);
double DecodeDouble(std::string_view token);

/// Percent-escaping for embedding arbitrary strings in the token stream.
std::string EscapeToken(std::string_view text);
std::string UnescapeToken(std::string_view token);

/// Sequential cursor over the payload's lines, with one-line lookahead —
/// what the section decoders below consume.
class LineCursor {
 public:
  explicit LineCursor(std::string_view payload);

  bool AtEnd() const { return index_ >= lines_.size(); }
  /// First token of the next line ("" at end) — section dispatch.
  std::string_view PeekTag() const;
  /// Consumes and returns the next line.
  /// \throws vrl::ParseError at end of payload.
  const std::string& Next();

 private:
  std::vector<std::string> lines_;
  std::size_t index_ = 0;
};

// -- Sections ----------------------------------------------------------------
// Every Encode* appends newline-terminated lines to `os`; the matching
// Decode* consumes exactly the lines its encoder wrote and throws
// vrl::ParseError on any mismatch.

/// Metrics snapshot ("metric <name> <kind> ..." lines plus an
/// "end_metrics" terminator).
void EncodeSnapshot(std::ostream& os,
                    const telemetry::MetricsSnapshot& snapshot);
telemetry::MetricsSnapshot DecodeSnapshot(LineCursor& cursor);

/// Fault-campaign report including the failure-event log and the adaptive
/// state-machine counters.
void EncodeCampaignReport(std::ostream& os,
                          const fault::CampaignReport& report);
fault::CampaignReport DecodeCampaignReport(LineCursor& cursor);

/// One design-space sweep point result.
void EncodeSweepResult(std::ostream& os, const core::SweepResult& result);
core::SweepResult DecodeSweepResult(LineCursor& cursor);

}  // namespace vrl::runtime
