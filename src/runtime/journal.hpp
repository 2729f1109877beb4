#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file journal.hpp
/// Write-ahead leg journal: the crash-tolerance substrate of the execution
/// runtime (docs/RESILIENCE.md).
///
/// A journal records the completed legs of one campaign as JSONL, one
/// self-checksummed record per line:
///
///   {"type":"journal_header","version":1,"campaign":"<name>",
///    "config":"<16-hex config digest>","legs":N,"crc":"<16 hex>"}
///   {"type":"leg","index":0,"digest":"<16-hex payload digest>",
///    "payload":"<JSON-escaped leg payload>","crc":"<16 hex>"}
///   ...
///
/// The `crc` of every line is the FNV-1a 64 hash of the line's bytes up to
/// and including the `,"crc":"` marker, so any torn or bit-flipped line is
/// detected on load.  Legs are committed strictly in index order, so a
/// valid journal always holds a contiguous prefix [0, k) of the campaign's
/// legs — resume semantics reduce to "skip the first k legs".
///
/// Durability: every append rewrites the whole journal to `<path>.tmp`,
/// fsyncs it, and renames it over `<path>` — a crash (including SIGKILL)
/// at any instant leaves either the previous journal or the new one, never
/// a half-written file.  Journals are small (one line per leg, tens of
/// legs), so the rewrite is cheap; the atomicity is what matters.
///
/// Tolerance on load: a truncated or checksum-corrupt *final* line is the
/// expected residue of a crash mid-append and is silently dropped (the leg
/// it described simply reruns); corruption anywhere earlier is a hard
/// ParseError — the journal cannot be trusted.  A header that disagrees
/// with the resuming campaign's name, config digest or leg count is a
/// ConfigError: resuming a different experiment from this journal would
/// silently merge unrelated results.

namespace vrl::runtime {

/// FNV-1a 64-bit hash — the journal's line checksum and the payload/config
/// digest.  Stable across platforms (pinned by tests/runtime_test.cpp and
/// re-implemented by scripts/check_journal.py).
std::uint64_t Fnv1a64(std::string_view bytes);

/// Fixed-width lower-case hex of a 64-bit value (16 characters).
std::string ToHex16(std::uint64_t value);

/// Escapes/unescapes a string for embedding in a journal JSON field,
/// matching telemetry::JsonEscape's escape set exactly.
std::string JsonUnescape(std::string_view text);

/// The write-ahead journal of one campaign.  Opening an existing journal
/// validates every record and loads the committed prefix; Append() commits
/// the next leg durably before returning.
class LegJournal {
 public:
  /// Opens `path`, creating the journal (header only, written durably) when
  /// the file does not exist, else validating and loading it.
  /// \throws vrl::ConfigError when an existing header disagrees with
  ///         (campaign, config_digest, legs), or the file cannot be written.
  /// \throws vrl::ParseError on corruption anywhere but the final line.
  LegJournal(std::string path, std::string campaign,
             std::uint64_t config_digest, std::size_t legs);

  /// Payloads of the committed contiguous prefix, index order.
  const std::vector<std::string>& committed() const { return payloads_; }

  /// True when loading dropped a torn/corrupt final line (crash residue).
  bool dropped_tail() const { return dropped_tail_; }

  /// Durably commits leg `index`, which must equal committed().size() —
  /// the in-order-commit invariant that keeps the journal a contiguous
  /// prefix.  \throws vrl::ConfigError on an out-of-order index or write
  /// failure.
  void Append(std::size_t index, const std::string& payload);

 private:
  void Rewrite() const;  ///< temp + fsync + rename.

  std::string path_;
  std::string campaign_;
  std::uint64_t config_digest_ = 0;
  std::size_t legs_ = 0;
  std::string header_line_;
  std::vector<std::string> leg_lines_;
  std::vector<std::string> payloads_;
  bool dropped_tail_ = false;
};

}  // namespace vrl::runtime
