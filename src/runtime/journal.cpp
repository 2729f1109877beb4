#include "runtime/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "telemetry/export.hpp"

namespace vrl::runtime {
namespace {

constexpr std::string_view kCrcMarker = ",\"crc\":\"";

/// Extracts the string field `"key":"..."` from a journal line (fields are
/// written by us in a fixed layout; this is not a general JSON parser).
bool FindStringField(const std::string& line, std::string_view key,
                     std::string* out) {
  std::string needle("\"");
  needle += key;
  needle += "\":\"";
  const std::size_t start = line.find(needle);
  if (start == std::string::npos) {
    return false;
  }
  std::size_t i = start + needle.size();
  std::string raw;
  while (i < line.size()) {
    const char c = line[i];
    if (c == '"') {
      *out = JsonUnescape(raw);
      return true;
    }
    raw += c;
    if (c == '\\' && i + 1 < line.size()) {
      raw += line[i + 1];
      ++i;
    }
    ++i;
  }
  return false;
}

bool FindUintField(const std::string& line, std::string_view key,
                   std::uint64_t* out) {
  std::string needle("\"");
  needle += key;
  needle += "\":";
  const std::size_t start = line.find(needle);
  if (start == std::string::npos) {
    return false;
  }
  // The digits run to the field's delimiter; anything else is malformed.
  const std::size_t begin = start + needle.size();
  const std::optional<std::uint64_t> value = ParseWholeUnsigned(
      std::string_view(line).substr(begin,
                                    line.find_first_of(",}", begin) - begin));
  if (!value) {
    return false;
  }
  *out = *value;
  return true;
}

/// Verifies a line's trailing checksum: FNV-1a 64 over the bytes up to and
/// including the `,"crc":"` marker must match the 16 hex digits after it.
bool LineChecksumOk(const std::string& line) {
  const std::size_t marker = line.rfind(kCrcMarker);
  if (marker == std::string::npos) {
    return false;
  }
  const std::size_t crc_begin = marker + kCrcMarker.size();
  if (line.size() != crc_begin + 16 + 2 ||
      line.compare(crc_begin + 16, 2, "\"}") != 0) {
    return false;
  }
  const std::string expected =
      ToHex16(Fnv1a64(std::string_view(line).substr(0, crc_begin)));
  return line.compare(crc_begin, 16, expected) == 0;
}

/// Appends the checksum suffix to a line prefix ending in `,"crc":"`.
std::string SealLine(std::string prefix) {
  prefix += ToHex16(Fnv1a64(prefix));
  prefix += "\"}";
  return prefix;
}

}  // namespace

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string ToHex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string JsonUnescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i + 1 >= text.size()) {
      throw ParseError("journal: dangling escape in string");
    }
    const char e = text[++i];
    switch (e) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        if (i + 4 >= text.size()) {
          throw ParseError("journal: truncated \\u escape");
        }
        const std::string_view hex = text.substr(i + 1, 4);
        const std::optional<std::uint64_t> code = ParseWholeUnsigned(hex, 16);
        if (!code || *code > 0xFF) {
          throw ParseError("journal: bad \\u escape '" + std::string(hex) +
                           "'");
        }
        out += static_cast<char>(*code);
        i += 4;
        break;
      }
      default:
        throw ParseError(std::string("journal: unknown escape '\\") + e +
                         "'");
    }
  }
  return out;
}

LegJournal::LegJournal(std::string path, std::string campaign,
                       std::uint64_t config_digest, std::size_t legs)
    : path_(std::move(path)),
      campaign_(std::move(campaign)),
      config_digest_(config_digest),
      legs_(legs) {
  header_line_ = SealLine(
      "{\"type\":\"journal_header\",\"version\":1,\"campaign\":\"" +
      telemetry::JsonEscape(campaign_) + "\",\"config\":\"" +
      ToHex16(config_digest_) + "\",\"legs\":" + std::to_string(legs_) +
      std::string(kCrcMarker));

  std::ifstream is(path_);
  if (!is) {
    Rewrite();  // New campaign: write the header durably before any leg.
    return;
  }

  std::vector<std::string> lines;
  std::string line;
  bool last_line_complete = false;
  while (std::getline(is, line)) {
    lines.push_back(line);
    last_line_complete = !is.eof();  // getline hitting EOF = no trailing \n.
  }
  if (is.bad()) {
    throw ParseError("journal: read error on '" + path_ +
                     "': " + std::strerror(errno));
  }
  if (lines.empty()) {
    Rewrite();  // Empty file (crash before the header landed).
    return;
  }

  // A torn final line (no newline, or checksum mismatch) is crash residue:
  // drop it and rerun that leg.  Anything wrong earlier is real corruption.
  const auto line_ok = [](const std::string& l) { return LineChecksumOk(l); };
  if (!last_line_complete || !line_ok(lines.back())) {
    lines.pop_back();
    dropped_tail_ = true;
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!line_ok(lines[i])) {
      throw ParseError("journal: checksum mismatch on line " +
                       std::to_string(i + 1) + " of '" + path_ + "'");
    }
  }
  if (lines.empty()) {
    Rewrite();  // Only the header line was torn: start over.
    return;
  }

  // Header must describe this campaign exactly.
  if (lines[0] != header_line_) {
    std::string header_campaign;
    std::string header_config;
    std::uint64_t header_legs = 0;
    if (!FindStringField(lines[0], "campaign", &header_campaign) ||
        !FindStringField(lines[0], "config", &header_config) ||
        !FindUintField(lines[0], "legs", &header_legs)) {
      throw ParseError("journal: malformed header in '" + path_ + "'");
    }
    throw ConfigError(
        "journal: '" + path_ + "' belongs to campaign '" + header_campaign +
        "' (config " + header_config + ", " + std::to_string(header_legs) +
        " legs) — refusing to resume '" + campaign_ + "' (config " +
        ToHex16(config_digest_) + ", " + std::to_string(legs_) +
        " legs) from it");
  }

  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string type;
    std::uint64_t index = 0;
    std::string digest;
    std::string payload;
    if (!FindStringField(lines[i], "type", &type) || type != "leg" ||
        !FindUintField(lines[i], "index", &index) ||
        !FindStringField(lines[i], "digest", &digest) ||
        !FindStringField(lines[i], "payload", &payload)) {
      throw ParseError("journal: malformed leg record on line " +
                       std::to_string(i + 1) + " of '" + path_ + "'");
    }
    if (index != i - 1) {
      throw ParseError("journal: leg index " + std::to_string(index) +
                       " on line " + std::to_string(i + 1) + " of '" + path_ +
                       "' breaks the contiguous-prefix invariant (expected " +
                       std::to_string(i - 1) + ")");
    }
    if (index >= legs_) {
      throw ParseError("journal: leg index " + std::to_string(index) +
                       " exceeds the campaign's " + std::to_string(legs_) +
                       " legs");
    }
    if (digest != ToHex16(Fnv1a64(payload))) {
      throw ParseError("journal: payload digest mismatch for leg " +
                       std::to_string(index) + " in '" + path_ + "'");
    }
    leg_lines_.push_back(lines[i]);
    payloads_.push_back(std::move(payload));
  }
}

void LegJournal::Append(std::size_t index, const std::string& payload) {
  if (index != payloads_.size()) {
    throw ConfigError("journal: out-of-order commit of leg " +
                      std::to_string(index) + " (expected " +
                      std::to_string(payloads_.size()) + ")");
  }
  if (index >= legs_) {
    throw ConfigError("journal: leg " + std::to_string(index) +
                      " exceeds the declared " + std::to_string(legs_) +
                      " legs");
  }
  leg_lines_.push_back(SealLine(
      "{\"type\":\"leg\",\"index\":" + std::to_string(index) +
      ",\"digest\":\"" + ToHex16(Fnv1a64(payload)) + "\",\"payload\":\"" +
      telemetry::JsonEscape(payload) + "\"" + std::string(kCrcMarker)));
  payloads_.push_back(payload);
  Rewrite();
}

void LegJournal::Rewrite() const {
  const std::string tmp = path_ + ".tmp";
  {
    std::string contents = header_line_;
    contents += '\n';
    for (const std::string& l : leg_lines_) {
      contents += l;
      contents += '\n';
    }
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      throw ConfigError("journal: cannot open '" + tmp +
                        "': " + std::strerror(errno));
    }
    std::size_t written = 0;
    while (written < contents.size()) {
      const ssize_t n = ::write(fd, contents.data() + written,
                                contents.size() - written);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        const int write_errno = errno;
        ::close(fd);
        throw ConfigError("journal: write to '" + tmp +
                          "' failed: " + std::strerror(write_errno));
      }
      written += static_cast<std::size_t>(n);
    }
    // fsync before rename: the rename must never make a not-yet-durable
    // file the journal (the crash window the write-ahead contract closes).
    if (::fsync(fd) != 0) {
      const int fsync_errno = errno;
      ::close(fd);
      throw ConfigError("journal: fsync of '" + tmp +
                        "' failed: " + std::strerror(fsync_errno));
    }
    ::close(fd);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw ConfigError("journal: rename '" + tmp + "' -> '" + path_ +
                      "' failed: " + std::strerror(errno));
  }
}

}  // namespace vrl::runtime
