#include "trace/io.hpp"

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace vrl::trace {
namespace {

constexpr char kMagic[8] = {'V', 'R', 'L', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 1;

/// The OS-level reason a stream operation failed, when errno still carries
/// one — distinguishes "file ends early" from "the disk is failing".
std::string ErrnoDetail() {
  return errno != 0 ? std::string(": ") + std::strerror(errno)
                    : std::string();
}

/// Throws if `is` went bad (a read error, not EOF): getline loops otherwise
/// end silently and the caller would mistake a failing disk for a short
/// trace.
void CheckReadHealth(const std::istream& is, std::size_t line_no) {
  if (is.bad()) {
    throw ParseError("trace: read error after line " +
                     std::to_string(line_no) + ErrnoDetail());
  }
}

/// Parses one whole unsigned field (`base` 0 takes C prefixes: 0x hex, 0
/// octal) through common/parse.hpp.
/// \throws ParseError "trace: bad <what> '<text>' on line <n>".
std::uint64_t ParseUnsignedField(const std::string& text, int base,
                                 const std::string& what,
                                 std::size_t line_no) {
  if (const auto value = ParseWholeUnsigned(text, base)) {
    return *value;
  }
  throw ParseError("trace: bad " + what + " '" + text + "' on line " +
                   std::to_string(line_no));
}

template <typename T>
void PutLe(std::ostream& os, T value) {
  std::array<unsigned char, sizeof(T)> buf;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<unsigned char>((value >> (8 * i)) & 0xFF);
  }
  os.write(reinterpret_cast<const char*>(buf.data()), sizeof(T));
}

template <typename T>
T GetLe(std::istream& is) {
  std::array<unsigned char, sizeof(T)> buf;
  errno = 0;
  is.read(reinterpret_cast<char*>(buf.data()), sizeof(T));
  if (!is) {
    throw ParseError(is.bad()
                         ? "trace: read error in binary stream" +
                               ErrnoDetail()
                         : "trace: truncated binary stream (record cut "
                           "short at EOF)");
  }
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value = static_cast<T>(value |
                           (static_cast<std::uint64_t>(buf[i]) << (8 * i)));
  }
  return value;
}

}  // namespace

void WriteText(std::ostream& os, const std::vector<TraceRecord>& records) {
  os << "# cycle op address\n";
  for (const TraceRecord& r : records) {
    os << r.cycle << ' ' << (r.is_write ? 'W' : 'R') << " 0x" << std::hex
       << r.address << std::dec << '\n';
  }
}

std::vector<TraceRecord> ReadText(std::istream& is) {
  std::vector<TraceRecord> records;
  std::string line;
  std::size_t line_no = 0;
  errno = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // A final line without a trailing newline is how an interrupted writer
    // leaves a trace: `is.eof()` is set even though getline succeeded.
    const bool torn_tail = is.eof();
    // Strip comments and skip blank lines.
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    std::istringstream ls(line);
    TraceRecord rec;
    std::string cycle;
    std::string op;
    std::string addr;
    if (!(ls >> cycle >> op >> addr)) {
      if (torn_tail) {
        throw ParseError("trace: truncated final line " +
                         std::to_string(line_no) +
                         " at EOF (no trailing newline — interrupted "
                         "writer?)");
      }
      throw ParseError("trace: malformed line " + std::to_string(line_no));
    }
    rec.cycle = ParseUnsignedField(cycle, 10, "cycle", line_no);
    if (op == "W" || op == "w") {
      rec.is_write = true;
    } else if (op == "R" || op == "r") {
      rec.is_write = false;
    } else {
      throw ParseError("trace: bad op '" + op + "' on line " +
                       std::to_string(line_no));
    }
    rec.address = ParseUnsignedField(addr, 0, "address", line_no);
    records.push_back(rec);
  }
  CheckReadHealth(is, line_no);
  return records;
}

void WriteBinary(std::ostream& os, const std::vector<TraceRecord>& records) {
  os.write(kMagic, sizeof kMagic);
  PutLe<std::uint32_t>(os, kVersion);
  PutLe<std::uint32_t>(os, static_cast<std::uint32_t>(records.size()));
  for (const TraceRecord& r : records) {
    PutLe<std::uint64_t>(os, r.cycle);
    PutLe<std::uint64_t>(os, r.address);
    PutLe<std::uint8_t>(os, r.is_write ? 1 : 0);
  }
}

std::vector<TraceRecord> ReadBinary(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw ParseError("trace: bad binary magic");
  }
  const auto version = GetLe<std::uint32_t>(is);
  if (version != kVersion) {
    throw ParseError("trace: unsupported binary version " +
                     std::to_string(version));
  }
  const auto count = GetLe<std::uint32_t>(is);
  std::vector<TraceRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.cycle = GetLe<std::uint64_t>(is);
    r.address = GetLe<std::uint64_t>(is);
    r.is_write = GetLe<std::uint8_t>(is) != 0;
    records.push_back(r);
  }
  return records;
}

void WriteTextFile(const std::string& path,
                   const std::vector<TraceRecord>& records) {
  errno = 0;
  std::ofstream os(path);
  if (!os) {
    throw ParseError("trace: cannot open '" + path + "' for writing" +
                     ErrnoDetail());
  }
  WriteText(os, records);
  os.flush();
  if (!os) {
    // ENOSPC and friends surface here, not at open(): without the check a
    // full disk would silently leave a truncated trace behind.
    throw ParseError("trace: write to '" + path + "' failed" +
                     ErrnoDetail());
  }
}

std::vector<TraceRecord> ReadTextFile(const std::string& path) {
  errno = 0;
  std::ifstream is(path);
  if (!is) {
    throw ParseError("trace: cannot open '" + path + "'" + ErrnoDetail());
  }
  return ReadText(is);
}

std::vector<TraceRecord> ReadRamulatorTrace(std::istream& is,
                                            Cycles issue_gap_cycles) {
  if (issue_gap_cycles == 0) {
    throw ParseError("trace: ramulator issue gap must be non-zero");
  }
  std::vector<TraceRecord> records;
  std::string line;
  std::size_t line_no = 0;
  errno = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const bool torn_tail = is.eof();  // Final line had no trailing newline.
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    std::istringstream ls(line);
    std::string addr;
    std::string op;
    if (!(ls >> addr >> op)) {
      if (torn_tail) {
        throw ParseError("trace: truncated final ramulator line " +
                         std::to_string(line_no) +
                         " at EOF (no trailing newline — interrupted "
                         "writer?)");
      }
      throw ParseError("trace: malformed ramulator line " +
                       std::to_string(line_no));
    }
    TraceRecord rec;
    rec.cycle = static_cast<Cycles>(records.size()) * issue_gap_cycles;
    rec.address = ParseUnsignedField(addr, 0, "ramulator address", line_no);
    if (op == "W" || op == "w" || op == "WRITE") {
      rec.is_write = true;
    } else if (op == "R" || op == "r" || op == "READ") {
      rec.is_write = false;
    } else {
      throw ParseError("trace: bad ramulator op '" + op + "' on line " +
                       std::to_string(line_no));
    }
    records.push_back(rec);
  }
  CheckReadHealth(is, line_no);
  return records;
}

}  // namespace vrl::trace
