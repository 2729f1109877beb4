#include "common/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace vrl {
namespace {

/// strtoull/strtod skip leading whitespace; a whole value starts at once.
bool StartsClean(std::string_view text) {
  return !text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())) == 0;
}

}  // namespace

std::optional<std::uint64_t> ParseWholeUnsigned(std::string_view text,
                                                int base) {
  if (!StartsClean(text) || text.front() == '-' || text.front() == '+') {
    return std::nullopt;
  }
  // strtoull takes "0x" in base 16 too; only base 0 promises C prefixes.
  if (base == 16 && text.size() > 1 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    return std::nullopt;
  }
  const std::string copy(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(copy.c_str(), &end, base);
  if (end != copy.c_str() + copy.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> ParseWholeDouble(std::string_view text) {
  if (!StartsClean(text)) {
    return std::nullopt;
  }
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace vrl
