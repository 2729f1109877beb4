#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

/// \file parse.hpp
/// The one text-to-number conversion behind every input boundary: command
/// line flags (bench/reporting.hpp), config files (core/config_io.hpp),
/// trace files (trace/io.hpp) and the VRL_THREADS setting.  Both parsers
/// take the whole text or nothing; each boundary turns "no value" into its
/// own error type and message.

namespace vrl {

/// A whole unsigned integer in `base` (only 0 takes C prefixes: 0x hex, 0
/// octal; base 16 rejects "0x").  No sign (strtoull would silently wrap "-1"), no surrounding
/// whitespace, no trailing garbage ("8x"), nothing past 2^64 - 1.
std::optional<std::uint64_t> ParseWholeUnsigned(std::string_view text,
                                                int base = 10);

/// A whole finite number ("0.5", "-2", "1e-3"; not "8x", " 1", "nan",
/// "inf" or "1e999").
std::optional<double> ParseWholeDouble(std::string_view text);

}  // namespace vrl
